"""Command-line reports over the library.

Exit codes: 0 success, 2 unreadable input, 3 configuration rejected,
4 mismatch verdict, 5 resource limit hit (the depth or the level-size
budget, or a stdout that refuses the output: a closed pipe, a full device
or a closed fd 1).

Only the order core, the families and the skeleton load with this module;
each command imports the layer it runs when it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .families import family, family_tags
from .poset import DEFAULT_CHAIN_BOUND, Poset, PosetError, bits
from .skeleton import (BuildConfig, BuildError, ConfigError, SkeletonTree,
                       build_levels, equal_rules, validated,
                       verify_structure)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _out(text: str) -> None:
    """Print text and flush stdout.  A stdout that refuses it exits 5; what
    it still buffers goes to devnull, so the flush at exit stays quiet.  A
    closed fd 1 leaves no stdout at all, and print would drop the text."""
    if sys.stdout is None:
        raise SystemExit(_fail(5, "cannot write to stdout: it is closed"))
    try:
        print(text, flush=True)
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(_fail(5, f"cannot write to stdout: {e}")) from None


def _emit(payload) -> None:
    _out(json.dumps(payload, sort_keys=True, indent=2))


def _load_poset(tag: Optional[str], path: Optional[str]) -> Poset:
    """The builtin family tag names, else the poset JSON file at path."""
    if tag:
        return family(tag)
    if not path:
        raise PosetError("no poset given")
    with open(path, "r", encoding="utf-8") as fh:
        return Poset.from_json(json.load(fh))


def _poset_args(sub) -> None:
    sub.add_argument("poset", nargs="?", help="poset JSON file")
    sub.add_argument("--family", choices=None, metavar="TAG",
                     help="builtin family tag, e.g. omega-chain or rn(2,0)")
    sub.add_argument("--horizon", type=int, default=8,
                     help="enumeration prefix length for infinite posets")


def _verdict_json(v) -> dict:
    return {"status": v.status, "witness": list(v.witness), "note": v.note}


def cmd_analyze(args) -> int:
    from .completion import complete_over
    try:
        poset = _load_poset(args.family, args.poset)
    except (OSError, ValueError) as e:
        return _fail(2, f"cannot load poset: {e}")
    horizon = poset.size if poset.finite else args.horizon
    ext = poset.extremal_elements(horizon)
    delta = poset.p_delta(horizon)
    report = {
        "poset": poset.name,
        "horizon": horizon,
        "minimal": list(map(poset.id_at, bits(ext.minimal))),
        "maximal": list(map(poset.id_at, bits(ext.maximal))),
        "extremal_exact": ext.exact,
        "p_delta": list(map(poset.id_at, bits(delta))),
        "p_delta_exact": poset.finite,
        "acc": _verdict_json(poset.check_acc(horizon, DEFAULT_CHAIN_BOUND)),
        "omega_complete": _verdict_json(poset.check_omega_complete(horizon)),
    }
    if args.subset:
        checks = []
        for members in args.subset:
            try:
                res = poset.finite_foundation(poset.mask_of(members), horizon)
            except PosetError as e:
                return _fail(2, f"bad --subset: {e}")
            checks.append({"subset": sorted(members),
                           "status": res.status,
                           "foundation": sorted(poset.ids_of(res.foundation)),
                           "note": res.note})
        report["foundations"] = checks
    completed = complete_over(poset, poset.prefix_mask(horizon), horizon)
    report["completion"] = {
        "elements": len(completed.elements),
        "tokens": [t.display or t.ref for t in completed.tokens()],
    }
    _emit(report)
    return 0


# each id option of a build: its name, the BuildConfig field it fills and
# its help
_CONFIG_OPTIONS = (("isolated", "isolated", None),
                   ("pb", "bounded", "explicitly bounded elements"),
                   ("pu", "unbounded", "unbounded elements"),
                   ("pinf", "noncompact", "noncompact elements"))


def _config_args(sub, prefix: str = "") -> None:
    for name, _, text in _CONFIG_OPTIONS:
        sub.add_argument(f"--{prefix}{name}", nargs="+", default=None,
                         metavar="ELT", help=text)


def _build_config(poset: Poset, args, prefix: str = "") -> BuildConfig:
    return BuildConfig(poset, horizon=args.horizon, **{
        field: frozenset(getattr(args, prefix + name) or ())
        for name, field, _ in _CONFIG_OPTIONS})


def cmd_build_verify(args) -> int:
    from .ring import verify_type_axioms
    try:
        poset = _load_poset(args.family, args.poset)
    except (OSError, ValueError) as e:
        return _fail(2, f"cannot load poset: {e}")
    if args.depth < 2:
        return _fail(3, "--depth must be at least 2")
    config = _build_config(poset, args)
    try:
        tree = build_levels(config, args.depth)
    except ConfigError as e:
        return _fail(3, str(e))
    except BuildError as e:
        return _fail(5, str(e))
    if args.format == "dot":
        _out(tree.to_dot())
        return 0
    try:
        structure = verify_structure(
            tree, q_lower=poset.mask_of(args.q) if args.q else None)
    except PosetError as e:
        return _fail(2, f"bad --q: {e}")
    axioms = verify_type_axioms(tree, args.depth - 1, seed=args.seed)
    report = {
        "poset": poset.name,
        "depth": args.depth,
        "level_sizes": [len(tree.level(n)) for n in range(1, args.depth + 1)],
        "structure": structure.to_json(),
        "axioms": axioms,
    }
    _emit(report)
    return 0 if structure.passed and axioms["passed"] else 4


def cmd_iso(args) -> int:
    """Sides whose build rules agree to --depth (``equal_rules``) are
    certified without a tree or a search (``equal_rules_run``); any other
    pair is built and matched (``run_backforth``)."""
    from .backforth import SIDES, IsoError, equal_rules_run, run_backforth
    if args.depth < 3:
        return _fail(3, "--depth must be at least 3")
    if args.max_depth is not None and args.max_depth < args.depth:
        return _fail(3, "--max-depth must be at least --depth")
    configs = []
    for name in SIDES:
        tag, path = getattr(args, f"{name}_family"), getattr(args, name)
        if not (tag or path):
            return _fail(2, f"no {name} poset given")
        try:
            poset = _load_poset(tag, path)
        except (OSError, ValueError) as e:
            return _fail(2, f"cannot load {name} poset: {e}")
        try:
            configs.append(validated(
                _build_config(poset, args, prefix=f"{name}_"), args.depth))
        except ConfigError as e:
            return _fail(3, f"{name}: {e}")
    same = equal_rules(*configs, args.depth) is None
    trees = []
    if not same:
        for name, config in zip(SIDES, configs):
            try:
                trees.append(SkeletonTree(config, args.depth))
            except BuildError as e:
                return _fail(5, f"{name}: {e}")
    try:
        q = configs[0].poset.mask_of(args.q) if args.q else None
    except PosetError as e:
        return _fail(2, f"bad --q: {e}")
    try:
        run = (equal_rules_run(*configs, args.depth, q) if same else
               run_backforth(*trees, q=q, depth=args.depth,
                             max_depth=args.max_depth, seed=args.seed))
    except IsoError as e:
        return _fail(3, str(e))
    _emit(run.serialize())
    if run.status == "mismatch":
        return 4
    if run.status == "depth-exhausted":
        return 5
    return 0


def cmd_closure(args) -> int:
    from .closure import (SymbolicSpace, check_identities, classify_algebra,
                          e_of_p, render_trace_dot, render_trace_text,
                          rieger_nishimura_run)
    if args.max_n < 0:
        return _fail(3, "--max-n must be at least 0")
    try:
        poset = family(args.family)
    except (PosetError, ValueError) as e:
        return _fail(2, str(e))
    try:
        space = SymbolicSpace(poset, args.horizon)
    except ValueError as e:
        return _fail(3, str(e))
    generator = space.fin({"p0"})
    trace = rieger_nishimura_run(space, generator, args.max_n)
    if args.format == "dot":
        _out(render_trace_dot(trace))
        return 0
    cls = classify_algebra(trace)
    gen_check = e_of_p(space)
    if args.format == "text":
        _out(render_trace_text(trace, cls))
        _out(f"generator check: "
             f"{'holds' if gen_check['holds'] else 'fails'} "
             f"({gen_check['checked']} steps)")
        return 0
    _emit({
        "family": args.family,
        "trace": trace.serialize(),
        "classification": cls.serialize(),
        "identity_violations": check_identities(trace),
        "generator_check": gen_check,
    })
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="stonetrim",
        description="Trim partitions of Stone spaces over countable posets")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="order analytics and completion")
    _poset_args(p)
    p.add_argument("--subset", nargs="+", action="append", metavar="ELT",
                   help="check a finite foundation for these elements")
    p.set_defaults(run=cmd_analyze)

    p = subs.add_parser("build-verify",
                        help="build a skeleton and verify its laws")
    _poset_args(p)
    p.add_argument("--depth", type=int, default=6)
    _config_args(p)
    p.add_argument("--q", nargs="+", default=None, metavar="ELT",
                   help="lower subset for the covering check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(run=cmd_build_verify)

    p = subs.add_parser("iso", help="back-and-forth matching of two builds")
    for side in ("left", "right"):
        p.add_argument(f"--{side}", metavar="FILE")
        p.add_argument(f"--{side}-family", metavar="TAG")
        _config_args(p, f"{side}-")
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--q", nargs="+", default=None, metavar="ELT")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_iso)

    p = subs.add_parser("closure",
                        help="peeling recursion over a ladder family")
    p.add_argument("--family", required=True, metavar="TAG",
                   help=f"one of {', '.join(family_tags())} (ladder kinds)")
    p.add_argument("--max-n", type=int, default=30)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--format", choices=("json", "text", "dot"),
                   default="json")
    p.set_defaults(run=cmd_closure)
    return parser


def main(argv: Optional[list] = None) -> int:
    """The exit code of one run, returned on every input: argparse's usage
    errors (2) and ``--help`` (0) and a refused stdout (5) end in a
    SystemExit, caught here."""
    try:
        args = build_parser().parse_args(argv)
        if args.horizon < 1:
            return _fail(3, "--horizon must be at least 1")
        return args.run(args)
    except SystemExit as e:
        return e.code


if __name__ == "__main__":
    sys.exit(main())
