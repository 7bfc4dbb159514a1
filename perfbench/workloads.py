"""Workload definitions: op lists made from a seed, op execution, output summaries.

An op is a plain dict with a ``key`` that names it in ``expected.json`` and
``known_failures.json``, a ``kind`` and the kind's arguments.  Every op builds
its posets fresh, so each one pays a cold order memo, as a CLI user does.

``run_op`` returns the op's start and end on the ``time.perf_counter`` clock
and a function that makes a JSON-able summary of its output, which is what
the parent checks.  The summary is made
after the clock stops, and after the traced op has ended, so that neither the
latency nor the per-layer counts include it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

import stonetrim as st
import stonetrim.cli

AXIOM_DEPTH = 6
AXIOM_DRAWS = 10_000

# finite posets of the acceptance suite, declared by covers
FINITE = {
    "chain": (["a", "b"], [("a", "b")]),
    "vee": (["a", "b", "c"], [("a", "b"), ("a", "c")]),
    "diamond": (["a", "b", "c", "d"],
                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
}

# acceptance criterion 1: poset, build keywords, singleton to isolate
AXIOM_CONFIGS = [
    ("chain", {}, "a"),
    ("vee", {}, "a"),
    ("diamond", {}, "a"),
    ("rn(2,0)", {}, "p1"),
    ("rn(2,2)", {}, "p4"),
    ("rn-infinity", {"horizon": 8}, "p0"),
    ("omega-antichain", {"horizon": 8}, "a1"),
    ("ziegler-fan", {"horizon": 8}, "m1"),
]

SELF_ISO_DEPTH = 6
# Every run covers the same matcher seeds, so runs with different workload
# seeds do the same work.  Matcher cost over seeds is heavy-tailed (diamond
# at depth 6: 0.6 s to 21 s over seeds 0..40), and a seed window that moved
# with the workload seed would make wall_s unsteady.  The window holds the
# seed-1 diamond tail, about half the batch's time; it stops at 2 so that a
# traced run, which runs the batch twice, stays far inside 180 s on a
# slowed-down host.
MATCHER_SEEDS = range(3)
# (name, poset, left isolated, right isolated)
SELF_ISO_PAIRS = [
    ("chain", "chain", (), ()),
    ("chain-iso", "chain", ("a",), ("a",)),
    ("vee", "vee", (), ()),
    ("vee-iso", "vee", ("a",), ("a",)),
    ("diamond", "diamond", (), ()),
    ("diamond-iso", "diamond", ("a",), ("a",)),
    ("rn(2,0)", "rn(2,0)", (), ()),
    ("rn(2,2)", "rn(2,2)", (), ()),
    ("mismatch", "chain", ("a",), ()),
    ("omega-chain", "omega-chain", (), ()),
]

# deepest depth per family that stays under MAX_LEVEL_SIZE
DEEP_BUILDS = [
    ("omega-chain", 8), ("dyadic", 9), ("rn-infinity", 13),
    ("rn-infinity-bot", 10), ("ziegler-fan", 13), ("omega-antichain", 16),
    ("rn(2,0)", 15), ("rn(4,2)", 13), ("rn(10,0)", 13),
]

CLI_FAMILIES = ["omega-chain", "omega-antichain", "rn-infinity",
                "rn-infinity-bot", "rn(2,0)", "rn(2,2)", "rn(4,2)", "dyadic",
                "ziegler-fan"]


def make_poset(name: str) -> st.Poset:
    if name in FINITE:
        elements, covers = FINITE[name]
        return st.Poset.from_covers(name, elements, covers)
    return st.family(name)


def cli_argvs() -> list[list[str]]:
    out = [["analyze", "--family", f] for f in CLI_FAMILIES]
    ladders = [f"rn({m},{v})" for m in range(11) for v in (0, 2)]
    for f in ladders + ["rn-infinity", "rn-infinity-bot"]:
        for fmt in ("json", "text", "dot"):
            out.append(["closure", "--family", f, "--format", fmt])
    for f in CLI_FAMILIES:
        for depth in ("4", "5"):
            out.append(["build-verify", "--family", f, "--depth", depth])
    for f in CLI_FAMILIES:
        out.append(["iso", "--left-family", f, "--right-family", f,
                    "--depth", "5"])
    out += [
        # README exit codes: mismatch 4, unknown family 2, bad isolation 3,
        # budget 5
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)",
         "--left-isolated", "p1", "--depth", "5"],
        ["analyze", "--family", "no-such-family"],
        ["build-verify", "--family", "rn(2,0)", "--isolated", "zz"],
        ["iso", "--left-family", "omega-chain", "--right-family",
         "omega-chain", "--depth", "6"],
        # inputs that should exit 2, 3, 5 and 2 or 3 (see known_failures.json)
        ["analyze"],
        ["build-verify", "--family", "rn(2,0)", "--depth", "1"],
        ["build-verify", "--family", "omega-chain", "--depth", "10"],
        ["analyze", "--family", "dyadic", "--horizon", "0"],
    ]
    return out


def make_ops(workload: str, seed: int, batch: int = 0,
             smoke: bool = False) -> list[dict]:
    """The workload's fixed batch, in an order shuffled by the seed and the
    batch's index in its run.  Peak memory depends on the order, so each
    batch of a run takes another one."""
    ops: list[dict] = []
    if workload == "axiom-suite":
        configs = AXIOM_CONFIGS[:1] if smoke else AXIOM_CONFIGS
        for name, kw, single in configs:
            for iso in ((), (single,)):
                ops.append({"key": f"axiom:{name}:iso={','.join(iso)}",
                            "kind": "axiom", "poset": name, "kw": kw,
                            "isolated": iso, "draw_seed": seed})
        if not smoke:
            ops.append({"key": "axiom:dyadic-demo", "kind": "dyadic",
                        "draw_seed": seed})
    elif workload == "self-iso":
        pairs = SELF_ISO_PAIRS[:2] + SELF_ISO_PAIRS[8:9] if smoke \
            else SELF_ISO_PAIRS
        for mseed in (MATCHER_SEEDS[:1] if smoke else MATCHER_SEEDS):
            for name, poset, left_iso, right_iso in pairs:
                ops.append({"key": f"self-iso:{name}:seed={mseed}",
                            "kind": "iso", "poset": poset,
                            "left_iso": left_iso, "right_iso": right_iso,
                            "matcher_seed": mseed})
    elif workload == "deep-build":
        builds = DEEP_BUILDS[:2] if smoke else DEEP_BUILDS
        for tag, depth in builds:
            ops.append({"key": f"deep:{tag}:{depth}", "kind": "deep",
                        "family": tag, "depth": depth})
    elif workload == "cli-mix":
        argvs = cli_argvs()
        if smoke:
            argvs = [a for a in argvs if a[0] == "analyze"][:3] + argvs[-2:]
        for argv in argvs:
            ops.append({"key": "cli:" + " ".join(argv), "kind": "cli",
                        "argv": argv})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{seed}:{batch}").shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# execution

def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


LAYOUT_CHUNK = 4096


def layout_digest(tree: st.SkeletonTree) -> str:
    """sha256 of the tree's layout, fed in chunks so that no structure of
    the whole tree, or of a whole level, is built.  The text is a header
    line ``<poset> <depth>``, then per level a line ``<level> <first
    unattached index>``, a line of its nodes' type ids and a line of their
    parents, each space-separated."""
    h = hashlib.sha256(f"{tree.poset.name} {tree.depth}\n".encode("utf-8"))
    id_at = tree.poset.id_at

    def line(values, show):
        for lo in range(0, len(values), LAYOUT_CHUNK):
            if lo:
                h.update(b" ")
            chunk = values[lo:lo + LAYOUT_CHUNK]
            h.update(" ".join(map(show, chunk)).encode("utf-8"))
        h.update(b"\n")

    for n, lvl in enumerate(tree.levels):
        ids = {t: id_at(t) for t in set(lvl.types)}
        h.update(f"{n} {lvl.u_start}\n".encode("utf-8"))
        line(lvl.types, ids.__getitem__)
        line(lvl.parent, str)
    return h.hexdigest()


def run_op(op: dict):
    """Run one op; return (start, end, summarize), where ``start`` and
    ``end`` are ``time.perf_counter()`` readings and ``summarize()`` gives
    the output summary.

    An exception out of the library is an outcome for the check to classify.
    """
    t0 = time.perf_counter()
    try:
        return _RUNNERS[op["kind"]](op)
    except Exception as e:
        failure = {"raised": type(e).__name__, "message": str(e)}
        return t0, time.perf_counter(), lambda: failure


def _axiom(op):
    t0 = time.perf_counter()
    cfg = st.BuildConfig(make_poset(op["poset"]), isolated=op["isolated"],
                         **op["kw"])
    tree = st.build_levels(cfg, AXIOM_DEPTH)
    tree.extend_to(AXIOM_DEPTH + 1)
    axioms = st.verify_type_axioms(tree, AXIOM_DEPTH, draws=AXIOM_DRAWS,
                                   seed=op["draw_seed"])
    structure = st.verify_structure(tree)
    t1 = time.perf_counter()
    return t0, t1, lambda: {"layout": layout_digest(tree),
                        "structure": digest(structure.to_json()),
                        "axioms": axioms}


def _dyadic(op):
    t0 = time.perf_counter()
    tree = st.build_levels(st.BuildConfig(st.family("dyadic")), AXIOM_DEPTH)
    tree.extend_to(AXIOM_DEPTH + 1)
    axioms = st.verify_type_axioms(tree, AXIOM_DEPTH, draws=AXIOM_DRAWS,
                                   seed=op["draw_seed"])
    path = st.realize_chain(tree, ["1/2", "3/4", "7/8"])
    label = st.label_prefix(path)
    t1 = time.perf_counter()
    return t0, t1, lambda: {"layout": layout_digest(tree),
                        "path": path.serialize(), "label": label.serialize(),
                        "axioms": axioms}


def _iso(op):
    t0 = time.perf_counter()
    poset = op["poset"]
    left = st.build_levels(st.BuildConfig(make_poset(poset),
                                          isolated=op["left_iso"]),
                           SELF_ISO_DEPTH)
    right = st.build_levels(st.BuildConfig(make_poset(poset),
                                           isolated=op["right_iso"]),
                            SELF_ISO_DEPTH)
    run = st.run_backforth(left, right, seed=op["matcher_seed"])
    t1 = time.perf_counter()
    return t0, t1, lambda: {"run": run.serialize()}


def _deep(op):
    t0 = time.perf_counter()
    tree = st.build_levels(st.BuildConfig(st.family(op["family"])),
                           op["depth"])
    structure = st.verify_structure(tree)
    t1 = time.perf_counter()
    return t0, t1, lambda: {"layout": layout_digest(tree),
                        "structure": digest(structure.to_json())}


def _cli(op):
    out, err = io.StringIO(), io.StringIO()
    raised = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = stonetrim.cli.main(list(op["argv"]))
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a traceback is an outcome the check classifies
        raised = type(e).__name__
    t1 = time.perf_counter()
    return t0, t1, lambda: _cli_summary(op["argv"][0], rc, raised,
                                        out.getvalue())


def _cli_summary(command, rc, raised, stdout):
    summary = {"exit": rc, "raised": raised,
               "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    if command == "iso" and rc in (0, 5):
        run = json.loads(stdout)
        summary["run"] = {k: run[k] for k in
                          ("status", "coverage", "invariant_failures")}
    if command == "build-verify" and rc == 0:
        report = json.loads(stdout)
        summary["passed"] = (report["structure"]["passed"]
                             and report["axioms"]["passed"])
    return summary


_RUNNERS = {"axiom": _axiom, "dyadic": _dyadic, "iso": _iso, "deep": _deep,
            "cli": _cli}
