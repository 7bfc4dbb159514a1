"""The CLI's exit-code contract over generated argv.

The README promises that every command exits 0, 2, 3, 4 or 5 on any
input.  The argv here are drawn from a fixed seed for all four commands:
family tags and small poset files, well-formed and malformed; ids that
are known, unknown and enumerated past ``--depth``; and option values in
range, on the edges and out of range.  A few drawn argv are spoiled
again, with an int option's value malformed or an unknown option added,
and argparse refuses each with exit 2.  Each argv runs twice in-process,
its poset files named bare from the suite's poset folder, and must exit
inside the contract with no exception escaping ``cli.main``, print JSON
that parses when its format is JSON, and print the same bytes on the
rerun.
"""
import json
import random

import pytest

from conftest import run_main, write_posets
from stonetrim import family

CONTRACT = {0, 2, 3, 4, 5}
SEED = 8

TAGS = ["omega-chain", "omega-antichain", "rn-infinity", "rn-infinity-bot",
        "dyadic", "ziegler-fan", "rn(0,0)", "rn(2,0)", "rn(4,2)"]
BAD_TAGS = ["nope", "rn(2)", "rn(x,0)", ""]
LADDERS = ["rn-infinity", "rn-infinity-bot", "rn(0,0)", "rn(3,0)",
           "rn(5,2)"]
INT_OPTIONS = {"--horizon", "--depth", "--max-depth", "--max-n", "--seed"}


def random_file(rng: random.Random, k: int) -> tuple[str, dict]:
    """A well-formed poset file: strict pairs sampled over a fixed
    topological order of e0..e<n-1>."""
    n = rng.randint(1, 5)
    ids = [f"e{i}" for i in range(n)]
    covers = [[ids[i], ids[j]] for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.4]
    return f"r{k}.json", {"name": f"r{k}", "elements": ids, "covers": covers}


def generate() -> tuple[dict[str, dict], list[list[str]], list[list[str]]]:
    """The random poset files, the argv of every command, and the spoiled
    copies of a few of those argv."""
    rng = random.Random(SEED)
    files, ids_of = {}, {}
    for k in range(6):
        name, doc = random_file(rng, k)
        files[name] = doc
        ids_of[name] = doc["elements"]
    for tag in TAGS:
        poset = family(tag)
        ids_of[tag] = poset.prefix(poset.size if poset.finite else 12)
    good = list(ids_of)
    # malformed poset files of the suite's table, and one that is not there
    bad = ["empty.json", "cycle.json", "badcover.json", "dup.json",
           "stranger.json", "nokey.json", "list.json", "text.json",
           "missing.json", *BAD_TAGS]

    def poset_name() -> str:
        return rng.choice(good if rng.random() < 0.8 else bad)

    def source(name: str, side: str = "") -> list[str]:
        """A file or a family tag, as the positional file or --family, or
        as --left / --left-family when side is "left"."""
        if name.endswith(".json"):
            return [f"--{side}", name] if side else [name]
        return [f"--{side}-family" if side else "--family", name]

    def some_ids(name: str) -> list[str]:
        """One to three ids: known ones, the last id enumerated, which
        lies past a small depth, or unknown ones."""
        known = ids_of.get(name) or ["a"]
        pool = known[:4] + known[-1:] + ["zz", "a0"]
        return rng.sample(pool, rng.randint(1, min(3, len(pool))))

    def value(inside: list[int], edge: list[int], outside: list[int]) -> str:
        """An option value: in range, on the edge or out of range."""
        r = rng.random()
        return str(rng.choice(inside if r < 0.7 else
                              edge if r < 0.9 else outside))

    def maybe(p: float, *args: str) -> list[str]:
        return list(args) if rng.random() < p else []

    out = []
    for _ in range(100):
        name = poset_name()
        argv = ["analyze", *source(name)]
        argv += maybe(0.5, "--horizon", value([3, 8, 20], [1], [0, -1]))
        for _ in range(rng.choice([0, 0, 1, 2])):
            argv += ["--subset", *some_ids(name)]
        out.append(argv)
    for _ in range(180):
        name = poset_name()
        argv = ["build-verify", *source(name), "--depth",
                value([3, 4, 5], [2], [1, 0, -1])]
        for flag in ("--isolated", "--pb", "--pu", "--pinf", "--q"):
            if rng.random() < 0.15:
                argv += [flag, *some_ids(name)]
        argv += maybe(0.3, "--horizon", value([4, 8], [1], [0, -2]))
        argv += maybe(0.3, "--seed", value([1, 7], [0], [-1]))
        argv += maybe(0.2, "--format", rng.choice(["json", "dot"]))
        out.append(argv)
    for _ in range(100):
        left = poset_name()
        right = left if rng.random() < 0.6 else poset_name()
        depth = int(value([3, 4], [3], [2, 1]))
        argv = ["iso", *source(left, "left"), *source(right, "right"),
                "--depth", str(depth)]
        argv += maybe(0.7, "--max-depth", value([depth + 1], [depth],
                                                [depth - 1]))
        for side, name in (("left", left), ("right", right)):
            for bucket in ("isolated", "pinf", "pu"):
                if rng.random() < 0.1:
                    argv += [f"--{side}-{bucket}", *some_ids(name)]
        argv += maybe(0.1, "--q", *some_ids(left))
        argv += maybe(0.3, "--seed", value([1, 2], [0], [-1]))
        out.append(argv)
    for _ in range(60):
        argv = ["closure", "--family",
                rng.choice(LADDERS + ["omega-chain"] + BAD_TAGS),
                "--max-n", value([3, 30], [0], [-1]),
                "--horizon", value([5, 12], [1], [0, -1])]
        argv += maybe(0.5, "--format", rng.choice(["json", "text", "dot"]))
        out.append(argv)

    def spoil(argv: list[str]) -> list[str]:
        """argv with an int option's value malformed, or with an unknown
        option added."""
        values = [i + 1 for i, a in enumerate(argv) if a in INT_OPTIONS]
        if values and rng.random() < 0.5:
            i = rng.choice(values)
            return [*argv[:i], "x", *argv[i + 1:]]
        return [*argv, "--bogus"]

    return files, out, [spoil(argv) for argv in out if rng.random() < 0.05]


FILES, ARGV, SPOILED = generate()
write_posets(FILES)

# inputs that once broke the contract: past the level-size bound a
# BuildError escaped build-verify with a traceback, where it now exits 5
BREAKS = [
    ["build-verify", "--family", "omega-chain", "--depth", "9"],
    ["build-verify", "--family", "rn(2,0)", "--depth", "16"],
]


def assert_in_contract(argv: list[str]) -> None:
    code, out, err = run_main(argv)
    assert code in CONTRACT, (code, err)
    assert "Traceback" not in err
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        if out:
            json.loads(out)
    assert run_main(argv) == (code, out, err)


def test_the_argv_are_drawn_alike_on_every_run():
    assert generate() == (FILES, ARGV, SPOILED)
    commands = {"analyze", "build-verify", "iso", "closure"}
    assert {a[0] for a in ARGV} == {a[0] for a in SPOILED} == commands


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_generated_argv_keeps_the_contract(argv):
    assert_in_contract(argv)


@pytest.mark.parametrize("argv", SPOILED, ids=" ".join)
def test_argparse_refuses_a_spoiled_argv(argv):
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: stonetrim ") and "Traceback" not in err


@pytest.mark.parametrize("argv", BREAKS, ids=" ".join)
def test_known_breaks(argv):
    assert_in_contract(argv)
