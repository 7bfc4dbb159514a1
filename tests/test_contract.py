"""The CLI's exit-code contract over generated argv.

The README promises that every command exits 0, 2, 3, 4 or 5 on any
input.  The argv here are drawn from a fixed seed for all four commands:
family tags and small poset files, well-formed and malformed; ids that
are known, unknown and enumerated past ``--depth``; and option values in
range, on the edges and out of range.  Each argv runs twice in-process,
its poset files named bare and resolved in a temporary directory, and
must exit inside the contract with no exception escaping ``cli.main``,
print JSON that parses when its format is JSON, and print the same bytes
on the rerun.
"""
import contextlib
import io
import json
import os
import random

import pytest

from stonetrim import cli, family

CONTRACT = {0, 2, 3, 4, 5}
SEED = 8

TAGS = ["omega-chain", "omega-antichain", "rn-infinity", "rn-infinity-bot",
        "dyadic", "ziegler-fan", "rn(0,0)", "rn(2,0)", "rn(4,2)"]
BAD_TAGS = ["nope", "rn(2)", "rn(x,0)", ""]
LADDERS = ["rn-infinity", "rn-infinity-bot", "rn(0,0)", "rn(3,0)",
           "rn(5,2)"]

# malformed poset files, each as the text written; missing.json is never
# written
BAD_FILES = {
    "empty.json": '{"name": "e", "elements": [], "covers": []}',
    "cycle.json": '{"name": "c", "elements": ["a", "b"], '
                  '"covers": [["a", "b"], ["b", "a"]]}',
    "badcover.json": '{"name": "x", "elements": ["a", "b"], '
                     '"covers": [[["a"], "b"]]}',
    "dup.json": '{"name": "d", "elements": ["a", "a"], "covers": []}',
    "stranger.json": '{"name": "s", "elements": ["a"], '
                     '"covers": [["a", "z"]]}',
    "nokey.json": '{"name": "k", "elements": ["a"]}',
    "list.json": '[["a", "b"]]',
    "text.json": '{"name": ',
}


def random_file(rng: random.Random, k: int) -> tuple[str, dict]:
    """A well-formed poset file: strict pairs sampled over a fixed
    topological order of e0..e<n-1>."""
    n = rng.randint(1, 5)
    ids = [f"e{i}" for i in range(n)]
    covers = [[ids[i], ids[j]] for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.4]
    return f"r{k}.json", {"name": f"r{k}", "elements": ids, "covers": covers}


def generate() -> tuple[dict[str, str], list[list[str]]]:
    """The poset files, as their texts, and the argv of every command."""
    rng = random.Random(SEED)
    files = dict(BAD_FILES)
    ids_of = {}
    for k in range(6):
        name, doc = random_file(rng, k)
        files[name] = json.dumps(doc)
        ids_of[name] = doc["elements"]
    for tag in TAGS:
        poset = family(tag)
        ids_of[tag] = poset.prefix(poset.size if poset.finite else 12)
    good = list(ids_of)
    bad = list(BAD_FILES) + ["missing.json"] + BAD_TAGS

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
    return files, out


FILES, ARGV = generate()

# inputs that once broke the contract: past the level-size bound a
# BuildError escaped build-verify with a traceback, where it now exits 5
BREAKS = [
    ["build-verify", "--family", "omega-chain", "--depth", "9"],
    ["build-verify", "--family", "rn(2,0)", "--depth", "16"],
]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    for name, text in FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    return str(path)


def run(argv: list[str], folder: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; argparse's exit
    is read off its SystemExit, and any other exception escapes."""
    args = [os.path.join(folder, a) if a.endswith(".json") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def assert_in_contract(argv: list[str], folder: str) -> None:
    code, out, err = run(argv, folder)
    assert code in CONTRACT, (code, err)
    assert "Traceback" not in err
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        if out:
            json.loads(out)
    assert run(argv, folder) == (code, out, err)


def test_the_argv_are_drawn_alike_on_every_run():
    assert generate() == (FILES, ARGV)
    assert {a[0] for a in ARGV} == {"analyze", "build-verify", "iso",
                                    "closure"}


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_generated_argv_keeps_the_contract(argv, folder):
    assert_in_contract(argv, folder)


@pytest.mark.parametrize("argv", BREAKS, ids=" ".join)
def test_known_breaks(argv, folder):
    assert_in_contract(argv, folder)
