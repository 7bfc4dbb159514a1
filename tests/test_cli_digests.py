"""Every CLI output of a fixed argv sweep, pinned byte for byte.

``corpus()`` lists the sweep: ``analyze`` on every family at several
horizons, on rn(m,0) and rn(m,2) up to m = 200 and on poset files with
``--subset``; ``build-verify`` with isolation, bucket and ``--q`` variants;
``closure`` in json, text and dot; and ``iso`` over family and file pairs
at depths 3-5 and seeds 0-2, and over searched pairs at depths 5 and 6.  Each argv runs through ``cli.main`` in
process.  ``tests/cli_digests.json`` holds, per argv joined by spaces, the
exit code and the sha256 of stdout and of stderr; a command that raises
holds its exception's type and message instead of an exit code, so no
source path or line number is pinned.

Poset files are written from ``FILES`` into a temporary directory, and an
argv names them by their bare file name, so no path reaches an output.
The pinned file is rewritten only by a change that declares moved outputs
and lists every moved argv.  Run this module as a script to print the
digests of the program on the path.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

from stonetrim import cli

PINNED = os.path.join(os.path.dirname(__file__), "cli_digests.json")

FILES = {
    "one.json": {"name": "one", "elements": ["a"], "covers": []},
    "ab.json": {"name": "ab", "elements": ["a", "b"], "covers": [["a", "b"]]},
    "xy.json": {"name": "xy", "elements": ["x", "y"], "covers": [["x", "y"]]},
    "abc.json": {"name": "abc", "elements": ["a", "b", "c"],
                 "covers": [["a", "b"], ["b", "c"]]},
    "vee.json": {"name": "vee", "elements": ["a", "b", "c"],
                 "covers": [["a", "b"], ["a", "c"]]},
    "wedge.json": {"name": "wedge", "elements": ["a", "b", "c"],
                   "covers": [["b", "a"], ["c", "a"]]},
    "diamond.json": {"name": "diamond", "elements": ["a", "b", "c", "d"],
                     "covers": [["a", "b"], ["a", "c"], ["b", "d"],
                                ["c", "d"]]},
    "crown.json": {"name": "crown",
                   "elements": ["a1", "a2", "a3", "b1", "b2", "b3"],
                   "covers": [["a1", "b2"], ["a1", "b3"], ["a2", "b1"],
                              ["a2", "b3"], ["a3", "b1"], ["a3", "b2"]]},
    "forest.json": {"name": "forest",
                    "elements": ["r", "s", "t", "u", "v", "w", "x"],
                    "covers": [["r", "s"], ["r", "t"], ["s", "u"],
                               ["t", "u"], ["v", "w"], ["u", "x"],
                               ["w", "x"]]},
    "empty.json": {"name": "e", "elements": [], "covers": []},
    "cycle.json": {"name": "cyc", "elements": ["a", "b"],
                   "covers": [["a", "b"], ["b", "a"]]},
    "badcover.json": {"name": "x", "elements": ["a", "b"],
                      "covers": [[["a"], "b"]]},
    "dup.json": {"name": "d", "elements": ["a", "a"], "covers": []},
    "v3.json": {"name": "v3", "elements": ["e0", "e1", "e2"],
                "covers": [["e0", "e1"]]},
}


def _formula(name: str, n: int, gaps: tuple[int, ...]) -> dict:
    """A poset file on e1..en with a cover i < j whenever j - i is one of
    gaps and i + j is not a multiple of 4."""
    return {"name": name, "elements": [f"e{i}" for i in range(1, n + 1)],
            "covers": [[f"e{i}", f"e{i + g}"] for i in range(1, n + 1)
                       for g in gaps if i + g <= n and (2 * i + g) % 4]}


FILES.update({"f8.json": _formula("f8", 8, (1, 3)),
              "f12.json": _formula("f12", 12, (2, 3)),
              "f30.json": _formula("f30", 30, (1, 4, 7))})
FILE_POSETS = ["one", "ab", "abc", "vee", "wedge", "diamond", "crown",
               "forest", "f8", "f12", "f30"]
BAD_FILES = ["empty", "cycle", "badcover", "dup"]

INFINITE = ["omega-chain", "omega-antichain", "rn-infinity",
            "rn-infinity-bot", "dyadic", "ziegler-fan"]
LADDERS = ["rn-infinity", "rn-infinity-bot"]

# one or two ids of each family to isolate, bucket or ask about
SOME = {"omega-chain": ["p2", "p1"], "omega-antichain": ["a2", "a5"],
        "rn-infinity": ["p1", "p0"], "rn-infinity-bot": ["p0", "bot"],
        "dyadic": ["1/2", "0"], "ziegler-fan": ["q", "m2"],
        "rn(0,0)": ["p0", "p0"], "rn(1,2)": ["p1", "p3"],
        "rn(2,0)": ["p1", "p0"], "rn(2,2)": ["p4", "p2"],
        "rn(4,2)": ["p2", "p6"], "rn(10,0)": ["p3", "p10"]}


def _analyze() -> list[list[str]]:
    out = [["analyze", "--family", f, "--horizon", str(h)]
           for f in INFINITE for h in [*range(1, 13), 20, 50]]
    out += [["analyze", "--family", f"rn({m},{v})"]
            for m in [*range(13), 20, 40, 100, 200] for v in (0, 2)]
    out += [["analyze", "--family", f, "--subset", *ids]
            for f, ids in SOME.items()]
    out += [["analyze", "--family", f, "--horizon", "5", "--subset", a,
             "--subset", b] for f, (a, b) in SOME.items()]
    out += [
        ["analyze", "--family", "omega-chain", "--subset", "p3", "p5"],
        ["analyze", "--family", "omega-antichain", "--subset", "a1", "a4",
         "--subset", "a2"],
        ["analyze", "--family", "rn-infinity", "--horizon", "6",
         "--subset", "p2", "--subset", "p0", "p4"],
        ["analyze", "--family", "dyadic", "--horizon", "10",
         "--subset", "1/2", "3/4"],
        ["analyze", "--family", "ziegler-fan", "--subset", "q", "m2",
         "--horizon", "12"],
        ["analyze", "--family", "omega-chain", "--horizon", "4", "--subset",
         "p9"],
        ["analyze", "--family", "rn(2,0)", "--subset", "zz", "yy", "xx"],
        ["analyze", "--family", "omega-chain", "--horizon", "0"],
        ["analyze", "--family", "nope"],
    ]
    out += [["analyze", f"{name}.json"] for name in FILE_POSETS + BAD_FILES]
    out += [
        ["analyze", "vee.json", "--subset", "b", "c", "--subset", "a"],
        ["analyze", "diamond.json", "--subset", "d"],
        ["analyze", "crown.json", "--subset", "b1", "b2", "--subset", "a3"],
        ["analyze", "forest.json", "--subset", "x", "--subset", "s", "w"],
        ["analyze", "forest.json", "--subset", "q"],
        ["analyze", "f8.json", "--subset", "e8", "--subset", "e5", "e6"],
        ["analyze", "f12.json", "--subset", "e12", "e11", "--subset", "e1"],
        ["analyze", "f30.json", "--subset", "e30", "--subset", "e17", "e9",
         "e3"],
    ]
    return out


def _build_verify() -> list[list[str]]:
    out = []
    for f, (p, r) in SOME.items():
        out += [["build-verify", "--family", f, "--depth", str(d)]
                for d in range(2, 7)]
        for d in ("3", "5"):
            out += [
                ["build-verify", "--family", f, "--depth", d, "--isolated",
                 p],
                ["build-verify", "--family", f, "--depth", d, "--pb", p],
                ["build-verify", "--family", f, "--depth", d, "--pu", p],
                ["build-verify", "--family", f, "--depth", d, "--pinf", p],
                ["build-verify", "--family", f, "--depth", d, "--q", p],
                ["build-verify", "--family", f, "--depth", d, "--q", p, r],
                ["build-verify", "--family", f, "--depth", d, "--isolated",
                 r, "--pinf", p],
                ["build-verify", "--family", f, "--depth", d, "--pb", r,
                 "--pu", p, "--seed", "1"],
            ]
        out += [["build-verify", "--family", f, "--depth", "4", "--seed",
                 "2", "--format", "dot"]]
    for name in FILE_POSETS + BAD_FILES:
        out += [["build-verify", f"{name}.json", "--depth", d]
                for d in ("3", "5")]
    out += [
        ["build-verify", "vee.json", "--depth", "5", "--isolated", "b",
         "--pinf", "a", "c"],
        ["build-verify", "vee.json", "--depth", "4", "--pu", "b", "--q",
         "a", "b"],
        ["build-verify", "vee.json", "--depth", "5", "--isolated", "b", "c"],
        ["build-verify", "diamond.json", "--depth", "4", "--pb", "d",
         "--q", "a"],
        ["build-verify", "diamond.json", "--depth", "4", "--q", "zz"],
        ["build-verify", "crown.json", "--depth", "4", "--pinf", "b1",
         "--isolated", "a1", "--format", "dot"],
        ["build-verify", "forest.json", "--depth", "5", "--isolated", "x",
         "--seed", "2"],
        ["build-verify", "f12.json", "--depth", "4", "--pu", "e12", "--q",
         "e1", "e2"],
        ["build-verify", "--family", "rn(2,0)", "--depth", "4",
         "--isolated", "zz", "yy", "xx"],
        ["build-verify", "--family", "rn(2,0)", "--depth", "1"],
        ["build-verify", "--family", "rn-infinity", "--depth", "4", "--q",
         "p0"],
        ["build-verify", "--family", "omega-antichain", "--depth", "3",
         "--q", "a6"],
        ["build-verify", "--family", "rn-infinity-bot", "--depth", "6",
         "--pu", "p0"],
        ["build-verify", "--family", "ziegler-fan", "--depth", "6",
         "--pinf", "q"],
        ["build-verify", "--family", "dyadic", "--depth", "7", "--format",
         "dot"],
        ["build-verify", "--family", "omega-chain", "--depth", "8"],
        # past the level-size bound the build raises
        ["build-verify", "--family", "omega-chain", "--depth", "9"],
        ["build-verify", "--family", "omega-chain", "--depth", "10"],
    ]
    return out


def _closure() -> list[list[str]]:
    out = [["closure", "--family", f, "--format", fmt]
           for f in LADDERS + [f"rn({m},{v})" for m in range(11)
                               for v in (0, 2)]
           for fmt in ("json", "text", "dot")]
    out += [["closure", "--family", f, "--max-n", n, "--horizon", h]
            for f in LADDERS + ["rn(3,0)", "rn(20,2)"]
            for n in ("0", "5", "40") for h in ("1", "3", "20")]
    out += [
        ["closure", "--family", "rn(200,0)", "--max-n", "10"],
        ["closure", "--family", "omega-chain"],
        ["closure", "--family", "nope"],
        ["closure", "--family", "rn(2,0)", "--max-n", "-1"],
    ]
    return out


def _iso() -> list[list[str]]:
    pairs = [["--left-family", a, "--right-family", b] for a, b in [
        ("rn(2,0)", "rn(2,0)"), ("rn(2,2)", "rn(2,2)"),
        ("rn(4,2)", "rn(4,2)"), ("omega-chain", "omega-chain"),
        ("omega-antichain", "omega-antichain"),
        ("rn-infinity", "rn-infinity"), ("dyadic", "dyadic"),
        ("ziegler-fan", "ziegler-fan"), ("rn(2,0)", "rn(2,2)"),
        ("rn-infinity", "rn-infinity-bot")]]
    pairs += [["--left", f"{a}.json", "--right", f"{b}.json"] for a, b in [
        ("one", "one"), ("vee", "vee"), ("diamond", "diamond"),
        ("crown", "crown"), ("f8", "f8"), ("ab", "abc"), ("vee", "wedge"),
        ("abc", "ab")]]
    out = [["iso", *sides, "--depth", d, "--seed", s]
           for sides in pairs for d in ("3", "4", "5") for s in ("0", "1", "2")]
    for f, (p, _) in SOME.items():
        if f in ("rn(10,0)", "rn(0,0)"):
            continue
        out += [["iso", "--left-family", f, "--right-family", f,
                 f"--{side}-{bucket}", p, "--depth", "4", "--seed", s]
                for side, bucket in [("left", "isolated"), ("right", "pinf"),
                                     ("left", "pu")]
                for s in ("0", "1")]
    out += [
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)",
         "--left-isolated", "p1", "--depth", "5"],
        ["iso", "--left", "one.json", "--right", "one.json",
         "--left-isolated", "a", "--depth", "3"],
        ["iso", "--left", "vee.json", "--right", "vee.json",
         "--left-pinf", "b", "--right-pinf", "b", "--depth", "4",
         "--seed", "1"],
        ["iso", "--left", "vee.json", "--right", "vee.json",
         "--left-pinf", "b", "--right-pu", "b", "--depth", "4"],
        ["iso", "--left", "ab.json", "--right", "xy.json", "--depth", "3"],
        ["iso", "--left-family", "omega-chain", "--right-family",
         "omega-chain", "--depth", "4", "--max-depth", "4"],
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)",
         "--depth", "3", "--q", "p1"],
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)",
         "--depth", "3", "--q", "zz"],
        ["iso", "--left-family", "rn(2,0)", "--depth", "3"],
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)",
         "--depth", "2"],
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)",
         "--depth", "4", "--max-depth", "3"],
        ["iso", "--left", "badcover.json", "--right", "vee.json",
         "--depth", "3"],
        ["iso", "--left", "vee.json", "--right", "empty.json",
         "--depth", "3"],
    ]
    # every element isolated on both sides: these certify by equal rules;
    # with e1 noncompact on the right too the rules differ, and the search
    # reaches the matcher's refinement of a trim part with two atoms of
    # its isolated generator (split_by_scarce_atoms)
    out += [["iso", "--left", "v3.json", "--right", "v3.json",
             "--left-isolated", "e0", "e1", "e2", "--right-isolated", "e0",
             "e1", "e2", "--depth", "5", "--seed", s] for s in ("0", "1", "2")]
    out += [["iso", "--left", "v3.json", "--right", "v3.json",
             "--left-isolated", "e0", "e1", "e2", "--right-isolated", "e0",
             "e1", "e2", "--right-pinf", "e1", "--depth", "5", "--seed", s]
            for s in ("0", "1")]
    # searched pairs whose sides' buckets differ, and a pair whose posets
    # differ past the span a shallow schedule checks
    out += [
        ["iso", "--left-family", "omega-chain", "--right-family",
         "omega-chain", "--right-pu", "p5", "--horizon", "5", "--depth", "5"],
        ["iso", "--left-family", "ziegler-fan", "--right-family",
         "ziegler-fan", "--right-pinf", "m1", "--depth", "5"],
        ["iso", "--left", "diamond.json", "--right", "diamond.json",
         "--right-pinf", "d", "--depth", "6", "--seed", "1"],
        ["iso", "--left", "vee.json", "--right", "vee.json", "--left-pinf",
         "b", "--right-pu", "b", "--depth", "6", "--seed", "1"],
        ["iso", "--left", "vee.json", "--right", "vee.json", "--left-pinf",
         "b", "--right-pu", "b", "--depth", "6", "--max-depth", "6"],
        ["iso", "--left", "ab.json", "--right", "abc.json", "--depth", "3"],
    ]
    return out


def corpus() -> list[list[str]]:
    """The pinned argv list, in a fixed order with no repeats."""
    return _analyze() + _build_verify() + _closure() + _iso()


def run(argv: list[str], folder: str) -> dict:
    """Exit code, or the raised exception's type and message, and the
    sha256 of stdout and of stderr, of one in-process run whose file
    arguments are resolved inside folder."""
    args = [os.path.join(folder, a) if a.endswith(".json") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = {"exit": cli.main(args)}
        except Exception as e:
            got = {"raised": f"{type(e).__name__}: {e}"}
    for name, stream in (("stdout", out), ("stderr", err)):
        got[name] = hashlib.sha256(stream.getvalue().encode()).hexdigest()
    return got


def cli_digests() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as folder:
        for name, doc in FILES.items():
            with open(os.path.join(folder, name), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh)
        return {" ".join(argv): run(argv, folder) for argv in corpus()}


def test_every_cli_output_is_pinned():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    keys = [" ".join(argv) for argv in corpus()]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(pinned)
    got = cli_digests()
    assert [k for k in keys if got[k] != pinned[k]] == []


if __name__ == "__main__":
    print(json.dumps(cli_digests(), indent=1))
