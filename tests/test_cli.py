"""End-to-end CLI runs.

Every test runs the CLI in process through ``conftest.run_main``, and
names its poset files from the one table, ``conftest.POSET_FILES``.  A
test launches a process only where it needs one: for a stdout that
refuses the output, for an environment variable the interpreter reads at
start-up, or for a hard time limit.
"""
import errno
import json
import os
import shutil
import subprocess
import sys

import pytest

import stonetrim
from conftest import POSET_FILES, run_main
from stonetrim import FOUND, cli
from stonetrim.skeleton import equal_rules
from test_contract import ARGV

# the child imports the same stonetrim as this process, installed or not
SRC = os.path.dirname(os.path.dirname(stonetrim.__file__))


def child(argv, env=None, launcher=()) -> tuple[list[str], dict]:
    """The command line and environment of a CLI run in a child process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return ([*launcher, sys.executable, "-m", "stonetrim.cli", *argv],
            {**os.environ, "PYTHONPATH": path, **(env or {})})


def run_cli(*argv, timeout=None, env=None, stdout=subprocess.PIPE,
            launcher=()):
    command, env = child(argv, env, launcher)
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, env=env)


# runs its arguments with fd 1 closed
CLOSED_STDOUT = ("sh", "-c", 'exec "$@" >&-', "sh")


def unwritable() -> list[list[str]]:
    """Contract argv on family tags that exit 0 with output, the first
    drawn for each command and each format (json, text, dot) that no
    earlier pick covers."""
    kinds = {"analyze", "build-verify", "iso", "closure", "json", "text",
             "dot"}
    picked = []
    for argv in ARGV:
        fmt = (argv[argv.index("--format") + 1] if "--format" in argv
               else "json")
        if (kinds & {argv[0], fmt}
                and not any(a.endswith(".json") for a in argv)
                and run_main(argv)[0] == 0):
            picked.append(argv)
            kinds -= {argv[0], fmt}
    assert not kinds, kinds
    return picked


UNWRITABLE = unwritable()
HELP = [[command, "--help"]
        for command in ("analyze", "build-verify", "iso", "closure")]


@pytest.fixture
def searched(monkeypatch):
    """``iso`` with the rules of every pair reported apart, so every pair
    is built and matched by ``run_backforth``."""
    monkeypatch.setattr(cli, "equal_rules", lambda *args: (1, "block", 1))


def sides_of(left: str, right: str) -> list[str]:
    """``iso`` sides: a name of the poset-file table as ``--left`` or
    ``--right`` with its file, else a family tag."""
    argv = []
    for side, name in (("left", left), ("right", right)):
        argv += ([f"--{side}", f"{name}.json"]
                 if f"{name}.json" in POSET_FILES
                 else [f"--{side}-family", name])
    return argv


def assert_refused_output(proc, reason: str) -> None:
    """Exit 5 with one stderr line naming the failed write, and neither a
    traceback nor an ignored exception at interpreter exit."""
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.splitlines() == [f"cannot write to stdout: {reason}"]


class TestAnalyze:
    def test_finite_family_report(self):
        code, out, _ = run_main(["analyze", "--family", "rn(2,0)"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"poset", "horizon", "minimal", "maximal",
                            "extremal_exact", "p_delta", "p_delta_exact",
                            "acc", "omega_complete", "completion"}
        assert doc["horizon"] == 3
        assert doc["minimal"] == ["p1", "p2"]
        assert doc["maximal"] == ["p0", "p1"]
        assert doc["completion"] == {"elements": 3, "tokens": []}
        assert doc["acc"]["status"] == "holds"

    def test_subset_foundations(self):
        code, out, _ = run_main(["analyze", "--family", "dyadic", "--horizon",
                                 "9", "--subset", "1/2", "3/4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["foundations"] == [{
            "subset": ["1/2", "3/4"], "status": FOUND, "foundation": ["0"],
            "note": "the bottom element founds every subset"}]

    def test_dyadic_top_outside_the_prefix(self):
        # the top "1" is enumerated second, so horizon 1 has not seen it
        code, out, err = run_main(["analyze", "--family", "dyadic",
                                   "--horizon", "1"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["minimal"] == ["0"] and doc["maximal"] == []
        _, out, _ = run_main(["analyze", "--family", "dyadic", "--horizon",
                              "2"])
        assert json.loads(out)["maximal"] == ["1"]

    def test_poset_file(self):
        code, out, _ = run_main(["analyze", "diamond.json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["poset"] == "diamond"
        assert doc["minimal"] == ["a"] and doc["maximal"] == ["d"]

    def test_unreadable_input(self):
        code, _, err = run_main(["analyze", "missing.json"])
        assert code == 2
        assert "cannot load poset" in err

    def test_unknown_family(self):
        assert run_main(["analyze", "--family", "nope"])[0] == 2

    def test_long_chain_horizon_finishes(self):
        proc = run_cli("analyze", "--family", "omega-chain", "--horizon",
                       "22", timeout=60)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["completion"] == {
            "elements": 23,
            "tokens": ["lim(" + ",".join(f"p{k}" for k in range(1, 23)) + ")"]}

    def test_chain_past_the_recursion_limit(self):
        proc = run_cli("analyze", "--family", "omega-chain", "--horizon",
                       "1200", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["acc"]["status"] == "refuted"

    def test_ladder_completion_is_not_a_chain_enumeration(self):
        # the maximal chains of this prefix number far past memory; the
        # completion asks only for each top's first chain
        proc = run_cli("analyze", "--family", "rn-infinity", "--horizon",
                       "200", timeout=60)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["completion"] == {"elements": 200, "tokens": []}


class TestBuildVerify:
    def test_report_shape(self):
        code, out, _ = run_main(["build-verify", "--family", "rn(2,0)",
                                 "--depth", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["level_sizes"] == [1, 3, 7, 15, 32]
        assert doc["structure"]["passed"] is True
        assert doc["axioms"]["passed"] is True

    def test_byte_identical_reruns(self):
        argv = ["build-verify", "--family", "rn(2,2)", "--depth", "5"]
        a, b = run_main(argv), run_main(argv)
        assert a[0] == b[0] == 0
        assert a[1] == b[1]

    def test_dot_format(self):
        code, out, _ = run_main(["build-verify", "--family", "rn(2,0)",
                                 "--depth", "3", "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph skeleton {")

    def test_config_rejection(self):
        code, _, err = run_main(["build-verify", "--family", "rn-infinity",
                                 "--pb", "p0", "--depth", "4"])
        assert code == 3
        assert "bounded-not-lower" in err
        assert "bounded-outside-delta" in err

    @pytest.mark.parametrize("family,q", [("rn-infinity", "p0"),
                                          ("ziegler-fan", "q")])
    def test_failed_structure_exits_four(self, family, q):
        # neither q has a finite foundation, so the covering check fails
        code, out, err = run_main(["build-verify", "--family", family,
                                   "--depth", "4", "--q", q])
        assert code == 4, err
        doc = json.loads(out)
        assert doc["structure"]["passed"] is False
        assert doc["axioms"]["passed"] is True
        assert [c["name"] for c in doc["structure"]["checks"]
                if not c["passed"]] == ["cover-foundation"]

    # the laws read levels 1..depth only, so a depth whose next level is
    # over the level-size bound still reports
    @pytest.mark.parametrize("family,depth", [("omega-chain", "8"),
                                              ("dyadic", "9"),
                                              ("rn-infinity", "13")])
    def test_depth_next_to_the_level_bound(self, family, depth):
        code, out, err = run_main(["build-verify", "--family", family,
                                   "--depth", depth])
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["level_sizes"]) == int(depth)
        assert doc["structure"]["passed"] is True
        assert doc["axioms"]["passed"] is True

    @pytest.mark.parametrize("family, depth, message", [
        ("omega-chain", "9", "level 9 would hold 103049 nodes"),
        ("omega-chain", "10", "level 9 would hold 103049 nodes"),
        ("rn(2,0)", "16", "level 16 would hold 110592 nodes")])
    def test_past_the_level_bound_exits_five(self, family, depth, message):
        proc = run_cli("build-verify", "--family", family, "--depth", depth,
                       timeout=60)
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"{message}, over the bound 65536"]

    def test_foundation_past_the_depth_passes_vacuously(self):
        # omega-antichain's a6 is founded at level 6, past depth 3, so no
        # level of the tree can show a covered type escaping
        code, out, err = run_main(["build-verify", "--family",
                                   "omega-antichain", "--depth", "3", "--q",
                                   "a6"])
        assert code == 0, err
        checks = json.loads(out)["structure"]["checks"]
        assert {"name": "covered-types-descend", "passed": True,
                "detail": ""} in checks

    def test_failed_laws_exit_four(self, monkeypatch):
        from stonetrim import ring
        monkeypatch.setattr(ring, "verify_type_axioms",
                            lambda *args, **kwargs: {"passed": False})
        code, out, _ = run_main(["build-verify", "--family", "rn(2,0)",
                                 "--depth", "3"])
        assert code == 4
        doc = json.loads(out)
        assert doc["structure"]["passed"] is True
        assert doc["axioms"] == {"passed": False}


class TestIso:
    def test_identical_sides(self, searched):
        code, out, _ = run_main(["iso", "--left-family", "rn(2,0)",
                                 "--right-family", "rn(2,0)", "--depth", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "iso"
        assert doc["coverage"] is True
        assert doc["invariant_failures"] == []
        assert doc["witness"] is None
        assert doc["steps"] > 0

    @pytest.mark.parametrize("family, depth", [("rn(2,0)", "6"),
                                               ("omega-chain", "6"),
                                               ("omega-chain", "12")])
    def test_equal_rules_certify_without_a_search(self, family, depth):
        # omega-chain's level 9 is over the level-size bound, which the
        # search reaches by depth 6 and a build by depth 9
        proc = run_cli("iso", "--left-family", family, "--right-family",
                       family, "--depth", depth, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "status": "iso", "coverage": True, "invariant_failures": [],
            "witness": None, "pairs": 0, "steps": 0,
            "depth_used": int(depth),
            "note": f"equal-rules: the identity on atoms matches the builds "
                    f"to depth {depth}"}

    def test_equal_rules_build_no_tree_and_read_no_seed(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an equal-rules pair built a tree")
        monkeypatch.setattr(cli.SkeletonTree, "__init__", refused)
        runs = [run_main(["iso", "--left-family", "omega-chain",
                          "--right-family", "omega-chain", "--depth", "30",
                          "--seed", seed]) for seed in ("0", "1", "7")]
        assert runs == [runs[0]] * 3
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        assert json.loads(out)["depth_used"] == 30

    def test_mismatch_exit_code(self):
        code, out, _ = run_main(["iso", "--left-family", "rn(2,0)",
                                 "--right-family", "rn(2,0)",
                                 "--left-isolated", "p1", "--depth", "6"])
        assert code == 4
        doc = json.loads(out)
        assert doc["status"] == "mismatch"
        assert doc["witness"]["type"] == "p1"

    # an isolation difference at shallow depths, where the schedule may
    # never split the isolated pair: a one-point space against the Cantor
    # set, and rn(2,0) with p0 isolated against rn(2,0); the uniqueness
    # theorem says they differ
    @pytest.mark.parametrize("family, isolated, depth, seed", [
        (None, "a", 3, 0),
        ("rn(2,0)", "p0", 3, 0),
        ("rn(2,0)", "p0", 3, 1),
        ("rn(2,0)", "p0", 3, 2),
        ("rn(2,0)", "p0", 4, 0),
    ])
    def test_an_isolation_difference_exits_four(self, family, isolated, depth,
                                                seed):
        sides = sides_of(family or "one", family or "one")
        code, out, err = run_main(["iso", *sides, "--left-isolated", isolated,
                                   "--depth", str(depth), "--seed", str(seed)])
        assert code == 4, err
        doc = json.loads(out)
        assert doc["status"] == "mismatch"
        witness = doc["witness"]
        assert (witness["side"], witness["type"], witness["available"]) \
            == ("left", isolated, 1)
        assert witness["needed"] > 1
        assert witness["reason"] == ("isolated type cannot multiply inside "
                                     "a part typed exactly by it")

    # only the left side isolates the type, so by the uniqueness theorem
    # the two spaces differ, yet both runs certify: p6 first appears past
    # level 5, so the rules agree to depth 5, and the p5 pair is searched
    # and certified after 13 steps
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 29: a certified iso run does not yet check that both "
        "sides isolate the same types"))
    @pytest.mark.parametrize("isolated", ["p6", "p5"])
    def test_one_sided_isolation_exits_four(self, isolated):
        code, out, _ = run_main(["iso", "--left-family", "omega-chain",
                                 "--right-family", "omega-chain",
                                 "--left-isolated", isolated, "--depth", "5"])
        assert code == 4, out

    # a finite side shorter than the other never certifies: the shallow
    # depths certified before the posets were compared past the span, the
    # deepest one mismatched during the schedule with the same witness
    @pytest.mark.parametrize("left, right, depths, side, missing", [
        ("ab", "abc", (3, 4, 5), "left", "c"),
        ("omega-chain", "c3", (3, 4, 5, 6), "right", "p4"),
        ("vee", "veed", (3, 4, 5, 6), "left", "d"),
    ])
    def test_a_difference_past_the_span_exits_four(self, left, right, depths,
                                                   side, missing):
        for depth in depths:
            for seed in (0, 1, 2):
                code, out, _ = run_main(["iso", *sides_of(left, right),
                                         "--depth", str(depth), "--seed",
                                         str(seed)])
                assert code == 4, (depth, seed)
                doc = json.loads(out)
                assert doc["status"] == "mismatch"
                assert doc["witness"] == {
                    "side": side, "type": missing, "needed": 1,
                    "available": 0,
                    "reason": "type has no counterpart in the other "
                              "alphabet"}

    def test_an_order_difference_past_the_span_exits_three(self):
        # finite sides of one size are checked whole; at depth 4 the span
        # already holds d
        for depth in (3, 4):
            for seed in (0, 1, 2):
                code, out, err = run_main(["iso", *sides_of("veed", "veedc"),
                                           "--depth", str(depth), "--seed",
                                           str(seed)])
                assert code == 3
                assert out == ""
                assert err.splitlines() == [
                    "the bijection breaks order at ('b', 'd')"]

    # each refused by a check of the matcher's setup or close, or by the
    # config; equal says whether the rules agree, so that the certificate
    # refuses it where the search would have
    @pytest.mark.parametrize("left, right, extra, code, equal", [
        ("rn-infinity", "rn-infinity", [], 3, True),
        ("rn-infinity", "rn-infinity", ["--q", "p2", "p3", "p4"], 3, True),
        ("rn(2,0)", "rn(2,0)", ["--q", "p0"], 3, True),
        ("veed", "veedc", [], 3, True),
        ("ab", "abc", [], 4, False),
        ("ab", "xy", [], 3, False),
        ("rn(2,0)", "rn(2,0)", ["--q", "zz"], 2, True),
        ("rn(2,0)", "rn(2,0)", ["--right-isolated", "zz"], 3, None),
    ], ids=["empty-region", "unfounded-region", "region-not-lower",
            "order-past-the-span", "size-past-the-span", "other-ids",
            "unknown-q-member", "config-error"])
    def test_refusals_match_the_search(self, monkeypatch, left, right, extra,
                                       code, equal):
        argv = ["iso", *sides_of(left, right), "--depth", "3", *extra]
        asked = []

        def asking(*args):
            asked.append(equal_rules(*args))
            return asked[-1]
        monkeypatch.setattr(cli, "equal_rules", asking)
        first = run_main(argv)
        assert first[0] == code
        if equal is None:
            assert asked == []
        else:
            assert len(asked) == 1 and (asked[0] is None) == equal
        monkeypatch.setattr(cli, "equal_rules", lambda *args: (1, "block", 1))
        assert run_main(argv) == first
        assert first[2] or json.loads(first[1])["status"] == "mismatch"

    def test_depth_exhaustion_exit_code(self):
        # b is noncompact on the left and unbounded on the right, so the
        # rules differ and the pair is matched
        code, out, _ = run_main(["iso", "--left", "vee.json", "--right",
                                 "vee.json", "--left-pinf", "b", "--right-pu",
                                 "b", "--depth", "6", "--max-depth", "6"])
        assert code == 5
        doc = json.loads(out)
        assert doc["status"] == "depth-exhausted"
        assert doc["note"] == "right side needs level 7"

    def test_setup_rejection(self):
        code, _, err = run_main(["iso", "--left-family", "rn-infinity",
                                 "--right-family", "rn-infinity", "--depth",
                                 "6"])
        assert code == 3
        assert "compared region is empty" in err

    def test_region_without_a_confirmed_foundation(self):
        # the ladder's rungs have no finite foundation, so a region of
        # rungs is refused before any pairing
        assert run_main(["iso", "--left-family", "rn-infinity",
                         "--right-family", "rn-infinity", "--depth", "5",
                         "--q", "p2", "p3", "p4"]) == (
            3, "", "left region has no confirmed finite foundation\n")

    def test_region_without_a_foundation_in_process(self):
        # the same refusal, from init_iso, on the ladder's first four
        # elements
        assert run_main(["iso", "--left-family", "rn-infinity",
                         "--right-family", "rn-infinity", "--depth", "4",
                         "--q", "p0", "p1", "p2", "p3"]) == (
            3, "", "left region has no confirmed finite foundation\n")

    def test_missing_side(self):
        code, _, err = run_main(["iso", "--right-family", "rn(2,0)"])
        assert code == 2
        assert "no left poset given" in err

    def test_unknown_q_member(self):
        assert run_main(["iso", "--left-family", "dyadic", "--right-family",
                         "dyadic", "--depth", "4", "--q", "zz"]) == (
            2, "", "bad --q: unknown element id 'zz'\n")

    def test_q_member_without_counterpart(self):
        # the left build enumerates dyadic up to 7/8; the right side has
        # only the first four elements
        assert run_main(["iso", "--left-family", "dyadic", "--right",
                         "dyadic-4.json", "--depth", "4", "--q", "7/8"]) == (
            3, "", "region elements ['7/8'] have no counterpart under the "
                   "bijection\n")

    def test_identity_bijection_is_checked_for_order(self):
        # isomorphic posets over the same names, but not by the identity
        assert run_main(["iso", "--left", "ac.json", "--right", "bc.json",
                         "--depth", "6"]) == (
            3, "", "the bijection breaks order at ('a', 'c')\n")

    def test_different_ids_need_a_bijection(self):
        assert run_main(["iso", "--left", "ab.json", "--right", "xy.json",
                         "--depth", "3"]) == (
            3, "", "sides name different elements; supply a bijection\n")

    def test_byte_identical_reruns(self):
        argv = ["iso", "--left-family", "rn(2,2)",
                "--right-family", "rn(2,2)", "--depth", "6", "--seed", "5"]
        assert run_main(argv)[1] == run_main(argv)[1]


class TestExitContract:
    def test_analyze_without_poset(self):
        code, _, err = run_main(["analyze"])
        assert code == 2
        assert "no poset given" in err

    @pytest.mark.parametrize("depth", ["1", "0"])
    def test_build_verify_depth_below_two(self, depth):
        code, _, err = run_main(["build-verify", "--family", "rn(2,0)",
                                 "--depth", depth])
        assert code == 3
        assert "--depth must be at least 2" in err

    def test_iso_depth_zero(self):
        assert run_main(["iso", "--left-family", "rn(2,0)", "--right-family",
                         "rn(2,0)", "--depth", "0"])[0] == 3

    def test_horizon_below_one(self):
        code, _, err = run_main(["analyze", "--family", "dyadic",
                                 "--horizon", "0"])
        assert code == 3
        assert "--horizon must be at least 1" in err

    def test_iso_level_size_budget(self):
        # p8 isolated on the right only, so the rules differ and both
        # sides are built
        assert run_main(["iso", "--left-family", "omega-chain",
                         "--right-family", "omega-chain", "--right-isolated",
                         "p8", "--depth", "9"]) == (
            5, "", "left: level 9 would hold 103049 nodes, over the bound "
                   "65536\n")

    def test_iso_level_size_budget_in_process(self):
        # p1 isolated on the left only: both sides are built, and the
        # right one stops at level 9; main returns, so nothing raised
        assert run_main(["iso", "--left-family", "omega-chain",
                         "--right-family", "omega-chain", "--left-isolated",
                         "p1", "--depth", "9"]) == (
            5, "", "right: level 9 would hold 103049 nodes, over the bound "
                   "65536\n")

    def test_analyze_unknown_subset_member(self):
        assert run_main(["analyze", "--family", "rn(2,0)", "--subset",
                         "zz"]) == (
            2, "", "bad --subset: unknown element id 'zz'\n")

    # p20 is an element of omega-chain, past the enumerated prefix
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 24: an id past the enumerated prefix reads as an "
        "unknown element id"))
    def test_analyze_subset_member_past_the_prefix(self):
        code, _, err = run_main(["analyze", "--family", "omega-chain",
                                 "--subset", "p20"])
        assert code != 2, err

    def test_build_verify_unknown_q_member(self):
        assert run_main(["build-verify", "--family", "rn(2,0)", "--depth",
                         "3", "--q", "zz"]) == (
            2, "", "bad --q: unknown element id 'zz'\n")

    # both resolve --q through Poset.mask_of, which names the least
    # unknown id
    @pytest.mark.parametrize("argv", [
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)"],
        ["build-verify", "--family", "rn(2,0)"]])
    def test_the_least_unknown_q_member_is_named(self, argv):
        assert run_main([*argv, "--depth", "3", "--q", "zz", "yy"]) == (
            2, "", "bad --q: unknown element id 'yy'\n")

    def test_dot_output_reads_no_q(self):
        code, out, err = run_main(["build-verify", "--family", "rn(2,0)",
                                   "--depth", "3", "--format", "dot", "--q",
                                   "zz"])
        assert code == 0
        assert out.startswith("digraph skeleton {") and err == ""

    def test_a_repeated_q_member_is_one_element(self, searched):
        argv = ["iso", "--left-family", "rn(2,0)", "--right-family",
                "rn(2,0)", "--depth", "4", "--q", "p2"]
        runs = [run_main([*argv, *extra]) for extra in ([], ["p2"])]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 5
        assert err == "" and '"pairs": 5' in out

    @pytest.mark.parametrize("argv,code,named", [
        (("analyze", "--family", "rn(2,0)", "--subset", "zz", "yy", "xx"),
         2, ["'xx'"]),
        (("build-verify", "--family", "rn(2,0)", "--isolated", "zz", "yy",
          "xx"), 3, ["'xx'", "'yy'", "'zz'"])])
    def test_unknown_ids_named_alike_under_every_hash_seed(self, argv, code,
                                                           named):
        runs = [run_cli(*argv, env={"PYTHONHASHSEED": str(seed)})
                for seed in range(4)]
        assert [proc.returncode for proc in runs] == [code] * 4
        assert len({proc.stderr for proc in runs}) == 1, [
            proc.stderr for proc in runs]
        text = runs[0].stderr
        assert sorted(named, key=text.index) == named

    @pytest.mark.parametrize("max_depth", ["0", "-1", "4"])
    def test_iso_max_depth_below_depth(self, max_depth):
        assert run_main(["iso", "--left-family", "rn(2,0)", "--right-family",
                         "rn(2,0)", "--depth", "5", "--max-depth",
                         max_depth]) == (
            3, "", "--max-depth must be at least --depth\n")

    def test_closure_negative_max_n(self):
        assert run_main(["closure", "--family", "rn(2,0)", "--max-n",
                         "-1"]) == (3, "", "--max-n must be at least 0\n")

    @pytest.mark.parametrize("doc", ["covers-int.json", "covers-null.json",
                                     "name-int.json"],
                             ids=["doc0", "doc1", "doc2"])
    @pytest.mark.parametrize("command", ["analyze", "build-verify", "iso"])
    def test_malformed_poset_file(self, command, doc):
        argv = ([command, "--left", doc, "--right-family", "rn(2,0)"]
                if command == "iso" else [command, doc])
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert "must be a" in err

    @pytest.mark.parametrize("entry", ["badcover.json", "badcover-dict.json"],
                             ids=["entry0", "entry1"])
    @pytest.mark.parametrize("command", ["analyze", "build-verify", "iso"])
    def test_cover_endpoint_not_a_string(self, command, entry):
        argv = ([command, "--left", entry, "--right-family", "rn(2,0)"]
                if command == "iso" else [command, entry])
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert "bad cover entry" in err

    @pytest.mark.parametrize("argv, code, message", [
        (["build-verify", "empty.json"], 3, "empty-poset: "),
        (["iso", "--left", "empty.json", "--right-family", "rn(2,0)"], 3,
         "left: empty-poset: "),
        (["iso", "--left-family", "rn(2,0)", "--right", "empty.json"], 3,
         "right: empty-poset: "),
        (["analyze", "empty.json"], 0, "")])
    def test_empty_poset(self, argv, code, message):
        got, out, err = run_main(argv)
        assert got == code
        assert "Traceback" not in err
        assert err.startswith(message)
        if code:
            assert out == ""
        else:
            assert json.loads(out)["minimal"] == []

    # a process for each refused stdout: a closed pipe, a full device and
    # a closed fd 1
    @pytest.mark.parametrize("argv", UNWRITABLE + HELP, ids=" ".join)
    def test_closed_pipe_exits_five(self, argv):
        # the read end is closed before the child starts, so its first
        # write fails whatever the size of the output
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert_refused_output(proc, f"[Errno {errno.EPIPE}] "
                                    f"{os.strerror(errno.EPIPE)}")

    def test_a_pipe_closed_mid_output_exits_five(self):
        # 134 KB of dot is more than a pipe buffer holds; the reader takes
        # the first line a byte at a time and closes, so a later write
        # fails
        command, env = child(["build-verify", "--family", "dyadic",
                              "--depth", "7", "--format", "dot"])
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, bufsize=0,
                              env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.wait(timeout=60)
        assert first == b"digraph skeleton {\n"
        assert_refused_output(
            subprocess.CompletedProcess(command, proc.returncode, "", err),
            f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    @pytest.mark.parametrize("argv", UNWRITABLE + HELP, ids=" ".join)
    def test_full_device_exits_five(self, argv):
        with open("/dev/full", "w") as full:
            proc = run_cli(*argv, stdout=full)
        assert_refused_output(proc, f"[Errno {errno.ENOSPC}] "
                                    f"{os.strerror(errno.ENOSPC)}")

    @pytest.mark.skipif(shutil.which("sh") is None,
                        reason="no POSIX shell to close fd 1")
    @pytest.mark.parametrize("argv", UNWRITABLE + HELP, ids=" ".join)
    def test_closed_stdout_exits_five(self, argv):
        # with fd 1 closed the child starts with sys.stdout set to None,
        # and print would drop the output without an error
        proc = run_cli(*argv, launcher=CLOSED_STDOUT)
        assert_refused_output(proc, "it is closed")

    def test_other_exits_keep_their_code_on_a_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli("analyze", "--family", "nope", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", UNWRITABLE + HELP, ids=" ".join)
    def test_a_closed_stdout_is_an_exit_code_in_process(self, argv):
        assert run_main(argv, closed_stdout=True) == (
            5, "", "cannot write to stdout: it is closed\n")

    def test_iso_builds_the_covering_level(self, searched):
        code, out, _ = run_main(["iso", "--left-family", "rn(4,2)",
                                 "--right-family", "rn(4,2)", "--depth", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "iso" and doc["pairs"] == 8


class TestClosure:
    def test_json_report(self):
        code, out, _ = run_main(["closure", "--family", "rn(2,0)"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"family", "trace", "classification",
                            "identity_violations", "generator_check"}
        assert doc["classification"]["case"] == 1
        assert doc["classification"]["name"] == "P(2,0)"
        assert doc["identity_violations"] == []
        assert doc["generator_check"]["holds"] is True

    def test_ladder_classification(self):
        doc = json.loads(run_main(["closure", "--family", "rn-infinity"])[1])
        assert doc["classification"]["case"] == 3
        assert doc["trace"]["stabilized"] is False

    def test_text_format(self):
        code, out, _ = run_main(["closure", "--family", "rn(2,0)", "--format",
                                 "text"])
        assert code == 0
        assert "N = 2; classification P(2,0) (case 1)" in out
        assert "generator check: holds (2 steps)" in out

    def test_dot_format(self):
        code, out, _ = run_main(["closure", "--family", "rn-infinity",
                                 "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph ladder {")

    def test_non_symbolic_family(self):
        code, _, err = run_main(["closure", "--family", "omega-chain"])
        assert code == 3
        assert "symbolic spaces need" in err

    def test_unknown_family(self):
        assert run_main(["closure", "--family", "nope"])[0] == 2

    # the text line names A_inf as a set, W-{...} when it is cofinite
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5b: RNTrace.serialize prints a settled, empty A_inf "
        "as null"))
    @pytest.mark.parametrize("family", ["rn-infinity", "rn(2,0)"])
    def test_json_names_the_a_inf_of_the_text(self, family):
        argv = ["closure", "--family", family]
        text = run_main([*argv, "--format", "text"])[1]
        named = next(line.split()[2] for line in text.splitlines()
                     if line.startswith("A_inf = "))
        ids = named.removeprefix("W-").strip("{}")
        assert json.loads(run_main(argv)[1])["trace"]["A_inf"] == {
            "shape": "cofinite" if named.startswith("W-") else "finite",
            "ids": sorted(ids.split(",") if ids else [])}


class TestParserReuse:
    def test_a_reused_parser_carries_no_state(self):
        assert cli.build_parser() is cli.build_parser()
        runs = [(["--subset", "p1", "p2", "--subset", "p0"],
                 [["p1", "p2"], ["p0"]]),
                ([], None),
                (["--subset", "p2"], [["p2"]])]
        for extra, subsets in runs:
            argv = ["analyze", "--family", "rn(2,0)", *extra]
            assert cli.build_parser().parse_args(argv).subset == subsets
            code, out, _ = run_main(argv)
            assert code == 0
            doc = json.loads(out)
            got = [f["subset"] for f in doc.get("foundations", [])]
            assert got == [sorted(m) for m in subsets or []]
