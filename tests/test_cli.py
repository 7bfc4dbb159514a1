"""End-to-end CLI runs through a subprocess."""
import errno
import json
import os
import shutil
import subprocess
import sys

import pytest

import stonetrim
from conftest import run_main
from stonetrim import FOUND, cli
from stonetrim.skeleton import equal_rules
from test_contract import ARGV

# the child imports the same stonetrim as this process, installed or not
SRC = os.path.dirname(os.path.dirname(stonetrim.__file__))


def run_cli(*argv, timeout=None, env=None, stdout=subprocess.PIPE,
            launcher=()):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([*launcher, sys.executable, "-m", "stonetrim.cli",
                           *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})


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


@pytest.fixture
def searched(monkeypatch):
    """``iso`` with the rules of every pair reported apart, so every pair
    is built and matched by ``run_backforth``."""
    monkeypatch.setattr(cli, "equal_rules", lambda *args: (1, "block", 1))


def assert_refused_output(proc, reason: str) -> None:
    """Exit 5 with one stderr line naming the failed write, and neither a
    traceback nor an ignored exception at interpreter exit."""
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.splitlines() == [f"cannot write to stdout: {reason}"]


class TestAnalyze:
    def test_finite_family_report(self):
        proc = run_cli("analyze", "--family", "rn(2,0)")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == {"poset", "horizon", "minimal", "maximal",
                            "extremal_exact", "p_delta", "p_delta_exact",
                            "acc", "omega_complete", "completion"}
        assert doc["horizon"] == 3
        assert doc["minimal"] == ["p1", "p2"]
        assert doc["maximal"] == ["p0", "p1"]
        assert doc["completion"] == {"elements": 3, "tokens": []}
        assert doc["acc"]["status"] == "holds"

    def test_subset_foundations(self):
        proc = run_cli("analyze", "--family", "dyadic", "--horizon", "9",
                       "--subset", "1/2", "3/4")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["foundations"] == [{
            "subset": ["1/2", "3/4"], "status": FOUND, "foundation": ["0"],
            "note": "the bottom element founds every subset"}]

    def test_dyadic_top_outside_the_prefix(self):
        # the top "1" is enumerated second, so horizon 1 has not seen it
        proc = run_cli("analyze", "--family", "dyadic", "--horizon", "1")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["minimal"] == ["0"] and doc["maximal"] == []
        proc = run_cli("analyze", "--family", "dyadic", "--horizon", "2")
        assert json.loads(proc.stdout)["maximal"] == ["1"]

    def test_poset_file(self, tmp_path):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps({
            "name": "diamond", "elements": ["a", "b", "c", "d"],
            "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}))
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["poset"] == "diamond"
        assert doc["minimal"] == ["a"] and doc["maximal"] == ["d"]

    def test_unreadable_input(self, tmp_path):
        proc = run_cli("analyze", str(tmp_path / "missing.json"))
        assert proc.returncode == 2
        assert "cannot load poset" in proc.stderr

    def test_unknown_family(self):
        proc = run_cli("analyze", "--family", "nope")
        assert proc.returncode == 2

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
        proc = run_cli("build-verify", "--family", "rn(2,0)", "--depth", "5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["level_sizes"] == [1, 3, 7, 15, 32]
        assert doc["structure"]["passed"] is True
        assert doc["axioms"]["passed"] is True

    def test_byte_identical_reruns(self):
        a = run_cli("build-verify", "--family", "rn(2,2)", "--depth", "5")
        b = run_cli("build-verify", "--family", "rn(2,2)", "--depth", "5")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_dot_format(self):
        proc = run_cli("build-verify", "--family", "rn(2,0)", "--depth", "3",
                       "--format", "dot")
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph skeleton {")

    def test_config_rejection(self):
        proc = run_cli("build-verify", "--family", "rn-infinity",
                       "--pb", "p0", "--depth", "4")
        assert proc.returncode == 3
        assert "bounded-not-lower" in proc.stderr
        assert "bounded-outside-delta" in proc.stderr


    @pytest.mark.parametrize("family,q", [("rn-infinity", "p0"),
                                          ("ziegler-fan", "q")])
    def test_failed_structure_exits_four(self, family, q):
        # neither q has a finite foundation, so the covering check fails
        proc = run_cli("build-verify", "--family", family, "--depth", "4",
                       "--q", q)
        assert proc.returncode == 4, proc.stderr
        doc = json.loads(proc.stdout)
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
        proc = run_cli("build-verify", "--family", family, "--depth", depth)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
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
        proc = run_cli("build-verify", "--family", "omega-antichain",
                       "--depth", "3", "--q", "a6")
        assert proc.returncode == 0, proc.stderr
        checks = json.loads(proc.stdout)["structure"]["checks"]
        assert {"name": "covered-types-descend", "passed": True,
                "detail": ""} in checks

    def test_failed_laws_exit_four(self, monkeypatch, capsys):
        from stonetrim import ring
        monkeypatch.setattr(ring, "verify_type_axioms",
                            lambda *args, **kwargs: {"passed": False})
        assert cli.main(["build-verify", "--family", "rn(2,0)",
                         "--depth", "3"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["structure"]["passed"] is True
        assert doc["axioms"] == {"passed": False}


class TestIso:
    def test_identical_sides(self, capsys, searched):
        assert cli.main(["iso", "--left-family", "rn(2,0)",
                         "--right-family", "rn(2,0)", "--depth", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
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

    def test_equal_rules_build_no_tree_and_read_no_seed(self, capsys,
                                                        monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an equal-rules pair built a tree")
        monkeypatch.setattr(cli.SkeletonTree, "__init__", refused)
        outs = []
        for seed in ("0", "1", "7"):
            assert cli.main(["iso", "--left-family", "omega-chain",
                             "--right-family", "omega-chain", "--depth",
                             "30", "--seed", seed]) == 0
            outs.append(capsys.readouterr())
        assert outs == [outs[0]] * 3 and outs[0].err == ""
        assert json.loads(outs[0].out)["depth_used"] == 30

    def test_mismatch_exit_code(self):
        proc = run_cli("iso", "--left-family", "rn(2,0)",
                       "--right-family", "rn(2,0)",
                       "--left-isolated", "p1", "--depth", "6")
        assert proc.returncode == 4
        doc = json.loads(proc.stdout)
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
    def test_an_isolation_difference_exits_four(self, tmp_path, family,
                                                isolated, depth, seed):
        if family is None:
            path = tmp_path / "one.json"
            path.write_text(json.dumps({"name": "one", "elements": ["a"],
                                        "covers": []}))
            sides = ["--left", str(path), "--right", str(path)]
        else:
            sides = ["--left-family", family, "--right-family", family]
        proc = run_cli("iso", *sides, "--left-isolated", isolated,
                       "--depth", str(depth), "--seed", str(seed))
        assert proc.returncode == 4, proc.stderr
        doc = json.loads(proc.stdout)
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
        "ROADMAP item 3: a certified iso run does not yet check that both "
        "sides isolate the same types"))
    @pytest.mark.parametrize("isolated", ["p6", "p5"])
    def test_one_sided_isolation_exits_four(self, isolated):
        proc = run_cli("iso", "--left-family", "omega-chain",
                       "--right-family", "omega-chain",
                       "--left-isolated", isolated, "--depth", "5")
        assert proc.returncode == 4, proc.stdout

    # poset files that agree on the span a shallow schedule checks and
    # differ past it
    PAST_SPAN = {
        "ab": (["a", "b"], [["a", "b"]]),
        "abc": (["a", "b", "c"], [["a", "b"], ["b", "c"]]),
        "xy": (["x", "y"], [["x", "y"]]),
        "c3": (["p1", "p2", "p3"], [["p1", "p2"], ["p2", "p3"]]),
        "vee": (["a", "b", "c"], [["a", "b"], ["a", "c"]]),
        "veed": (["a", "b", "c", "d"], [["a", "b"], ["a", "c"], ["b", "d"]]),
        "veedc": (["a", "b", "c", "d"], [["a", "b"], ["a", "c"],
                                         ["c", "d"]]),
    }

    def past_span_sides(self, tmp_path, left, right):
        argv = []
        for side, name in (("left", left), ("right", right)):
            if name not in self.PAST_SPAN:
                argv += [f"--{side}-family", name]
                continue
            path = tmp_path / f"{name}.json"
            elements, covers = self.PAST_SPAN[name]
            path.write_text(json.dumps({"name": name, "elements": elements,
                                        "covers": covers}))
            argv += [f"--{side}", str(path)]
        return argv

    # a finite side shorter than the other never certifies: the shallow
    # depths certified before the posets were compared past the span, the
    # deepest one mismatched during the schedule with the same witness
    @pytest.mark.parametrize("left, right, depths, side, missing", [
        ("ab", "abc", (3, 4, 5), "left", "c"),
        ("omega-chain", "c3", (3, 4, 5, 6), "right", "p4"),
        ("vee", "veed", (3, 4, 5, 6), "left", "d"),
    ])
    def test_a_difference_past_the_span_exits_four(self, tmp_path, capsys,
                                                   left, right, depths, side,
                                                   missing):
        sides = self.past_span_sides(tmp_path, left, right)
        for depth in depths:
            for seed in (0, 1, 2):
                assert cli.main(["iso", *sides, "--depth", str(depth),
                                 "--seed", str(seed)]) == 4, (depth, seed)
                doc = json.loads(capsys.readouterr().out)
                assert doc["status"] == "mismatch"
                assert doc["witness"] == {
                    "side": side, "type": missing, "needed": 1,
                    "available": 0,
                    "reason": "type has no counterpart in the other "
                              "alphabet"}

    def test_an_order_difference_past_the_span_exits_three(self, tmp_path,
                                                           capsys):
        # finite sides of one size are checked whole; at depth 4 the span
        # already holds d
        sides = self.past_span_sides(tmp_path, "veed", "veedc")
        for depth in (3, 4):
            for seed in (0, 1, 2):
                assert cli.main(["iso", *sides, "--depth", str(depth),
                                 "--seed", str(seed)]) == 3
                out, err = capsys.readouterr()
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
    def test_refusals_match_the_search(self, tmp_path, capsys, monkeypatch,
                                       left, right, extra, code, equal):
        argv = ["iso", *self.past_span_sides(tmp_path, left, right),
                "--depth", "3", *extra]
        asked = []

        def asking(*args):
            asked.append(equal_rules(*args))
            return asked[-1]
        monkeypatch.setattr(cli, "equal_rules", asking)
        assert cli.main(argv) == code
        first = capsys.readouterr()
        if equal is None:
            assert asked == []
        else:
            assert len(asked) == 1 and (asked[0] is None) == equal
        monkeypatch.setattr(cli, "equal_rules", lambda *args: (1, "block", 1))
        assert cli.main(argv) == code
        assert capsys.readouterr() == first
        assert first.err or json.loads(first.out)["status"] == "mismatch"

    def test_depth_exhaustion_exit_code(self, tmp_path):
        # b is noncompact on the left and unbounded on the right, so the
        # rules differ and the pair is matched
        path = tmp_path / "vee.json"
        path.write_text(json.dumps({"name": "vee",
                                    "elements": ["a", "b", "c"],
                                    "covers": [["a", "b"], ["a", "c"]]}))
        proc = run_cli("iso", "--left", str(path), "--right", str(path),
                       "--left-pinf", "b", "--right-pu", "b",
                       "--depth", "6", "--max-depth", "6")
        assert proc.returncode == 5
        doc = json.loads(proc.stdout)
        assert doc["status"] == "depth-exhausted"
        assert doc["note"] == "right side needs level 7"

    def test_setup_rejection(self):
        proc = run_cli("iso", "--left-family", "rn-infinity",
                       "--right-family", "rn-infinity", "--depth", "6")
        assert proc.returncode == 3
        assert "compared region is empty" in proc.stderr

    def test_region_without_a_confirmed_foundation(self):
        # the ladder's rungs have no finite foundation, so a region of
        # rungs is refused before any pairing
        proc = run_cli("iso", "--left-family", "rn-infinity",
                       "--right-family", "rn-infinity", "--depth", "5",
                       "--q", "p2", "p3", "p4")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "left region has no confirmed finite foundation"]

    def test_region_without_a_foundation_in_process(self, capsys):
        # the same refusal, from init_iso in this process, on the ladder's
        # first four elements
        assert cli.main(["iso", "--left-family", "rn-infinity",
                         "--right-family", "rn-infinity", "--depth", "4",
                         "--q", "p0", "p1", "p2", "p3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "left region has no confirmed finite foundation"]

    def test_missing_side(self):
        proc = run_cli("iso", "--right-family", "rn(2,0)")
        assert proc.returncode == 2
        assert "no left poset given" in proc.stderr

    def test_unknown_q_member(self):
        proc = run_cli("iso", "--left-family", "dyadic",
                       "--right-family", "dyadic", "--depth", "4",
                       "--q", "zz")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "bad --q: unknown element id 'zz'"]

    def test_q_member_without_counterpart(self, tmp_path):
        # the left build enumerates dyadic up to 7/8; the right side has
        # only the first four elements
        right = tmp_path / "right.json"
        right.write_text(json.dumps({
            "name": "dyadic-4", "elements": ["0", "1", "1/2", "3/4"],
            "covers": [["0", "1/2"], ["1/2", "3/4"], ["3/4", "1"]]}))
        proc = run_cli("iso", "--left-family", "dyadic",
                       "--right", str(right), "--depth", "4", "--q", "7/8")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "region elements ['7/8'] have no counterpart under the "
            "bijection"]

    def test_identity_bijection_is_checked_for_order(self, tmp_path):
        # isomorphic posets over the same names, but not by the identity
        paths = []
        for top in ("a", "b"):
            path = tmp_path / f"{top}c.json"
            path.write_text(json.dumps({
                "name": f"{top}c", "elements": ["a", "b", "c"],
                "covers": [[top, "c"]]}))
            paths.append(str(path))
        proc = run_cli("iso", "--left", paths[0], "--right", paths[1],
                       "--depth", "6")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "the bijection breaks order at ('a', 'c')"]

    def test_different_ids_need_a_bijection(self, tmp_path):
        paths = []
        for name in ("ab", "xy"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, "elements": list(name),
                                        "covers": [list(name)]}))
            paths.append(str(path))
        proc = run_cli("iso", "--left", paths[0], "--right", paths[1],
                       "--depth", "3")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "sides name different elements; supply a bijection"]

    def test_byte_identical_reruns(self):
        argv = ("iso", "--left-family", "rn(2,2)",
                "--right-family", "rn(2,2)", "--depth", "6", "--seed", "5")
        assert run_cli(*argv).stdout == run_cli(*argv).stdout


class TestExitContract:
    def test_analyze_without_poset(self):
        proc = run_cli("analyze")
        assert proc.returncode == 2
        assert "no poset given" in proc.stderr

    @pytest.mark.parametrize("depth", ["1", "0"])
    def test_build_verify_depth_below_two(self, depth):
        proc = run_cli("build-verify", "--family", "rn(2,0)",
                       "--depth", depth)
        assert proc.returncode == 3
        assert "--depth must be at least 2" in proc.stderr

    def test_iso_depth_zero(self):
        proc = run_cli("iso", "--left-family", "rn(2,0)",
                       "--right-family", "rn(2,0)", "--depth", "0")
        assert proc.returncode == 3

    def test_horizon_below_one(self):
        proc = run_cli("analyze", "--family", "dyadic", "--horizon", "0")
        assert proc.returncode == 3
        assert "--horizon must be at least 1" in proc.stderr

    def test_iso_level_size_budget(self):
        # p8 isolated on the right only, so the rules differ and both
        # sides are built
        proc = run_cli("iso", "--left-family", "omega-chain",
                       "--right-family", "omega-chain", "--right-isolated",
                       "p8", "--depth", "9")
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "left: level 9 would hold 103049 nodes, over the bound 65536"]

    def test_iso_level_size_budget_in_process(self, capsys):
        # p1 isolated on the left only: both sides are built, and the
        # right one stops at level 9; main returns, so nothing raised
        code = cli.main(["iso", "--left-family", "omega-chain",
                         "--right-family", "omega-chain", "--left-isolated",
                         "p1", "--depth", "9"])
        out, err = capsys.readouterr()
        assert code == 5
        assert out == ""
        assert err.splitlines() == [
            "right: level 9 would hold 103049 nodes, over the bound 65536"]

    def test_analyze_unknown_subset_member(self):
        proc = run_cli("analyze", "--family", "rn(2,0)", "--subset", "zz")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "bad --subset: unknown element id 'zz'"]

    # p20 is an element of omega-chain, past the enumerated prefix
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 24: an id past the enumerated prefix reads as an "
        "unknown element id"))
    def test_analyze_subset_member_past_the_prefix(self, capsys):
        code = cli.main(["analyze", "--family", "omega-chain", "--subset",
                         "p20"])
        assert code != 2, capsys.readouterr().err

    def test_build_verify_unknown_q_member(self):
        proc = run_cli("build-verify", "--family", "rn(2,0)", "--depth", "3",
                       "--q", "zz")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "bad --q: unknown element id 'zz'"]

    # both resolve --q through Poset.mask_of, which names the least
    # unknown id
    @pytest.mark.parametrize("argv", [
        ["iso", "--left-family", "rn(2,0)", "--right-family", "rn(2,0)"],
        ["build-verify", "--family", "rn(2,0)"]])
    def test_the_least_unknown_q_member_is_named(self, capsys, argv):
        assert cli.main([*argv, "--depth", "3", "--q", "zz", "yy"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["bad --q: unknown element id 'yy'"]

    def test_dot_output_reads_no_q(self, capsys):
        assert cli.main(["build-verify", "--family", "rn(2,0)", "--depth",
                         "3", "--format", "dot", "--q", "zz"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("digraph skeleton {") and err == ""

    def test_a_repeated_q_member_is_one_element(self, capsys, searched):
        argv = ["iso", "--left-family", "rn(2,0)", "--right-family",
                "rn(2,0)", "--depth", "4", "--q", "p2"]
        runs = []
        for extra in ([], ["p2"]):
            assert cli.main([*argv, *extra]) == 5
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]
        assert runs[0].err == "" and '"pairs": 5' in runs[0].out

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
        proc = run_cli("iso", "--left-family", "rn(2,0)",
                       "--right-family", "rn(2,0)", "--depth", "5",
                       "--max-depth", max_depth)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "--max-depth must be at least --depth"]

    def test_closure_negative_max_n(self):
        proc = run_cli("closure", "--family", "rn(2,0)", "--max-n", "-1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["--max-n must be at least 0"]

    @pytest.mark.parametrize("doc", [
        {"name": "x", "elements": ["a"], "covers": 5},
        {"name": "x", "elements": ["a"], "covers": None},
        {"name": 5, "elements": ["a"], "covers": []}])
    @pytest.mark.parametrize("command", ["analyze", "build-verify", "iso"])
    def test_malformed_poset_file(self, tmp_path, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ([command, "--left", str(path), "--right-family", "rn(2,0)"]
                if command == "iso" else [command, str(path)])
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "must be a" in proc.stderr

    @pytest.mark.parametrize("entry", [[["a"], "b"], [{"k": 1}, "b"]])
    @pytest.mark.parametrize("command", ["analyze", "build-verify", "iso"])
    def test_cover_endpoint_not_a_string(self, tmp_path, command, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "elements": ["a", "b"],
                                    "covers": [entry]}))
        argv = ([command, "--left", str(path), "--right-family", "rn(2,0)"]
                if command == "iso" else [command, str(path)])
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "bad cover entry" in proc.stderr

    @pytest.mark.parametrize("argv, code, message", [
        (["build-verify", "{empty}"], 3, "empty-poset: "),
        (["iso", "--left", "{empty}", "--right-family", "rn(2,0)"], 3,
         "left: empty-poset: "),
        (["iso", "--left-family", "rn(2,0)", "--right", "{empty}"], 3,
         "right: empty-poset: "),
        (["analyze", "{empty}"], 0, "")])
    def test_empty_poset(self, tmp_path, argv, code, message):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "e", "elements": [],
                                    "covers": []}))
        proc = run_cli(*(a.format(empty=path) for a in argv))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message)
        if code:
            assert proc.stdout == ""
        else:
            assert json.loads(proc.stdout)["minimal"] == []

    @pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
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

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    @pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
    def test_full_device_exits_five(self, argv):
        with open("/dev/full", "w") as full:
            proc = run_cli(*argv, stdout=full)
        assert_refused_output(proc, f"[Errno {errno.ENOSPC}] "
                                    f"{os.strerror(errno.ENOSPC)}")

    @pytest.mark.skipif(shutil.which("sh") is None,
                        reason="no POSIX shell to close fd 1")
    @pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
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

    @pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
    def test_a_closed_stdout_is_an_exit_code_in_process(self, argv):
        assert run_main(argv, closed_stdout=True) == (
            5, "", "cannot write to stdout: it is closed\n")

    def test_iso_builds_the_covering_level(self, capsys, searched):
        assert cli.main(["iso", "--left-family", "rn(4,2)",
                         "--right-family", "rn(4,2)", "--depth", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "iso" and doc["pairs"] == 8


class TestClosure:
    def test_json_report(self):
        proc = run_cli("closure", "--family", "rn(2,0)")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == {"family", "trace", "classification",
                            "identity_violations", "generator_check"}
        assert doc["classification"]["case"] == 1
        assert doc["classification"]["name"] == "P(2,0)"
        assert doc["identity_violations"] == []
        assert doc["generator_check"]["holds"] is True

    def test_ladder_classification(self):
        proc = run_cli("closure", "--family", "rn-infinity")
        doc = json.loads(proc.stdout)
        assert doc["classification"]["case"] == 3
        assert doc["trace"]["stabilized"] is False

    def test_text_format(self):
        proc = run_cli("closure", "--family", "rn(2,0)", "--format", "text")
        assert proc.returncode == 0
        assert "N = 2; classification P(2,0) (case 1)" in proc.stdout
        assert "generator check: holds (2 steps)" in proc.stdout

    def test_dot_format(self):
        proc = run_cli("closure", "--family", "rn-infinity",
                       "--format", "dot")
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph ladder {")

    def test_non_symbolic_family(self):
        proc = run_cli("closure", "--family", "omega-chain")
        assert proc.returncode == 3
        assert "symbolic spaces need" in proc.stderr

    def test_unknown_family(self):
        proc = run_cli("closure", "--family", "nope")
        assert proc.returncode == 2


class TestParserReuse:
    def test_a_reused_parser_carries_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        runs = [(["--subset", "p1", "p2", "--subset", "p0"],
                 [["p1", "p2"], ["p0"]]),
                ([], None),
                (["--subset", "p2"], [["p2"]])]
        for extra, subsets in runs:
            argv = ["analyze", "--family", "rn(2,0)", *extra]
            assert cli.build_parser().parse_args(argv).subset == subsets
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            got = [f["subset"] for f in doc.get("foundations", [])]
            assert got == [sorted(m) for m in subsets or []]
