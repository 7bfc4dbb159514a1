"""End-to-end CLI runs through a subprocess."""
import json
import os
import subprocess
import sys

import pytest

import stonetrim
from conftest import diamond_poset
from stonetrim import FOUND, cli

# the child imports the same stonetrim as this process, installed or not
SRC = os.path.dirname(os.path.dirname(stonetrim.__file__))


def run_cli(*argv, timeout=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stonetrim.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


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
        path.write_text(json.dumps(diamond_poset().to_json()))
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


class TestIso:
    def test_identical_sides(self):
        proc = run_cli("iso", "--left-family", "rn(2,0)",
                       "--right-family", "rn(2,0)", "--depth", "6")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "iso"
        assert doc["coverage"] is True
        assert doc["invariant_failures"] == []
        assert doc["witness"] is None
        assert doc["steps"] > 0

    def test_mismatch_exit_code(self):
        proc = run_cli("iso", "--left-family", "rn(2,0)",
                       "--right-family", "rn(2,0)",
                       "--left-isolated", "p1", "--depth", "6")
        assert proc.returncode == 4
        doc = json.loads(proc.stdout)
        assert doc["status"] == "mismatch"
        assert doc["witness"]["type"] == "p1"

    def test_depth_exhaustion_exit_code(self):
        proc = run_cli("iso", "--left-family", "omega-chain",
                       "--right-family", "omega-chain",
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
        proc = run_cli("iso", "--left-family", "omega-chain",
                       "--right-family", "omega-chain", "--depth", "9")
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "left: level 9 would hold 103049 nodes, over the bound 65536"]

    def test_analyze_unknown_subset_member(self):
        proc = run_cli("analyze", "--family", "rn(2,0)", "--subset", "zz")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "bad --subset: unknown element id 'zz'"]

    def test_build_verify_unknown_q_member(self):
        proc = run_cli("build-verify", "--family", "rn(2,0)", "--depth", "3",
                       "--q", "zz")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "bad --q: unknown element id 'zz'"]

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

    def test_iso_builds_the_covering_level(self):
        proc = run_cli("iso", "--left-family", "rn(4,2)",
                       "--right-family", "rn(4,2)", "--depth", "5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
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
