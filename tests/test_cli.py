"""End-to-end CLI runs through a subprocess."""
import errno
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


def run_cli(*argv, timeout=None, env=None, stdout=subprocess.PIPE):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stonetrim.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})


# one command per way of writing stdout: JSON, dot larger than a pipe
# buffer, and the two lines of the text table
UNWRITABLE = {
    "json": ["build-verify", "--family", "rn(2,0)", "--depth", "6"],
    "dot": ["build-verify", "--family", "dyadic", "--depth", "7",
            "--format", "dot"],
    "text": ["closure", "--family", "rn-infinity", "--format", "text"],
}


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

    @pytest.mark.parametrize("kind", sorted(UNWRITABLE))
    def test_closed_pipe_exits_five(self, kind):
        # the read end is closed before the child starts, so its first
        # write fails whatever the size of the output
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(*UNWRITABLE[kind], stdout=write_end)
        finally:
            os.close(write_end)
        assert_refused_output(proc, f"[Errno {errno.EPIPE}] "
                                    f"{os.strerror(errno.EPIPE)}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    @pytest.mark.parametrize("kind", sorted(UNWRITABLE))
    def test_full_device_exits_five(self, kind):
        with open("/dev/full", "w") as full:
            proc = run_cli(*UNWRITABLE[kind], stdout=full)
        assert_refused_output(proc, f"[Errno {errno.ENOSPC}] "
                                    f"{os.strerror(errno.ENOSPC)}")

    def test_other_exits_keep_their_code_on_a_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli("analyze", "--family", "nope", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

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
