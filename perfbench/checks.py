"""Output checks: each op's summary against its recorded expected result.

A check accepts every answer the paper and the README allow and rejects
everything else.  Its verdict is one of

- ``ok``: a correct answer;
- ``refused``: the op hit a resource limit instead of answering (exit 5,
  ``depth-exhausted``, ``BuildError``), which the README allows;
- ``known``: the op reproduced a failure listed in ``known_failures.json``;
- ``fail``: a crash, a wrong or changed answer, or an undocumented exit code.

``known`` and ``fail`` both count as errors; only ``fail`` makes a run
incorrect.
"""
from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
KNOWN_PATH = os.path.join(HERE, "known_failures.json")

# laws whose check counts do not depend on the sampling seed
FIXED_COUNT_LAWS = ("union-additive", "types-realized")


def load() -> tuple[dict, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(KNOWN_PATH, encoding="utf-8") as fh:
        known = json.load(fh)
    return expected, known


def _certified(run: dict) -> bool:
    return (run["status"] == "iso" and run["coverage"]
            and not run["invariant_failures"])


def _laws(axioms: dict, exp: dict) -> str:
    if not axioms["passed"]:
        return "axiom report did not pass"
    if sorted(axioms["axioms"]) != exp["laws"]:
        return f"laws {sorted(axioms['axioms'])} != {exp['laws']}"
    for law, entry in axioms["axioms"].items():
        if entry["violations"] or entry["status"] != "pass":
            return f"law {law} has violations"
        if entry["checked"] <= 0:
            return f"law {law} checked nothing"
    for law, count in exp["fixed_checked"].items():
        if axioms["axioms"][law]["checked"] != count:
            return f"law {law} checked {axioms['axioms'][law]['checked']}, "\
                   f"recorded {count}"
    return ""


def check(key: str, out: dict, expected: dict, known: dict) -> tuple[str, str]:
    """Verdict and reason for one op's output summary."""
    exp = expected.get(key)
    if exp is None:
        return "fail", "no recorded expected result"
    kind = key.split(":", 1)[0]
    if kind == "cli":
        return _check_cli(key, out, exp, known.get(key))
    if "raised" in out:
        if out["raised"] == "BuildError":
            return "refused", "BuildError"
        return "fail", f"raised {out['raised']}: {out.get('message', '')}"
    if kind == "axiom":
        for field in ("layout", "structure", "path", "label"):
            if field in exp and out.get(field) != exp[field]:
                return "fail", f"{field} differs from the recorded one"
        bad = _laws(out["axioms"], exp)
        return ("fail", bad) if bad else ("ok", "")
    if kind == "deep":
        for field in ("layout", "structure"):
            if out[field] != exp[field]:
                return "fail", f"{field} differs from the recorded one"
        return "ok", ""
    if kind == "self-iso":
        run = out["run"]
        if exp["status"] == "mismatch":
            if run["status"] == "mismatch" and run["witness"] == exp["witness"]:
                return "ok", ""
            return "fail", f"expected witness {exp['witness']}, got " \
                           f"{run['status']} {run['witness']}"
        if _certified(run):
            return "ok", ""
        if run["status"] == "depth-exhausted":
            return "refused", run["note"]
        return "fail", f"self pair ended {run['status']}"
    return "fail", f"unknown op kind {kind!r}"


def _answered(key: str, out: dict) -> bool:
    """Whether an exit-0 CLI answer is right without a recorded stdout: a
    certified run for ``iso``, a passing report for ``build-verify``."""
    if key.startswith("cli:iso "):
        return bool(out.get("run")) and _certified(out["run"])
    if key.startswith("cli:build-verify "):
        return out.get("passed") is True
    return False


def _check_cli(key, out, exp, known) -> tuple[str, str]:
    rc = out["exit"]
    if known is not None:
        if out["raised"] is not None and out["raised"] == exp["raised"]:
            return "known", known["reason"]
        if rc == 0 and 0 in known["accept_exit"]:
            if _answered(key, out):
                return "ok", ""
            return "fail", "exit 0 without a certified run or passing report"
        if rc in known["accept_exit"]:
            return ("refused" if rc == 5 else "ok"), ""
        return "fail", f"exit {rc}, raised {out['raised']}; " \
                       f"accepted {known['accept_exit']}"
    if out["raised"] is not None:
        return "fail", f"raised {out['raised']}"
    if exp["exit"] == 5 or (exp["exit"] == 0 and key.startswith("cli:iso ")):
        # a matcher run may certify or run out of budget, nothing else
        if rc == 0 and _answered(key, out):
            return "ok", ""
        if rc == 5:
            return "refused", "depth-exhausted"
        return "fail", f"exit {rc}, recorded {exp['exit']}"
    if rc != exp["exit"]:
        return "fail", f"exit {rc}, recorded {exp['exit']}"
    if out["stdout"] != exp["stdout"]:
        return "fail", "stdout differs from the recorded one"
    return ("refused" if rc == 5 else "ok"), ""


def record_entry(key: str, out: dict) -> dict:
    """The expected result to store for an op, from the current program."""
    kind = key.split(":", 1)[0]
    if kind == "cli":
        return {"exit": out["exit"], "raised": out["raised"],
                "stdout": out["stdout"]}
    if "raised" in out:
        raise RuntimeError(f"{key} raised {out['raised']} while recording")
    if kind == "axiom":
        entry = {field: out[field] for field in
                 ("layout", "structure", "path", "label") if field in out}
        laws = out["axioms"]["axioms"]
        entry["laws"] = sorted(laws)
        entry["fixed_checked"] = {law: laws[law]["checked"]
                                  for law in FIXED_COUNT_LAWS}
        return entry
    if kind == "deep":
        return {"layout": out["layout"], "structure": out["structure"]}
    if kind == "self-iso":
        run = out["run"]
        return {"status": run["status"], "witness": run["witness"]}
    raise ValueError(key)
