"""The benchmark's own tests, run on each workload at its smallest size.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that traced and untraced runs give identical op outputs, and that count
metrics repeat exactly between two traced runs.  Kept out of the pytest
path on purpose: it starts many interpreters and takes about a minute.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(line[len("# info "):]) for line in lines
                if line.startswith("# info "))
    return result, info, lines


def check_printed(result: dict, lines: list[str], metrics: list[dict]):
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert f"{m['name']} {got['value']} {m['unit']}" in lines, m["name"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        name = w["name"]
        plain, plain_info, lines = run(name, 0)
        check_printed(plain, lines, bench["end_to_end"])
        first, first_info, lines = run(name, 1)
        check_printed(first, lines, bench["per_layer"])
        second, _, _ = run(name, 1)
        assert first_info["traced_outputs_match"], name
        assert first_info["outputs_sha256"] == plain_info["outputs_sha256"], \
            f"{name}: traced op outputs differ from untraced ones"
        for m in bench["per_layer"]:
            if m["unit"] == "count":
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                assert a == b, f"{name}: {m['name']} {a} != {b}"
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
