"""Fold benchmark runs into one trajectory point.

    python3 perfbench/trajectory.py --seeds 1-10 --out perfbench/baseline.json

Runs every workload of BENCHMARK.json once per seed with tracing off, then
once traced, and writes each run's metrics plus, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Compare
two points by their medians; a difference inside the spread is noise.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    for prefix in ("# meta ", "# info "):
        found = [line for line in lines if line.startswith(prefix)]
        out[prefix.strip("# ").strip()] = json.loads(found[0][len(prefix):])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"),
                    help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    point = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            r = run(bench, workload, seed, 0)
            runs.append({"seed": seed, "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": r["metrics"], "info": r["info"],
                         "meta": r["meta"]})
            print(workload, seed, json.dumps(r["metrics"]), flush=True)
        traced = run(bench, workload, args.seeds[0], 1)
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            summary[m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "bound": m["bound"], "unit": m["unit"]}
            print(f"  {m['name']:12} median {summary[m['name']]['median']:.6g}"
                  f" {m['unit']}  spread {summary[m['name']]['spread']}"
                  f"  bound {m['bound']}", flush=True)
        point["workloads"][workload] = {
            "summary": summary, "runs": runs,
            "traced": {"seed": args.seeds[0], "correct": traced["correct"],
                       "metrics": traced["metrics"],
                       "info": traced["info"]},
        }
    point["meta"] = point["workloads"][names[0]]["runs"][0]["meta"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
