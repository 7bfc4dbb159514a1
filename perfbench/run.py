"""stonetrim benchmark: one closed-loop client, ops run one after another.

    python3 perfbench/run.py --workload axiom-suite --seed 1 --seconds 20 \\
        --trace 0

Each batch of a workload runs in a fresh child interpreter (child.py), one
child at a time.  With ``--trace 0`` the run starts set-up probes, then a
fixed number of batches (``BATCHES_PER_20S``, scaled by ``--seconds``, at
least one), and prints the end-to-end metrics, with times in reference
seconds (refspeed.py).  With ``--trace 1`` it runs one batch untraced and
one traced, prints the per-layer metrics and the tracing overhead, and
writes the traced batch's spans to ``.perfbench/``.

Every op's output is checked against ``expected.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (ops whose
output failed its check) and ``metrics``.

``--record`` rewrites ``expected.json`` from the program as it is now.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from refspeed import KERNEL_REF_S, timed_pass  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS, quantile  # noqa: E402

SETUP_PROBES = 7
# kernel passes the parent times just before each set-up probe
PROBE_PASSES = 3
# Batches per 20 s of ``--seconds``.  The count is fixed, so it is the same
# on every commit, however fast the program is.  On a 2-vCPU Xeon VM a batch
# child takes about 15 s (axiom-suite), 35 s (self-iso), 5 s (deep-build)
# and 9 s (cli-mix), output checks and kernel passes included; the counts
# keep a full benchmark pass of 92 runs well inside an hour.
BATCHES_PER_20S = {"axiom-suite": 1, "self-iso": 1, "deep-build": 4,
                   "cli-mix": 2}
# a 90th percentile over fewer distinct ops is one op's latency in a sparse
# tail, and moves with the noise of that op alone
P90_MIN_OPS = 100
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, *flags: str,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    env = dict(os.environ)
    # fixed string hashing, so traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} batch exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe_setup(workload: str, seed: int, flags: tuple) -> tuple:
    """One child's set-up time, in reference seconds and raw.  The scale
    comes from kernel passes the parent runs just before starting it."""
    passes = [timed_pass() for _ in range(PROBE_PASSES)]
    setup_s = run_child(workload, seed, "--probe", *flags)["setup_s"]
    return setup_s * KERNEL_REF_S / statistics.median(passes), setup_s


def outputs_digest(ops: list[dict]) -> str:
    text = json.dumps([[r["key"], r["out"]] for r in ops], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Check verdicts over every op a run attempts."""

    def __init__(self):
        self.expected, self.known = checks.load()
        self.verdicts = {"ok": 0, "refused": 0, "known": 0, "fail": 0}
        self.notes: dict[tuple, int] = {}

    def add(self, ops: list[dict]) -> None:
        for r in ops:
            verdict, reason = checks.check(r["key"], r["out"],
                                           self.expected, self.known)
            self.verdicts[verdict] += 1
            if verdict != "ok":
                note = (verdict, r["key"], reason)
                self.notes[note] = self.notes.get(note, 0) + 1

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    def rates(self) -> dict:
        n = self.attempted
        errors = self.verdicts["known"] + self.verdicts["fail"]
        return {"error_rate": errors / n,
                "refusal_rate": self.verdicts["refused"] / n}


def metadata(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if the
    checkout is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the library's source files, so results name the code."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "stonetrim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            tally: Tally) -> tuple[dict, dict]:
    flags = ("--smoke",) if smoke else ()
    start = time.monotonic()
    setups = [probe_setup(workload, seed, flags)
              for _ in range(SETUP_PROBES)]
    batches = []
    for index in range(max(1, round(BATCHES_PER_20S[workload] * seconds
                                    / 20))):
        left = CHILD_TIMEOUT_S - (time.monotonic() - start)
        batch = run_child(workload, seed, "--gauge", "--batch", str(index),
                          *flags, timeout=left)
        tally.add(batch["ops"])
        batches.append(batch)
    samples: dict[str, list[float]] = {}
    for b in batches:
        for r in b["ops"]:
            samples.setdefault(r["key"], []).append(r["ref_s"])
    latencies = [statistics.median(v) * 1000.0 for v in samples.values()]
    rates = tally.rates()
    metrics = {
        "setup_s": statistics.median(ref for ref, _ in setups),
        "wall_s": statistics.median(b["ref_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
        "ok_rate": 1.0 - rates["error_rate"],
        "answer_rate": 1.0 - rates["refusal_rate"],
    }
    info = dict(rates, op_p50_ms=statistics.median(latencies),
                batches=len(batches), ops=len(samples),
                batch_ref_s=[b["ref_s"] for b in batches],
                batch_wall_s=[b["wall_s"] for b in batches],
                raw_wall_s=statistics.median(b["wall_s"] for b in batches),
                pass_s=[b["pass_s"] for b in batches],
                batch_rss_mb=[b["rss_mb"] for b in batches],
                passes=sum(b["passes"] for b in batches),
                op_samples=sum(len(b["ops"]) for b in batches),
                setup_samples=len(setups),
                raw_setup_s=statistics.median(raw for _, raw in setups),
                outputs_sha256=outputs_digest(batches[0]["ops"]))
    if len(samples) >= P90_MIN_OPS:
        info["op_p90_ms"] = quantile(latencies, 0.9)
    return metrics, info


def measure_traced(workload: str, seed: int, smoke: bool,
                   tally: Tally) -> tuple[dict, dict]:
    flags = ("--smoke",) if smoke else ()
    start = time.monotonic()
    plain = run_child(workload, seed, *flags)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    spans = os.path.join(ROOT, ".perfbench", f"{workload}.spans.jsonl")
    left = CHILD_TIMEOUT_S - (time.monotonic() - start)
    traced = run_child(workload, seed, "--trace", "--spans", spans, *flags,
                       timeout=left)
    tally.add(plain["ops"])
    tally.add(traced["ops"])
    metrics = dict(traced["metrics"])
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    same = outputs_digest(plain["ops"]) == outputs_digest(traced["ops"])
    info = dict(tally.rates(), traced_outputs_match=same,
                spans_file=os.path.relpath(spans, ROOT),
                outputs_sha256=outputs_digest(traced["ops"]),
                untraced_wall_s=plain["wall_s"],
                traced_wall_s=traced["wall_s"])
    return metrics, info


def record() -> int:
    """Rewrite expected.json from the full batch of every workload."""
    expected = {}
    for workload in WORKLOADS:
        batch = run_child(workload, 0, timeout=600.0)
        for r in batch["ops"]:
            expected[r["key"]] = checks.record_entry(r["key"], r["out"])
        print(f"recorded {len(batch['ops'])} ops of {workload}")
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload at its smallest size")
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current program")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stonetrim",
                                       "__init__.py")):
        print(f"no stonetrim sources under {ROOT}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    meta = metadata(args.workload, args.seed)
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, info = measure_traced(args.workload, args.seed,
                                           args.smoke, tally)
            units = PER_LAYER
        else:
            metrics, info = measure(args.workload, args.seed, args.seconds,
                                    args.smoke, tally)
            units = END_TO_END
    except BenchError as e:
        print(str(e), file=sys.stderr)
        return 1
    for (verdict, key, reason), count in sorted(tally.notes.items()):
        print(f"# {verdict} x{count} {key}: {reason}")
    print("# info " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    correct = (tally.verdicts["fail"] == 0
               and info.get("traced_outputs_match", True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.verdicts["fail"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
