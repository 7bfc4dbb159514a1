"""One batch of one workload in a fresh interpreter; started by run.py.

Prints a single JSON line: set-up time, each op's latency and output summary,
the batch's summed op time, the process's peak RSS and, when traced, the
per-layer metrics.  With ``--gauge`` the op times leave out the reference
kernel's passes that interrupt them, and come in reference seconds as well
(refspeed.py).  Output summaries are made after each op's clock and
traced span have ended, with the tracer's counting paused.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--batch", type=int, default=0,
                    help="index of the batch in its run; picks the op order")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="stop once the first op is ready")
    ap.add_argument("--spans", help="file to write the spans to")
    ap.add_argument("--gauge", action="store_true",
                    help="time kernel passes among the ops (refspeed.py) "
                         "and report op times in reference seconds too")
    args = ap.parse_args()

    import stonetrim  # noqa: F401  (the import is part of set-up)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    from refspeed import Gauge, ref_seconds
    ops = workloads.make_ops(args.workload, args.seed, args.batch,
                             smoke=args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.probe:
        records = []
        with Gauge() if args.gauge else contextlib.nullcontext() as gauge:
            for op_id, op in enumerate(ops):
                if tracer:
                    tracer.begin_op(op_id)
                try:
                    start, end, summarize = workloads.run_op(op)
                finally:
                    if tracer:
                        tracer.end_op()
                with tracer.paused() if tracer else contextlib.nullcontext():
                    out = summarize()
                del summarize  # frees the op's trees before the next op
                records.append({"key": op["key"], "start": start,
                                "end": end, "out": out})
        for r in records:
            start, end = r.pop("start"), r.pop("end")
            if gauge:
                r["s"], r["ref_s"] = ref_seconds(start, end, gauge.passes)
            else:
                r["s"] = end - start
        result["ops"] = records
        result["wall_s"] = sum(r["s"] for r in records)
        if gauge:
            result["ref_s"] = sum(r["ref_s"] for r in records)
            result["passes"] = len(gauge.passes)
            result["pass_s"] = statistics.median(
                b - a for a, b in gauge.passes)
        if tracer:
            result["metrics"] = tracer.metrics()
            if args.spans:
                tracer.dump_spans(args.spans)
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
