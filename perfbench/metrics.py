"""Workload names, and names and units of the benchmark's metrics in print
order."""

WORKLOADS = ("axiom-suite", "self-iso", "deep-build", "cli-mix")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "answer_rate": "ratio",
}

LAWS = ("union-additive", "types-realized", "empty-detection",
        "types-persist", "upward-closed")

# the per-layer metrics, in print order: name -> unit
PER_LAYER: dict[str, str] = {}
for _n in ("poset.leq", "poset.leq_ix", "poset.id_at", "poset.index"):
    PER_LAYER[_n + ".calls"] = "count"
PER_LAYER.update({
    "poset.analytics.self_s": "s",
    "skeleton.build.self_s": "s",
    "skeleton.nodes_built": "count",
    "skeleton.nodes_per_s": "1/s",
    "skeleton.peak_level_nodes": "count",
    "skeleton.theta_image.calls": "count",
    "skeleton.theta_image.self_s": "s",
    "skeleton.children_span.calls": "count",
    "skeleton.verify_structure.self_s": "s",
    "skeleton.failed_extend.self_s": "s",
    "ring.element.calls": "count",
    "ring.element.self_s": "s",
    "ring.lowered_ratio": "ratio",
    "ring.setop.calls": "count",
    "ring.setop.self_s": "s",
    "ring.mask_at.calls": "count",
    "ring.mask_at.self_s": "s",
    "ring.type_of.calls": "count",
    "ring.type_of.self_s": "s",
    "ring.split.calls": "count",
    "ring.split.self_s": "s",
    "ring.verify_type_axioms.self_s": "s",
})
for _law in LAWS:
    PER_LAYER[f"ring.law.{_law}.checked"] = "count"
    PER_LAYER[f"ring.law.{_law}.violations"] = "count"
PER_LAYER.update({
    "typeset.of.calls": "count",
    "typeset.of.self_s": "s",
    "typeset.union.calls": "count",
    "backforth.run.self_s": "s",
    "backforth.extend_iso.calls": "count",
    "backforth.extend_iso.self_s": "s",
    "backforth.extend_iso.p90_ms": "ms",
    "backforth.partial_union.self_s": "s",
    "backforth.levels_grown": "count",
    "backforth.depth_used": "count",
    "backforth.pairs": "count",
    "backforth.steps": "count",
    "backforth.certified_ratio": "ratio",
    "completion.calls": "count",
    "completion.self_s": "s",
    "closure.self_s": "s",
    "points.self_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
})


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a nonempty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, round(q * len(s)) - 1))]
