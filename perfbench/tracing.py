"""Per-layer tracing installed from outside the library.

``Tracer.install`` wraps the public functions of each stonetrim module in
every module namespace that bound them, and the methods of its classes.  A
wrapped call records a span: its name, start, end, parent span and op id.
A layer's self time is its spans' durations minus the time their child spans
cover.  The hot order-oracle methods are counted and get no span.

Spans of at least ``MIN_KEPT_S`` are kept in memory; ``dump_spans`` writes
them out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

from stonetrim import (backforth, cli, closure, completion, points, poset,
                       ring, skeleton, typeset)

from metrics import LAWS, quantile


# metric group -> (owner, attribute) of every function spanned under it
SPANNED = {
    "poset.analytics": [(poset.Poset, n) for n in (
        "extremal_elements", "confirmed_minimal", "finite_foundation",
        "p_delta", "check_acc", "check_omega_complete",
        "is_chain_unique_over")],
    "skeleton.build": [(skeleton, "build_levels"),
                       (skeleton.SkeletonTree, "extend_to")],
    "skeleton.theta_image": [(skeleton.SkeletonTree, "theta_image")],
    "skeleton.verify_structure": [(skeleton, "verify_structure")],
    "ring.setop": [(ring.RingElement, n) for n in (
        "union", "intersect", "difference", "symmetric_difference",
        "complement", "contains", "disjoint_from")],
    "ring.mask_at": [(ring.RingElement, "mask_at")],
    "ring.type_of": [(ring.RingElement, "type_of")],
    "ring.split": [(ring, "trim_split"), (ring, "split_by_scarce_atoms"),
                   (ring, "supertrim_split")],
    "typeset.of": [(typeset.TypeSet, "of")],
    "typeset.union": [(typeset.TypeSet, "union")],
    "backforth.run": [(backforth, "init_iso"),
                      (backforth, "lift_poset_automorphism")],
    "backforth.partial_union": [(backforth.PartialIso, "union")],
    "completion": [(completion, "complete_finite"),
                   (completion, "complete_over"),
                   (completion, "chain_closure")],
    "closure": [(closure, n) for n in (
        "rieger_nishimura_run", "classify_algebra", "check_identities",
        "e_of_p", "check_closure_axioms", "render_trace_text",
        "render_trace_dot")],
    "points": [(points, "realize_chain"), (points, "label_prefix"),
               (points, "ancestry")],
    "cli": [(cli, "main")],
}

# counted, no span
COUNTED = {
    "poset.leq": (poset.Poset, "leq"),
    "poset.leq_ix": (poset.Poset, "leq_ix"),
    "poset.id_at": (poset.Poset, "id_at"),
    "poset.index": (poset.Poset, "index"),
    "skeleton.children_span": (skeleton.SkeletonTree, "children_span"),
}

# Shorter spans still count toward their layer's calls and self time, but
# are not kept: the axiom suite opens over a million of them.
MIN_KEPT_S = 1e-4


class Tracer:
    """Span recorder and counters for one child process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # id, name ix, start, end, parent, op
        self.opened = 0
        self.stack: list[list] = []       # [span id, child time]
        self.op_id = -1
        self.calls: dict[str, list] = {}  # group -> [calls, self time]
        self.counts = {name: [0] for name in COUNTED}
        self.extend_ms: list[float] = []
        self.nodes = {"built": 0, "peak": 0, "build_s": 0.0}
        self.ring = {"lowered": 0}
        self.laws = {law: [0, 0] for law in LAWS}
        self.bf = {"levels_grown": 0, "depth_used": 0, "pairs": 0,
                   "steps": 0, "self_pairs": 0, "certified": 0}
        self._op_stats = self._group("op")
        self._op_name = self._name("op")

    # -- spans -------------------------------------------------------------

    def _open(self, name_ix: int) -> tuple[int, int]:
        span_id = self.opened
        self.opened += 1
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append([span_id, 0.0])
        return span_id, parent

    def _close(self, group: list, name_ix: int, span_id: int, parent: int,
               start: float) -> float:
        end = time.perf_counter()
        dur = end - start
        _, child = self.stack.pop()
        group[0] += 1
        group[1] += dur - child
        if self.stack:
            self.stack[-1][1] += dur
        if dur >= MIN_KEPT_S:
            self.spans.append((span_id, name_ix, start, end, parent,
                               self.op_id))
        return dur

    def _group(self, group: str) -> list:
        return self.calls.setdefault(group, [0, 0.0])

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, group: str, name: str, fn, after=None):
        """Wrap fn in a span; ``after(args, result, duration)`` runs on
        return."""
        stats = self._group(group)
        name_ix = self._name(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            span_id, parent = tracer._open(name_ix)
            start = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dur = tracer._close(stats, name_ix, span_id, parent, start)
            if after is not None:
                after(args, result, dur)
            return result
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_span = self._open(self._op_name)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        span_id, parent = self._op_span
        self._close(self._op_stats, self._op_name, span_id, parent,
                    self._op_start)

    @contextlib.contextmanager
    def paused(self):
        """Leave what runs inside, such as the harness's output summaries,
        out of every count, span and metric.  State is restored in place,
        because the wrappers hold references to its cells."""
        cells = [*self.calls.values(), *self.counts.values(),
                 *self.laws.values()]
        saved = [list(cell) for cell in cells]
        tables = (self.nodes, self.ring, self.bf)
        saved_tables = [dict(t) for t in tables]
        opened, kept, extends = (self.opened, len(self.spans),
                                 len(self.extend_ms))
        try:
            yield
        finally:
            for cell, value in zip(cells, saved):
                cell[:] = value
            for table, value in zip(tables, saved_tables):
                table.clear()
                table.update(value)
            self.opened = opened
            del self.spans[kept:]
            del self.extend_ms[extends:]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "stonetrim" or name.startswith("stonetrim.")]

        def patch(owner, attr, make):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
                return
            new = make(raw)
            setattr(owner, attr, new)
            if isinstance(owner, type):
                return
            # module function: rebind in every namespace that imported it
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, new)

        for group, targets in SPANNED.items():
            for owner, attr in targets:
                patch(owner, attr, functools.partial(
                    self.span, group, f"{owner.__name__}.{attr}"))
        for name, (owner, attr) in COUNTED.items():
            patch(owner, attr, functools.partial(self._counter, name))
        patch(skeleton.SkeletonTree, "_build_next", self._build_next)
        patch(ring.RingElement, "__init__", functools.partial(
            self.span, "ring.element", "RingElement.__init__",
            after=self._lowered))
        patch(ring, "verify_type_axioms", functools.partial(
            self.span, "ring.verify_type_axioms", "verify_type_axioms",
            after=self._laws))
        patch(backforth, "extend_iso", functools.partial(
            self.span, "backforth.extend_iso", "extend_iso",
            after=lambda args, result, dur: self.extend_ms.append(
                dur * 1000.0)))
        patch(backforth, "run_backforth", self._run_backforth)

    def _counter(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _build_next(self, fn):
        ok = self._group("skeleton.build")
        failed = self._group("skeleton.failed_extend")
        name_ix = self._name("SkeletonTree._build_next")
        tracer, nodes = self, self.nodes

        @functools.wraps(fn)
        def wrapper(tree):
            span_id, parent = tracer._open(name_ix)
            start = time.perf_counter()
            group = failed
            try:
                fn(tree)
                group = ok
            finally:
                dur = tracer._close(group, name_ix, span_id, parent, start)
            size = len(tree.level(tree.depth))
            nodes["built"] += size
            nodes["peak"] = max(nodes["peak"], size)
            nodes["build_s"] += dur
        return wrapper

    def _lowered(self, args, result, dur) -> None:
        elem, _tree, level = args[:3]
        if elem.level < level:
            self.ring["lowered"] += 1

    def _laws(self, args, report, dur) -> None:
        for law, entry in report["axioms"].items():
            cell = self.laws.setdefault(law, [0, 0])
            cell[0] += entry["checked"]
            cell[1] += entry["violations"]

    def _run_backforth(self, fn):
        inner = self.span("backforth.run", "run_backforth", fn)
        bf = self.bf

        @functools.wraps(fn)
        def wrapper(left, right, *args, **kw):
            before = left.depth + right.depth
            run = inner(left, right, *args, **kw)
            bf["levels_grown"] += left.depth + right.depth - before
            bf["depth_used"] = max(bf["depth_used"], run.depth_used)
            bf["pairs"] += run.pairs
            bf["steps"] += len(run.transcript)
            if (left.poset.name == right.poset.name
                    and left.config.isolated == right.config.isolated):
                bf["self_pairs"] += 1
                bf["certified"] += run.status == "iso"
            return run
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        def calls(group):
            return self.calls.get(group, [0, 0.0])[0]

        def self_s(*groups):
            return sum(self.calls.get(g, [0, 0.0])[1] for g in groups)

        out = {f"{name}.calls": cell[0] for name, cell in self.counts.items()}
        out.update({
            "poset.analytics.self_s": self_s("poset.analytics"),
            "skeleton.build.self_s": self_s("skeleton.build"),
            "skeleton.nodes_built": self.nodes["built"],
            "skeleton.nodes_per_s": (self.nodes["built"]
                                     / self.nodes["build_s"]
                                     if self.nodes["build_s"] else 0.0),
            "skeleton.peak_level_nodes": self.nodes["peak"],
            "skeleton.failed_extend.self_s": self_s("skeleton.failed_extend"),
            "ring.lowered_ratio": (self.ring["lowered"]
                                   / calls("ring.element")
                                   if calls("ring.element") else 0.0),
            "backforth.extend_iso.p90_ms": (quantile(self.extend_ms, 0.9)
                                            if self.extend_ms else 0.0),
            "backforth.certified_ratio": (
                self.bf["certified"] / self.bf["self_pairs"]
                if self.bf["self_pairs"] else 0.0),
            "completion.calls": calls("completion"),
            "trace.spans": self.opened,
        })
        for group in ("skeleton.theta_image", "ring.element", "ring.setop",
                      "ring.mask_at", "ring.type_of", "ring.split",
                      "typeset.of", "backforth.extend_iso"):
            out[f"{group}.calls"] = calls(group)
        for group in ("skeleton.theta_image", "skeleton.verify_structure",
                      "ring.element", "ring.setop", "ring.mask_at",
                      "ring.type_of", "ring.split", "ring.verify_type_axioms",
                      "typeset.of", "backforth.run", "backforth.extend_iso",
                      "backforth.partial_union", "completion", "closure",
                      "points", "cli"):
            out[f"{group}.self_s"] = self_s(group)
        out["typeset.union.calls"] = calls("typeset.union")
        for law, (checked, bad) in self.laws.items():
            out[f"ring.law.{law}.checked"] = checked
            out[f"ring.law.{law}.violations"] = bad
        for key in ("levels_grown", "depth_used", "pairs", "steps"):
            out[f"backforth.{key}"] = self.bf[key]
        return out

    def dump_spans(self, path) -> None:
        """Write each kept span as a JSON line: id, name, start, end, parent
        span id (-1 for none) and op index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name_ix, start, end, parent, op in self.spans:
                fh.write(json.dumps([span_id, self.names[name_ix], start,
                                     end, parent, op]) + "\n")
