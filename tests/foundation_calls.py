"""Count the singleton foundation queries P_Delta makes, the build
configs resolved to index masks, and the levels the type-function laws
read without a node-derived rule, in one benchmark batch.

Runs the seed-1 batch of each workload of ``perfbench/workloads.py`` in this
process and counts the ``Poset.finite_foundation`` calls made while
``Poset.p_delta`` runs, the ``BuildConfig.masks`` calls, and the
``ring._persist_rows`` calls whose level ``skeleton.node_rules`` refused, so
that regroup their rows node by node.  Prints one ``workload foundations
masks regrouped`` line each; given caps as
``workload=foundations:masks:regrouped`` arguments, exits 1 when a count is
over its cap.

    PYTHONPATH=src python tests/foundation_calls.py axiom-suite=55:135:0 ...
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))

from stonetrim import BuildConfig, Poset, ring  # noqa: E402
from workloads import make_ops, run_op  # noqa: E402

WORKLOADS = ("axiom-suite", "self-iso", "deep-build", "cli-mix")


def count_calls(workload: str) -> tuple[int, int, int]:
    """Foundation queries made inside ``p_delta``, ``masks`` calls, and
    levels the laws regroup without a rule, over one seed-1 batch."""
    calls, inside = [0, 0, 0], [False]
    p_delta, finite_foundation = Poset.p_delta, Poset.finite_foundation
    masks, persist_rows = BuildConfig.masks, ring._persist_rows

    def counted_p_delta(self, horizon):
        outer, inside[0] = inside[0], True
        try:
            return p_delta(self, horizon)
        finally:
            inside[0] = outer

    def counted_foundation(self, mask, horizon):
        calls[0] += inside[0]
        return finite_foundation(self, mask, horizon)

    def counted_masks(self, n):
        calls[1] += 1
        return masks(self, n)

    def counted_rows(tree, n, rule):
        calls[2] += rule is None
        return persist_rows(tree, n, rule)

    Poset.p_delta, Poset.finite_foundation = (counted_p_delta,
                                              counted_foundation)
    BuildConfig.masks, ring._persist_rows = counted_masks, counted_rows
    try:
        for op in make_ops(workload, 1):
            run_op(op)[2]()
    finally:
        Poset.p_delta, Poset.finite_foundation = p_delta, finite_foundation
        BuildConfig.masks, ring._persist_rows = masks, persist_rows
    return tuple(calls)


def main(argv: list[str]) -> int:
    caps = {w: tuple(map(int, cap.split(":")))
            for w, cap in (arg.split("=") for arg in argv)}
    over = []
    for workload in WORKLOADS:
        got = count_calls(workload)
        print(workload, *got)
        cap = caps.get(workload)
        if cap is not None and any(g > c for g, c in zip(got, cap)):
            over.append(f"{workload}: foundations, masks, regrouped "
                        f"{list(got)} over {list(cap)}")
    for line in over:
        print(line, file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
