"""Count the singleton foundation queries P_Delta makes, and the build
configs resolved to index masks, in one benchmark batch.

Runs the seed-1 batch of each workload of ``perfbench/workloads.py`` in this
process and counts the ``Poset.finite_foundation`` calls made while
``Poset.p_delta`` runs, and the ``BuildConfig.masks`` calls.  Prints one
``workload foundations masks`` line each; given caps as
``workload=foundations:masks`` arguments, exits 1 when a count is over its
cap.

    PYTHONPATH=src python tests/foundation_calls.py axiom-suite=55:135 ...
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))

from stonetrim import BuildConfig, Poset  # noqa: E402
from workloads import make_ops, run_op  # noqa: E402

WORKLOADS = ("axiom-suite", "self-iso", "deep-build", "cli-mix")


def count_calls(workload: str) -> tuple[int, int]:
    """Foundation queries made inside ``p_delta``, and ``masks`` calls,
    over one seed-1 batch."""
    calls, inside = [0, 0], [False]
    p_delta, finite_foundation = Poset.p_delta, Poset.finite_foundation
    masks = BuildConfig.masks

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

    Poset.p_delta, Poset.finite_foundation = (counted_p_delta,
                                              counted_foundation)
    BuildConfig.masks = counted_masks
    try:
        for op in make_ops(workload, 1):
            run_op(op)[2]()
    finally:
        Poset.p_delta, Poset.finite_foundation = p_delta, finite_foundation
        BuildConfig.masks = masks
    return calls[0], calls[1]


def main(argv: list[str]) -> int:
    caps = {w: tuple(map(int, cap.split(":")))
            for w, cap in (arg.split("=") for arg in argv)}
    over = []
    for workload in WORKLOADS:
        got = count_calls(workload)
        print(workload, *got)
        cap = caps.get(workload)
        if cap is not None and any(g > c for g, c in zip(got, cap)):
            over.append(f"{workload}: foundations, masks {list(got)} over "
                        f"{list(cap)}")
    for line in over:
        print(line, file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
