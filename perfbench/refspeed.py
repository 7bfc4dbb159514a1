"""A fixed reference kernel that gauges how fast the host runs Python now.

The benchmark shares a host whose speed changes by up to about twice every
few seconds, so an op's raw time says as much about the host as about the
program.  While a batch runs, an interval timer interrupts the child every
``PERIOD_S`` and the signal handler times one pass of this kernel.  Each
stretch of op time between two passes is then scaled by ``KERNEL_REF_S``
over the mean time of the passes on either side of it.  That gives the op's
time in reference seconds: the time it would take on a host where one pass
takes ``KERNEL_REF_S``.  Pass time is taken out of the op's time first.

The kernel uses nothing from the library, so a change to the library moves
the scaled time and leaves the kernel as it was.  It mixes the kinds of
interpreter work the library does: tuple keys in dicts and frozensets, as in
the order memo; small objects linked into levels, as in tree building; and
integer bit operations, as in ring masks.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time

# about one pass of the kernel on a 2-vCPU Intel Xeon VM, Python 3.11.7
KERNEL_REF_S = 0.010
# timer period between passes; passes take about a tenth of a batch
PERIOD_S = 0.1


class _Node:
    __slots__ = ("key", "parent", "index")

    def __init__(self, key, parent, index):
        self.key = key
        self.parent = parent
        self.index = index


def kernel() -> int:
    """One pass; returns a checksum so that nothing is optimised away."""
    keys = [((i * 7919) % 211, (i * 104729) % 199) for i in range(250)]
    acc = 0
    for _ in range(24):
        memo = {}
        for a, b in keys:
            memo[a, b] = frozenset((a, b, a ^ b))
        for a, b in keys:
            other = memo.get((b, a))
            if other is not None:
                acc += len(other & memo[a, b])
            acc += len(memo[a, b] | {a})
    for _ in range(3):
        levels = [[_Node(1, None, 0)]]
        for n in range(1, 11):
            level = []
            for i, node in enumerate(levels[-1]):
                level.append(_Node(node.key << 1 | 1, node, i))
                if (i + n) % 3:
                    level.append(_Node(node.key << 1, node, i))
            levels.append(level)
        for node in levels[-1]:
            mask = node.key
            acc += (mask & -mask).bit_length() + bin(mask).count("1")
    return acc


def timed_pass() -> float:
    """Seconds one pass of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Gauge:
    """Kernel passes at a fixed period, run by a SIGALRM handler in the
    main thread, so they also run inside long ops.  ``passes`` holds each
    pass's (start, end) on the ``time.perf_counter`` clock; one pass runs on
    entry and one on exit, so every op timed inside has a pass on either
    side."""

    def __init__(self):
        self.passes: list[tuple[float, float]] = []
        self._old_handler = None

    def run_pass(self, *_signal_args) -> None:
        # A collection set off inside the pass would scan the op's heap and
        # be timed as kernel time; the pass makes no reference cycles.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.passes.append((t0, time.perf_counter()))
        if collecting:
            gc.enable()

    def __enter__(self) -> "Gauge":
        self.run_pass()
        self._old_handler = signal.signal(signal.SIGALRM, self.run_pass)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.run_pass()


def ref_seconds(start: float, end: float,
                passes: list[tuple[float, float]]) -> tuple[float, float]:
    """An op's time from ``start`` to ``end`` less the passes inside it,
    raw and in reference seconds.  ``passes`` is in time order and holds a
    pass that ended before ``start`` and one that starts after ``end``."""
    starts = [p[0] for p in passes]
    first = bisect.bisect_left(starts, start)
    last = bisect.bisect_left(starts, end)
    raw = ref = 0.0
    cur = start
    # the stretch of op time between pass k - 1 and pass k
    for k in range(first, last + 1):
        stop = passes[k][0] if k < last else end
        before = passes[k - 1][1] - passes[k - 1][0]
        after = passes[k][1] - passes[k][0]
        raw += stop - cur
        ref += (stop - cur) * KERNEL_REF_S * 2.0 / (before + after)
        cur = passes[k][1]
    return raw, ref
