"""Runs of atoms on one skeleton level, sorted, so that bisect finds the
parts of a partition that a run of atoms meets.

The back-and-forth matcher keeps one index per side over its parts, and its
coverage test builds one afresh.  A part is a ring element; every run of
its atoms lifts to one run on any deeper level
(``SkeletonTree.lift_runs``), so one common level holds every part.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

from .poset import runs
from .ring import RingElement
from .skeleton import SkeletonTree


class RunIndex:
    """Parts of one skeleton as runs of atoms on one common level, ``top``,
    in parallel lists sorted by where the runs start.  An owner names its
    part, and ``starts_of`` holds where each owner's runs start, so a part
    leaves by its owner alone.  A deeper part raises the common level:
    lifting keeps each run one run and keeps the runs in order.  ``remove``
    and ``meet`` need the parts to be disjoint; ``fills`` does not."""

    def __init__(self, tree: SkeletonTree, top: int,
                 parts: Iterable[tuple[object, RingElement]] = ()):
        """Index the parts, given as (owner, part), on level top, which no
        part lies below."""
        self.tree = tree
        self.top = top
        self.starts_of: dict = {}
        entries = []
        for owner, part in parts:
            got = self.spans(part)
            self.starts_of[owner] = [a for a, _ in got]
            entries += [(a, b, owner) for a, b in got]
        entries.sort()
        self.starts: list[int] = [a for a, _, _ in entries]
        self.ends: list[int] = [b for _, b, _ in entries]
        self.owners: list = [o for _, _, o in entries]

    def spans(self, part: RingElement) -> list[tuple[int, int]]:
        """The part's runs on level ``top``."""
        return self.tree.lift_runs(part.level, runs(part.mask), self.top)

    def add(self, owner, part: RingElement) -> None:
        if part.level > self.top:
            self.raise_to(part.level)
        got = self.spans(part)
        self.starts_of[owner] = [a for a, _ in got]
        starts = self.starts
        for a, b in got:
            j = bisect_left(starts, a)
            starts.insert(j, a)
            self.ends.insert(j, b)
            self.owners.insert(j, owner)

    def remove(self, owner) -> None:
        starts = self.starts
        for a in self.starts_of.pop(owner):
            j = bisect_left(starts, a)
            del starts[j], self.ends[j], self.owners[j]

    def raise_to(self, top: int) -> None:
        lifted = self.tree.lift_runs(self.top, list(zip(self.starts,
                                                        self.ends)), top)
        moved = {a: b for a, (b, _) in zip(self.starts, lifted)}
        self.starts_of = {owner: [moved[a] for a in got]
                          for owner, got in self.starts_of.items()}
        self.starts = [a for a, _ in lifted]
        self.ends = [b for _, b in lifted]
        self.top = top

    def meet(self, spans: list[tuple[int, int]]) -> tuple[dict, bool]:
        """The owners whose parts meet the runs ``spans`` of level ``top``,
        each mapped to whether its part lies inside them, and whether the
        parts leave a gap in them, that is atoms no part holds."""
        starts, ends, owners = self.starts, self.ends, self.owners
        met: dict = {}
        gap = False
        for lo, hi in spans:
            # the parts' runs are disjoint, so of the runs starting at or
            # before lo only the last can reach past it
            first = bisect_right(starts, lo)
            if first and ends[first - 1] > lo:
                first -= 1
            at = lo
            for j in range(first, bisect_left(starts, hi)):
                key = owners[j]
                met[key] = met.get(key, 0) + (lo <= starts[j] and ends[j] <= hi)
                gap = gap or starts[j] > at
                at = max(at, ends[j])
            gap = gap or at < hi
        starts_of = self.starts_of
        return {key: n == len(starts_of[key]) for key, n in met.items()}, gap

    def fills(self, lo: int, hi: int) -> bool:
        """Do the parts lying wholly inside the run lo..hi-1 of level
        ``top`` cover it?  Parts may overlap here, so every run starting
        inside it is read, and a part lies inside when all its runs are
        among those that end inside it too."""
        starts, ends, owners = self.starts, self.ends, self.owners
        window = range(bisect_left(starts, lo), bisect_left(starts, hi))
        held: dict = {}
        for j in window:
            if ends[j] <= hi:
                held[owners[j]] = held.get(owners[j], 0) + 1
        at = lo
        for j in window:
            if held.get(owners[j]) == len(self.starts_of[owners[j]]):
                if starts[j] > at:
                    return False
                at = max(at, ends[j])
        return at == hi
