"""Points of the limit space as descending atom paths.

A path prefix walks parent to child through consecutive levels.  Its type
sequence weakly ascends; a stabilized tail names an ordinary element, while
a strictly climbing tail along a poset with infinite ascents approximates a
completion token rather than any element.
"""
from __future__ import annotations

from math import ceil
from typing import Optional

from ._record import Frozen
from .completion import token_name
from .skeleton import SkeletonTree


class PointError(ValueError):
    """A path request that the skeleton cannot satisfy."""


class PathPrefix(Frozen):
    __slots__ = _compare = ("tree", "nodes")

    def __init__(self, tree: SkeletonTree, nodes: tuple[tuple[int, int], ...]):
        if not nodes:
            raise PointError("a path prefix needs at least one node")
        for lvl, ix in nodes:
            if not (0 < lvl <= tree.depth and 0 <= ix < len(tree.level(lvl))):
                raise PointError(f"no node {lvl}.{ix} on the levels built "
                                 f"(depth {tree.depth})")
        for (a_lvl, a_ix), (b_lvl, b_ix) in zip(nodes, nodes[1:]):
            if b_lvl != a_lvl + 1:
                raise PointError("path levels must be consecutive")
            s, e = tree.children_span(a_lvl, a_ix)
            if not s <= b_ix < e:
                raise PointError(f"{b_lvl}.{b_ix} is not a child of "
                                 f"{a_lvl}.{a_ix}")
        self._fill(tree, nodes)

    def type_ids(self) -> tuple[str, ...]:
        poset = self.tree.poset
        out = []
        for lvl, ix in self.nodes:
            out.append(poset.id_at(self.tree.level(lvl).types[ix]))
        return tuple(out)

    def serialize(self) -> dict:
        return {"nodes": [list(n) for n in self.nodes],
                "types": list(self.type_ids())}


def ancestry(tree: SkeletonTree, level: int, index: int) -> PathPrefix:
    """The maximal parent chain ending at the given node."""
    chain = [(level, index)]
    lvl, ix = level, index
    while lvl > 1:
        p = tree.level(lvl).parent_of(ix)
        if p is None:
            break
        lvl, ix = lvl - 1, p
        chain.append((lvl, ix))
    return PathPrefix(tree, tuple(reversed(chain)))


def realize_chain(tree: SkeletonTree, chain: list[str]) -> PathPrefix:
    """Find a path whose consecutive types are the given ascending chain.

    The path starts at the lowest level where every chain member is already
    enumerated in time, takes the first atom typed by the first member, and
    then always the first matching child.
    """
    if not chain:
        raise PointError("empty chain")
    poset = tree.poset
    for a, b in zip(chain, chain[1:]):
        if not poset.lt(a, b):
            raise PointError(f"chain is not strictly ascending at {a!r}, {b!r}")
    idx = [poset.index(c) for c in chain]
    start = max(ix - off for off, ix in enumerate(idx))
    start = max(start, 1)
    need = start + len(chain) - 1
    if need > tree.depth:
        raise PointError(f"chain needs depth {need}, tree has {tree.depth}")
    first = tree.level(start).type_mask(idx[0])
    if not first:
        raise PointError(f"no atom of type {chain[0]!r} at level {start}")
    ix0 = (first & -first).bit_length() - 1
    nodes = [(start, ix0)]
    for step, want in enumerate(idx[1:], 1):
        lvl, cur = nodes[-1]
        s, e = tree.children_span(lvl, cur)
        nxt = tree.level(lvl + 1)
        hit = next((j for j in range(s, e) if nxt.types[j] == want), None)
        if hit is None:
            raise PointError(f"no child of type {chain[step]!r} under "
                             f"{lvl}.{cur}")
        nodes.append((lvl + 1, hit))
    return PathPrefix(tree, tuple(nodes))


class PointLabel(Frozen):
    """kind is "clean", "limit" or "undetermined"."""

    __slots__ = _compare = ("kind", "value", "detail")

    def __init__(self, kind: str, value: str = "", detail: str = ""):
        self._fill(kind, value, detail)

    def serialize(self) -> dict:
        return {"kind": self.kind, "value": self.value, "detail": self.detail}


def label_prefix(path: PathPrefix) -> PointLabel:
    """Classify what a finite path prefix is converging to.

    A stabilized tail (at least half the path, minimum two entries) names
    that element.  A strictly climbing path of length three or more along a
    poset whose ascending chains are known or suspected infinite points at a
    completion token; posets with stabilizing ascents never get that label.
    """
    types = path.type_ids()
    d = len(types)
    tail = max(2, ceil(d / 2))
    if d >= tail and len(set(types[-tail:])) == 1:
        return PointLabel("clean", types[-1],
                          f"type constant over the last {tail} levels")
    poset = path.tree.poset
    strict = all(poset.lt(a, b) for a, b in zip(types, types[1:]))
    if strict and d >= 3:
        acc = True if poset.finite else poset.analytics.acc
        if acc is not True:
            display: Optional[str] = None
            if poset.analytics.limit_display is not None:
                display = poset.analytics.limit_display(types)
            if display is None:
                display = token_name(types)
            return PointLabel("limit", display,
                              f"strictly ascending through {d} levels")
        return PointLabel("undetermined", "",
                          "ascending, but all ascents here stabilize")
    if strict:
        return PointLabel("undetermined", "", "ascending but too short")
    return PointLabel("undetermined", "", "no stabilized tail yet")
