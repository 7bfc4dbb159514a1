"""Points of the limit space as descending atom paths.

A path prefix walks parent to child through consecutive levels.  Its type
sequence weakly ascends; a stabilized tail names an ordinary element, while
a strictly climbing tail along a poset with infinite ascents approximates a
completion token rather than any element.
"""
from __future__ import annotations

from math import ceil

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
    idx = [poset.index(chain[0])]
    for a, b in zip(chain, chain[1:]):
        i, j = idx[-1], poset.index(b)
        if i == j or not poset.up_mask(i) >> j & 1:
            raise PointError(f"chain is not strictly ascending at {a!r}, {b!r}")
        idx.append(j)
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
    completion token, unless it ends at a family-confirmed maximal element
    (``complete_over`` gives it no token); posets with stabilizing ascents
    never get that label.
    """
    tree = path.tree
    poset = tree.poset
    ix = [tree.level(lvl).types[i] for lvl, i in path.nodes]
    d = len(ix)
    tail = max(2, ceil(d / 2))
    if d >= tail and len(set(ix[-tail:])) == 1:
        return PointLabel("clean", poset.id_at(ix[-1]),
                          f"type constant over the last {tail} levels")
    strict = all(a != b and poset.up_mask(a) >> b & 1
                 for a, b in zip(ix, ix[1:]))
    if strict and d >= 3:
        a = None if poset.finite else poset.analytics
        if a is None or a.acc is True:
            return PointLabel("undetermined", "",
                              "ascending, but all ascents here stabilize")
        top = ix[-1]
        if a.maximal and a.maximal(poset, top) >> top & 1:
            return PointLabel("undetermined", "",
                              f"ascending to {poset.id_at(top)}, which is "
                              f"confirmed maximal")
        display = a.limit_display and a.limit_display(tuple(ix))
        return PointLabel("limit", display or token_name(path.type_ids()),
                          f"strictly ascending through {d} levels")
    if strict:
        return PointLabel("undetermined", "", "ascending but too short")
    return PointLabel("undetermined", "", "no stabilized tail yet")
