"""Upper sets of a poset, stored by their minimal antichain.

A TypeSet denotes the upward closure of its antichain.  Normalization keeps
the minimal elements only, sorted by enumeration index, so equal upper sets
compare equal structurally.  Alongside the ids a TypeSet carries the same
antichain as a mask over enumeration indices, and ``from_mask`` interns one
TypeSet per generator mask in the poset's ``typesets`` table.
"""
from __future__ import annotations

from typing import Iterable, Optional

from ._record import Frozen
from .poset import Poset, bits


class TypeSet(Frozen):
    """An upper set represented by its sorted minimal antichain; ``mask``
    has bit i set iff the element with enumeration index i is one of its
    minimal elements.  Without a mask the ids may be any generating set:
    they are normalized to their minimal antichain in index order."""

    __slots__ = ("poset", "min_antichain", "mask")
    _compare = ("poset", "min_antichain")

    def __init__(self, poset: Poset, min_antichain: Iterable[str],
                 mask: Optional[int] = None):
        if mask is None:
            mask = poset.minimal_in(poset.mask_of(min_antichain))
            min_antichain = tuple(map(poset.id_at, bits(mask)))
        self._fill(poset, min_antichain, mask)

    @classmethod
    def of(cls, poset: Poset, members: Iterable[str]) -> "TypeSet":
        """Normalize an arbitrary generating set to its minimal antichain."""
        return cls.from_mask(poset, poset.mask_of(members))

    @classmethod
    def from_mask(cls, poset: Poset, mask: int) -> "TypeSet":
        """Upper set generated by the enumeration indices set in mask: its
        minimal elements are the members above no other member.

        The answer reads only up-set bits between elements already
        enumerated, which a growing prefix never changes, so it is computed
        once per mask and poset."""
        hit = poset.typesets.get(mask)
        if hit is not None:
            return hit
        mins = poset.minimal_in(mask)
        hit = poset.typesets.get(mins)
        if hit is None:
            hit = cls(poset, tuple(poset.id_at(i) for i in bits(mins)), mins)
            poset.typesets[mins] = hit
        poset.typesets[mask] = hit
        return hit

    def __bool__(self) -> bool:
        return bool(self.mask)

    def _upper(self) -> int:
        """The denoted upper set on the enumerated prefix, as a mask."""
        return self.poset.upper_of(self.mask)

    def union(self, other: "TypeSet") -> "TypeSet":
        if other.poset is not self.poset:
            raise ValueError("type sets over different posets")
        return TypeSet.from_mask(self.poset, self.mask | other.mask)

    def members(self, horizon: int) -> frozenset:
        """The denoted upper set restricted to the enumeration prefix; equal
        calls return the same frozenset, before and after the prefix
        grows."""
        return self.poset.upper_members(self.mask, horizon)

    def serialize(self) -> list[str]:
        return list(self.min_antichain)

    def __repr__(self) -> str:
        return f"TypeSet({', '.join(self.min_antichain) or '∅'})"
