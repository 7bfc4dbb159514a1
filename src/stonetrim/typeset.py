"""Upper sets of a poset, stored by their minimal generators.

An upper set is fixed by its minimal elements, so a TypeSet is a value
that holds only their mask over enumeration indices, and equal upper sets
compare equal.  The integer core types a clopen set by that mask alone
(``Poset.minimal_in``); a TypeSet names it, and ``Poset.upper_of`` of
its mask gives the denoted upper set as a mask.
"""
from __future__ import annotations

from typing import Iterable

from ._record import Frozen
from .poset import Poset, bits


class TypeSet(Frozen):
    """An upper set: ``mask`` has bit i set iff the element with enumeration
    index i is one of its minimal elements.  The constructor's ids may be
    any generating set: they are normalized to their minimal antichain."""

    __slots__ = _compare = ("poset", "mask")

    def __init__(self, poset: Poset, min_antichain: Iterable[str]):
        self._fill(poset, poset.minimal_in(poset.mask_of(min_antichain)))

    def __reduce__(self):
        # __init__ takes ids, so a copy rebuilds from the generator mask
        return TypeSet.from_mask, (self.poset, self.mask)

    @property
    def min_antichain(self) -> tuple[str, ...]:
        """Ids of the minimal elements, in enumeration order."""
        return tuple(map(self.poset.id_at, bits(self.mask)))

    @classmethod
    def of(cls, poset: Poset, members: Iterable[str]) -> "TypeSet":
        """Normalize an arbitrary generating set to its minimal antichain."""
        return cls.from_mask(poset, poset.mask_of(members))

    @classmethod
    def from_mask(cls, poset: Poset, mask: int) -> "TypeSet":
        """Upper set generated by the enumeration indices set in mask: its
        minimal elements are the members above no other member."""
        ts = cls.__new__(cls)
        ts._fill(poset, poset.minimal_in(mask))
        return ts

    def __bool__(self) -> bool:
        return bool(self.mask)

    def union(self, other: "TypeSet") -> "TypeSet":
        if other.poset is not self.poset:
            raise ValueError("type sets over different posets")
        return TypeSet.from_mask(self.poset, self.mask | other.mask)

    def serialize(self) -> list[str]:
        return list(self.min_antichain)

    def __repr__(self) -> str:
        return f"TypeSet({', '.join(self.min_antichain) or '∅'})"
