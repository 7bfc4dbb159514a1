"""Upper sets of a poset, stored by their minimal antichain.

A TypeSet denotes the upward closure of its antichain.  Normalization keeps
the minimal elements only, sorted by enumeration index, so equal upper sets
compare equal structurally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .poset import Poset, bits


@dataclass(frozen=True)
class TypeSet:
    """An upper set represented by its sorted minimal antichain."""

    poset: Poset
    min_antichain: tuple[str, ...]

    @classmethod
    def of(cls, poset: Poset, members: Iterable[str]) -> "TypeSet":
        """Normalize an arbitrary generating set to its minimal antichain."""
        mask = 0
        for p in set(members):
            mask |= 1 << poset.index(p)
        return cls.from_mask(poset, mask)

    @classmethod
    def from_mask(cls, poset: Poset, mask: int) -> "TypeSet":
        """Upper set generated by the enumeration indices set in mask: its
        minimal elements are the members above no other member."""
        above = 0
        for q in bits(mask):
            above |= poset.up_mask(q) & ~(1 << q)
        mins = [poset.id_at(i) for i in bits(mask & ~above)]
        return cls(poset, tuple(mins))

    @classmethod
    def empty(cls, poset: Poset) -> "TypeSet":
        return cls(poset, ())

    def __bool__(self) -> bool:
        return bool(self.min_antichain)

    def is_empty(self) -> bool:
        return not self.min_antichain

    def contains(self, p: str) -> bool:
        """Is p in the denoted upper set?"""
        self.poset.index(p)
        return any(self.poset.leq(g, p) for g in self.min_antichain)

    def union(self, other: "TypeSet") -> "TypeSet":
        if other.poset is not self.poset:
            raise ValueError("type sets over different posets")
        return TypeSet.of(self.poset, self.min_antichain + other.min_antichain)

    def trim_generator(self) -> str | None:
        """The single generator if this is a principal upper set, else None."""
        if len(self.min_antichain) == 1:
            return self.min_antichain[0]
        return None

    def members(self, horizon: int) -> frozenset:
        """The denoted upper set restricted to the enumeration prefix."""
        return self.poset.up_closure(self.min_antichain, horizon)

    def serialize(self) -> list[str]:
        return list(self.min_antichain)

    def __le__(self, other: "TypeSet") -> bool:
        """Denoted-set inclusion."""
        return all(other.contains(g) for g in self.min_antichain)

    def __repr__(self) -> str:
        return f"TypeSet({', '.join(self.min_antichain) or '∅'})"
