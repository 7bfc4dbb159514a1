"""Boolean ring of clopen sets over a skeleton.

An element is a set of atoms on one level, held as a bitmask.  Elements are
canonical: whenever a mask covers whole sibling blocks and touches no
unattached atom, it drops to the parent level.  Set operations lift both
sides to a common level first; the lift of an atom is its full child block,
so unattached nodes of deeper levels never enter a lifted element.
"""
from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Optional

from .poset import bits, runs
from .skeleton import SkeletonTree
from .typeset import TypeSet


class RingError(ValueError):
    """Operation on incompatible or malformed ring elements."""


def _lower(tree: SkeletonTree, level: int, mask: int) -> tuple[int, int]:
    """Drop the mask a level while it is a union of whole sibling blocks
    free of unattached atoms.  Blocks of consecutive parents are adjacent,
    so a run of set bits is such a union iff it starts where its first
    parent's block starts and ends where its last parent's block ends."""
    if not mask:
        return 1, 0
    while level > 1:
        lvl = tree.level(level)
        if mask & lvl.u_mask:
            break
        above = tree.level(level - 1)
        parent_mask = 0
        for a, b in runs(mask):
            p, q = lvl.parent[a], lvl.parent[b - 1]
            if above.child_start[p] != a or above.child_end[q] != b:
                return level, mask
            parent_mask |= (1 << q + 1) - (1 << p)
        level, mask = level - 1, parent_mask
    return level, mask


class RingElement:
    """A clopen set: atoms of one skeleton level, canonically lowered."""

    __slots__ = ("tree", "level", "mask")

    def __init__(self, tree: SkeletonTree, level: int, mask: int):
        if level < 1 or level > tree.depth:
            raise RingError(f"level {level} outside built depth {tree.depth}")
        if mask < 0 or mask > tree.level(level).full_mask:
            raise RingError("mask has bits outside the level")
        level, mask = _lower(tree, level, mask)
        self.tree = tree
        self.level = level
        self.mask = mask

    @classmethod
    def empty(cls, tree: SkeletonTree) -> "RingElement":
        return cls(tree, 1, 0)

    @classmethod
    def atom(cls, tree: SkeletonTree, level: int, index: int) -> "RingElement":
        return cls(tree, level, 1 << index)

    @classmethod
    def whole(cls, tree: SkeletonTree) -> "RingElement":
        return cls(tree, 1, 1)

    # ------------------------------------------------------------------

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingElement) and other.tree is self.tree
                and other.level == self.level and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.tree), self.level, self.mask))

    def __repr__(self) -> str:
        return f"RingElement(level={self.level}, mask={bin(self.mask)})"

    def atom_count(self) -> int:
        return bin(self.mask).count("1")

    def atom_indices(self) -> list[int]:
        return list(bits(self.mask))

    def mask_at(self, level: int) -> int:
        """The element's atom set expressed on a deeper level."""
        if level < self.level:
            raise RingError("cannot express an element above its level")
        if level > self.tree.depth:
            raise RingError(f"level {level} not built")
        m = self.mask
        for n in range(self.level, level):
            m = self.tree.theta_image(n, m)
        return m

    def at(self, level: int) -> "RingElement":
        return RingElement(self.tree, level, self.mask_at(level))

    # ------------------------------------------------------------------

    def _pair(self, other: "RingElement") -> tuple[int, int, int]:
        if not isinstance(other, RingElement) or other.tree is not self.tree:
            raise RingError("elements belong to different skeletons")
        n = max(self.level, other.level)
        return n, self.mask_at(n), other.mask_at(n)

    def union(self, other: "RingElement") -> "RingElement":
        n, a, b = self._pair(other)
        return RingElement(self.tree, n, a | b)

    def intersect(self, other: "RingElement") -> "RingElement":
        n, a, b = self._pair(other)
        return RingElement(self.tree, n, a & b)

    def difference(self, other: "RingElement") -> "RingElement":
        n, a, b = self._pair(other)
        return RingElement(self.tree, n, a & ~b)

    def symmetric_difference(self, other: "RingElement") -> "RingElement":
        n, a, b = self._pair(other)
        return RingElement(self.tree, n, a ^ b)

    def complement(self, at_level: Optional[int] = None) -> "RingElement":
        """Relative complement within the whole of the given level."""
        n = at_level or self.level
        m = self.mask_at(n)
        return RingElement(self.tree, n, self.tree.level(n).full_mask & ~m)

    def contains(self, other: "RingElement") -> bool:
        n, a, b = self._pair(other)
        return b & ~a == 0

    def disjoint_from(self, other: "RingElement") -> bool:
        n, a, b = self._pair(other)
        return a & b == 0

    # ------------------------------------------------------------------

    def atom_type_ids(self) -> list[str]:
        lvl = self.tree.level(self.level)
        poset = self.tree.poset
        return [poset.id_at(lvl.types[i]) for i in self.atom_indices()]

    def type_counts(self) -> dict[str, int]:
        return dict(Counter(self.atom_type_ids()))

    def type_of(self) -> TypeSet:
        """Upper set of element types realized inside this clopen set."""
        return _types_in(self.tree, self.level, self.mask)

    def trim_generator(self) -> Optional[str]:
        return self.type_of().trim_generator()


def type_of(x: RingElement) -> TypeSet:
    return x.type_of()


def _types_in(tree: SkeletonTree, level: int, mask: int) -> TypeSet:
    """Upper set of the types of the level's atoms set in mask."""
    realized = 0
    for t, atoms in tree.level(level).type_masks().items():
        if atoms & mask:
            realized |= 1 << t
    return TypeSet.from_mask(tree.poset, realized)


# ----------------------------------------------------------------------
# trim decompositions

def trim_split(x: RingElement) -> list[tuple[str, RingElement]]:
    """Partition x into trim parts, one per minimal realized type.

    Each atom joins the part of the first generator below it in enumeration
    order, so every part A satisfies type_of(A) = all types above its
    generator.
    """
    if not x:
        return []
    poset = x.tree.poset
    masks = x.tree.level(x.level).type_masks()
    rest = x.mask
    out = []
    for g in x.type_of().min_antichain:
        up = poset.up_mask(poset.index(g))
        part = 0
        for t, atoms in masks.items():
            if up >> t & 1:
                part |= atoms & rest
        rest &= ~part
        out.append((g, RingElement(x.tree, x.level, part)))
    return out


def split_by_scarce_atoms(x: RingElement, gen: str) -> list[RingElement]:
    """Split a trim part so each piece holds exactly one atom of its
    generator type; atoms of other types all stay with the first piece."""
    own = x.mask & x.tree.level(x.level).type_mask(x.tree.poset.index(gen))
    extra = own & (own - 1)
    if not extra:
        return [x]
    return [RingElement(x.tree, x.level, x.mask & ~extra)] + [
        RingElement.atom(x.tree, x.level, i) for i in bits(extra)]


def supertrim_split(x: RingElement,
                    isolated: Iterable[str]) -> list[tuple[str, RingElement]]:
    """Trim split refined at isolated generators.

    Parts generated by an isolated type are cut further so each piece holds
    exactly one atom of that type; those atoms cannot be multiplied by
    refinement, so the piece count is an invariant of the part.
    """
    iso = frozenset(isolated)
    out = []
    for g, part in trim_split(x):
        if g in iso:
            for piece in split_by_scarce_atoms(part, g):
                out.append((g, piece))
        else:
            out.append((g, part))
    return out


def is_trim_for(x: RingElement, gen: str) -> bool:
    """Does x realize exactly the types above gen?"""
    return x.type_of().min_antichain == (gen,)


# ----------------------------------------------------------------------
# axiom verification

def _random_mask(rng: random.Random, size: int) -> int:
    return rng.getrandbits(size) if size else 0


def verify_type_axioms(tree: SkeletonTree, level_bound: int,
                       draws: int = 10_000, seed: int = 0) -> dict:
    """Sampled and small-case-exhaustive check of the type function laws.

    Laws covered: union additivity, realization of every enumerated type
    from its entry level on, emptiness detection, persistence of realized
    types one level down, and upward closure of every computed type set.
    The persistence law recomputes types from actual child atoms, so a
    tampered skeleton shows up here.
    """
    if level_bound < 1 or level_bound + 1 > tree.depth:
        raise RingError("need depth at least level_bound + 1")
    rng = random.Random(seed)
    poset = tree.poset
    axioms: dict[str, dict] = {}

    def record(name, checked, violations, witness=""):
        axioms[name] = {
            "status": "pass" if violations == 0 else "fail",
            "checked": checked, "violations": violations,
            "witness": witness,
        }

    # union additivity: T(x | y) == T(x) | T(y)
    checked = bad = 0
    witness = ""
    for n in range(1, level_bound + 1):
        lvl = tree.level(n)
        if len(lvl) <= 12:
            for i in range(len(lvl)):
                for j in range(len(lvl)):
                    a = RingElement.atom(tree, n, i)
                    b = RingElement.atom(tree, n, j)
                    checked += 1
                    if a.union(b).type_of() != a.type_of().union(b.type_of()):
                        bad += 1
                        witness = witness or f"atoms {n}.{i} and {n}.{j}"
    per_level = max(1, draws // (2 * level_bound))
    for n in range(1, level_bound + 1):
        size = len(tree.level(n))
        for _ in range(per_level):
            a = RingElement(tree, n, _random_mask(rng, size))
            b = RingElement(tree, n, _random_mask(rng, size))
            checked += 1
            if a.union(b).type_of() != a.type_of().union(b.type_of()):
                bad += 1
                witness = witness or f"masks at level {n}"
    record("union-additive", checked, bad, witness)

    # realization: type with index m has an atom on every level from m on
    checked = bad = 0
    witness = ""
    cap = tree._cap(level_bound)
    for m in range(1, cap + 1):
        for n in range(m, level_bound + 1):
            checked += 1
            if tree.level(n).type_mask(m) == 0:
                bad += 1
                witness = witness or f"type {poset.id_at(m)} absent at level {n}"
    record("types-realized", checked, bad, witness)

    # emptiness: T(x) empty exactly when x is
    checked = bad = 0
    witness = ""
    if RingElement.empty(tree).type_of():
        bad += 1
        witness = "empty element got a nonempty type set"
    checked += 1
    for _ in range(min(draws, 500)):
        n = rng.randint(1, level_bound)
        m = _random_mask(rng, len(tree.level(n)))
        if not m:
            continue
        checked += 1
        if not RingElement(tree, n, m).type_of():
            bad += 1
            witness = witness or f"nonempty mask at level {n} typed empty"
    record("empty-detection", checked, bad, witness)

    # persistence: realized types survive one refinement, recomputed from
    # the raw child atoms so a tampered level cannot hide behind lowering
    checked = bad = 0
    witness = ""

    for _ in range(min(draws, 2000)):
        n = rng.randint(1, level_bound)
        m = _random_mask(rng, len(tree.level(n)))
        if not m:
            continue
        lifted = _types_in(tree, n + 1, tree.theta_image(n, m))
        for p in _types_in(tree, n, m).min_antichain:
            checked += 1
            if not lifted.contains(p):
                bad += 1
                witness = witness or (f"type {p} lost lifting level {n} "
                                      f"to {n + 1}")
    record("types-persist", checked, bad, witness)

    # upward closure: every computed type set is an upper set of the prefix
    checked = bad = 0
    witness = ""
    horizon = tree._cap(level_bound)
    prefix = poset.prefix(horizon)
    for _ in range(min(draws, 1000)):
        n = rng.randint(1, level_bound)
        m = _random_mask(rng, len(tree.level(n)))
        members = RingElement(tree, n, m).type_of().members(horizon)
        for q in members:
            for r in prefix:
                if poset.leq(q, r):
                    checked += 1
                    if r not in members:
                        bad += 1
                        witness = witness or f"{r} missing above {q}"
    record("upward-closed", checked, bad, witness)

    return {"passed": all(a["status"] == "pass" for a in axioms.values()),
            "axioms": axioms}
