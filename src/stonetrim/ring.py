"""Boolean ring of clopen sets over a skeleton.

An element is a set of atoms on one level, held as a bitmask.  Elements are
canonical: whenever a mask covers whole sibling blocks and touches no
unattached atom, it drops to the parent level.  Set operations lift both
sides to a common level first; the lift of an atom is its full child block,
so unattached nodes of deeper levels never enter a lifted element.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from itertools import chain, islice
from operator import add, mul, sub
from typing import Iterator, Optional

from .poset import bits, from_runs, runs
from .skeleton import SkeletonTree, char_masks, spell
from .typeset import TypeSet


class RingError(ValueError):
    """Operation on incompatible or malformed ring elements."""


def _turned_away(mask: int, u_mask: int, starts: int, ends: int) -> bool:
    """Does a mask fail ``_lower``'s quick tests for dropping a level: it
    holds an unattached atom of its level (``u_mask``), or one of its runs
    starts or ends inside a child block (whose starts and ends are the
    masks its level's ``block_masks`` gives)?"""
    return bool(mask & u_mask or mask & ~(mask << 1) & ~starts
                or mask & ~(mask >> 1) & ~ends)


def _lower(tree: SkeletonTree, level: int, mask: int) -> tuple[int, int]:
    """Drop the mask a level while it is a union of whole sibling blocks
    free of unattached atoms.  Blocks of consecutive parents are adjacent,
    so a run of set bits is such a union iff it starts where its first
    parent's block starts and ends where its last parent's block ends,
    which is what ``_turned_away`` tests (inline here, as this runs for
    every element made); a mask that passes drops to the parents of its
    runs, read off its level's block ends and joined by ``from_runs``."""
    if not mask:
        return 1, 0
    levels = tree.levels
    while level > 1:
        lvl = levels[level - 1]
        starts, ends = lvl.block_masks()
        if (mask & lvl.u_mask or mask & ~(mask << 1) & ~starts
                or mask & ~(mask >> 1) & ~ends):
            break
        block_end = lvl.block_end
        level, mask = level - 1, from_runs(
            [(bisect_right(block_end, a), bisect_right(block_end, b - 1) + 1)
             for a, b in runs(mask)])
    return level, mask


class RingElement:
    """A clopen set: atoms of one skeleton level, canonically lowered."""

    __slots__ = ("tree", "level", "mask")

    def __init__(self, tree: SkeletonTree, level: int, mask: int):
        levels = tree.levels
        if level < 1 or level > len(levels):
            raise RingError(f"level {level} outside built depth {len(levels)}")
        if mask < 0 or mask > levels[level - 1].full_mask:
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

    def mask_at(self, level: int) -> int:
        """The element's atom set expressed on a deeper level."""
        if level < self.level:
            raise RingError("cannot express an element above its level")
        tree = self.tree
        if level > len(tree.levels):
            raise RingError(f"level {level} not built")
        m = self.mask
        for n in range(self.level, level):
            m = tree.theta_image(n, m)
        return m

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
        n = self.level if at_level is None else at_level
        m = self.mask_at(n)
        return RingElement(self.tree, n, self.tree.level(n).full_mask & ~m)

    def contains(self, other: "RingElement") -> bool:
        _, a, b = self._pair(other)
        return b & ~a == 0

    def disjoint_from(self, other: "RingElement") -> bool:
        _, a, b = self._pair(other)
        return a & b == 0

    # ------------------------------------------------------------------

    def type_of(self) -> TypeSet:
        """Upper set of element types realized inside this clopen set."""
        return _types_in(self.tree, self.level, self.mask)


def _types_in(tree: SkeletonTree, level: int, mask: int) -> TypeSet:
    """Upper set of the types of the atoms set in mask on a built level."""
    realized = 0
    for bit, atoms in tree.levels[level - 1].type_bits():
        if atoms & mask:
            realized |= bit
    return TypeSet.from_mask(tree.poset, realized)


# ----------------------------------------------------------------------
# trim decompositions

def trim_split(x: RingElement) -> list[tuple[int, RingElement]]:
    """Partition x into trim parts, one per minimal realized type, each
    named by its generator's enumeration index.

    Each atom joins the part of the first generator below it in enumeration
    order, so every part A satisfies type_of(A) = all types above its
    generator.
    """
    if not x:
        return []
    poset = x.tree.poset
    type_bits = x.tree.level(x.level).type_bits()
    rest = x.mask
    out = []
    for g in bits(x.type_of().mask):
        up = poset.up_mask(g)
        part = 0
        for bit, atoms in type_bits:
            if up & bit:
                part |= atoms & rest
        rest &= ~part
        out.append((g, RingElement(x.tree, x.level, part)))
    return out


def split_by_scarce_atoms(x: RingElement, gen: int) -> list[RingElement]:
    """Split a trim part so each piece holds exactly one atom of its
    generator type (an enumeration index); atoms of other types all stay
    with the first piece."""
    own = x.mask & x.tree.level(x.level).type_mask(gen)
    extra = own & (own - 1)
    if not extra:
        return [x]
    return [RingElement(x.tree, x.level, x.mask & ~extra)] + [
        RingElement.atom(x.tree, x.level, i) for i in bits(extra)]


def supertrim_split(x: RingElement,
                    isolated: int) -> list[tuple[int, RingElement]]:
    """Trim split refined at isolated generators, given as a mask over
    enumeration indices.

    Parts generated by an isolated type are cut further so each piece holds
    exactly one atom of that type; those atoms cannot be multiplied by
    refinement, so the piece count is an invariant of the part.
    """
    out = []
    for g, part in trim_split(x):
        if isolated >> g & 1:
            for piece in split_by_scarce_atoms(part, g):
                out.append((g, piece))
        else:
            out.append((g, part))
    return out


def is_trim_for(x: RingElement, gen: int) -> bool:
    """Does x realize exactly the types above the enumeration index gen?"""
    return x.type_of().mask == 1 << gen


# ----------------------------------------------------------------------
# axiom verification

def _persist_rows(tree: SkeletonTree, n: int) -> list[tuple[int, int, int]]:
    """(own type bit, types realized in the child block, node mask) for
    each distinct pair of the two on level n.

    Levels n and n+1 are read as their spellings (``spell``; types are
    enumeration indices no larger than the depth, far below U+D800, so
    every one decodes).  Node i's child block is the span
    ``block_start(i):block_end[i]`` of level n+1's spelling, both read off
    level n+1, and nodes are grouped by their own type's character
    followed by that span, so each distinct block is typed once; each
    row's node mask is read off one spelling of level n by row, in one
    pass.  Child blocks of consecutive nodes tile level n+1, so the lift
    of a mask is the union of its nodes' blocks, and ORing the rows a mask
    meets gives both the types of the mask and those of its lift.

    Each own type's node mask is lifted once with ``theta_image`` and
    checked against the union of that type's blocks, read off level n+1
    spelled by parent type.  A type whose lift differs realizes nothing
    one level down in its rows, so a wrong lift fails types-persist."""
    own = spell(tree.levels[n - 1].types)
    kids = spell(tree.levels[n].types)
    ends = tree.levels[n].block_end
    keys = list(map(add, own, map(kids.__getitem__, map(
        slice, chain((0,), ends), ends))))
    char_of: dict[str, str] = {}
    rows: dict[tuple[int, int], str] = {}
    for key in dict.fromkeys(keys):
        row = 1 << ord(key[0]), sum(1 << ord(c) for c in set(key[1:]))
        char_of[key] = rows.setdefault(row, chr(len(rows)))
    node_masks = char_masks("".join(map(char_of.__getitem__, keys)),
                            list(rows.values()))
    types = list(dict.fromkeys(own))
    parents = "".join(map(mul, own, map(sub, ends, chain((0,), ends))))
    lifted = {1 << ord(c): tree.theta_image(n, nodes) == blocks
              for c, nodes, blocks in zip(types, char_masks(own, types),
                                          char_masks(parents, types))}
    return [(bit, kid_bits if lifted[bit] else 0, nodes)
            for (bit, kid_bits), nodes in zip(rows, node_masks)]


def _level_draws(getrandbits, bound: int) -> Iterator[int]:
    """Endless draws from 1..bound: the stream ``Random.randint(1, bound)``
    gives on the generator behind getrandbits, which draws
    ``bound.bit_length()`` bits until they fall below bound."""
    k = bound.bit_length()
    while True:
        r = getrandbits(k)
        if r < bound:
            yield r + 1


def verify_type_axioms(tree: SkeletonTree, level_bound: int,
                       draws: int = 10_000, seed: int = 0) -> dict:
    """Sampled and small-case-exhaustive check of the type function laws.

    Laws covered: union additivity, realization of every enumerated type
    from its entry level on, emptiness detection, persistence of realized
    types one level down, and upward closure of every computed type set.

    The laws run on raw level masks, typed through each level's
    ``type_bits`` table, and compare interned ``TypeSet`` masks.  A random
    level is drawn as ``Random.randint(1, level_bound)`` would draw it
    (``_level_draws``), and a random mask with one ``getrandbits`` call.

    - union additivity: while both operands and their union stay on their
      level, both sides OR rows of one type table and agree on any table,
      so such a draw counts as checked.  The random-draw loop decides
      that inline, with ``_lower``'s quick tests (``_turned_away``) on
      level masks read once per level: the unattached-atom test first, as
      a draw whose operands both hold an unattached atom stays, then the
      runs' starts and ends.  The atom pairs of small levels take the same
      tests through ``additive``.  Any other draw is tested on canonical
      forms, once per distinct (level, mask, mask) in a call: ``_lower``
      both operands, lift them to a common level with ``theta_image``,
      ``_lower`` the union, and compare its ``_types_in`` with the OR of
      the operands';
    - emptiness calls ``_types_in`` on every nonempty draw;
    - persistence reads a per-level table built once per call from each
      node's child block, read off the next level's spelling, with each
      own type's node mask lifted once through ``theta_image`` and
      checked against that type's blocks (``_persist_rows``), so a
      tampered level or a wrong lift shows up here; a draw ORs the rows
      it meets, and the generators and lost types of each distinct OR are
      found once per call;
    - upward closure calls ``_lower``, ``_types_in`` and
      ``TypeSet.members`` (memoised on the poset) on every draw, and makes
      the law's counts once per distinct member set in a call.

    The laws reach ``_lower``, ``_types_in`` and ``theta_image`` through
    the module and the tree, with no copy of them and no memo kept across
    calls, so a wrong lowering, lift or typing shows in the report.  The
    per-call memos hold functions of a draw only, and every draw is still
    taken from the rng and counted, so the report has the same format,
    counts and witnesses as the element-by-element check it replaced.
    Nothing is memoised on the tree, so a level changed between two calls
    shows in the second.
    """
    if level_bound < 1 or level_bound + 1 > tree.depth:
        raise RingError("need depth at least level_bound + 1")
    getrandbits = random.Random(seed).getrandbits
    level_draws = _level_draws(getrandbits, level_bound)
    poset = tree.poset
    levels = tree.levels
    size_of = [0, *map(len, levels)]
    from_mask = TypeSet.from_mask
    axioms: dict[str, dict] = {}

    def record(name, checked, violations, witness=""):
        axioms[name] = {
            "status": "pass" if violations == 0 else "fail",
            "checked": checked, "violations": violations,
            "witness": witness,
        }

    # _lower's quick tests per level, read once: (u_mask, starts, ends).
    # No mask drops below level 1, as if every atom there were unattached.
    tests = [None, (-1, 0, 0)] + [(lvl.u_mask, *lvl.block_masks())
                                  for lvl in levels[1:level_bound]]
    decided: dict[tuple[int, int, int], bool] = {}

    def additive(n: int, ma: int, mb: int) -> bool:
        """T(a | b) == T(a) | T(b) for the level-n masks a and b."""
        if ma and mb:
            u, starts, ends = tests[n]
            if (_turned_away(ma, u, starts, ends)
                    and _turned_away(mb, u, starts, ends)
                    and _turned_away(ma | mb, u, starts, ends)):
                return True
        return lowered_additive(n, ma, mb)

    def lowered_additive(n: int, ma: int, mb: int) -> bool:
        """The law on the canonical forms: lower both operands, lift them
        to the deeper one's level, and lower their union; decided once
        per distinct draw in a call."""
        key = n, ma, mb
        hit = decided.get(key)
        if hit is not None:
            return hit
        la, xa = _lower(tree, n, ma)
        lb, xb = _lower(tree, n, mb)
        k = max(la, lb)
        ua, ub = xa, xb
        for i in range(la, k):
            ua = tree.theta_image(i, ua)
        for i in range(lb, k):
            ub = tree.theta_image(i, ub)
        lu, xu = _lower(tree, k, ua | ub)
        hit = decided[key] = (from_mask(poset, _types_in(tree, la, xa).mask
                                        | _types_in(tree, lb, xb).mask).mask
                              == _types_in(tree, lu, xu).mask)
        return hit

    # union additivity: T(x | y) == T(x) | T(y)
    checked = bad = 0
    witness = ""
    for n in range(1, level_bound + 1):
        size = size_of[n]
        if size <= 12:
            for i in range(size):
                for j in range(size):
                    checked += 1
                    if not additive(n, 1 << i, 1 << j):
                        bad += 1
                        witness = witness or f"atoms {n}.{i} and {n}.{j}"
    per_level = max(1, draws // (2 * level_bound))
    checked += per_level * level_bound
    for n in range(1, level_bound + 1):
        size = size_of[n]
        # _turned_away inline: a mask stays on level n when it holds an
        # unattached atom, or a run that starts or ends inside a child
        # block of the level above; the draw counts when ma, mb and
        # ma | mb all stay
        u, starts, ends = tests[n]
        inner_starts, inner_ends = ~starts, ~ends
        for _ in range(per_level):
            ma = getrandbits(size)
            mb = getrandbits(size)
            if ma and mb:
                ua = ma & u
                ub = mb & u
                if ua and ub:
                    continue        # and ma | mb holds them both
                if ((ua or ma & ~(ma << 1) & inner_starts
                     or ma & ~(ma >> 1) & inner_ends)
                        and (ub or mb & ~(mb << 1) & inner_starts
                             or mb & ~(mb >> 1) & inner_ends)):
                    m = ma | mb
                    if (ua or ub or m & ~(m << 1) & inner_starts
                            or m & ~(m >> 1) & inner_ends):
                        continue
            if not lowered_additive(n, ma, mb):
                bad += 1
                witness = witness or f"masks at level {n}"
    record("union-additive", checked, bad, witness)

    # realization: type with index m has an atom on every level from m on
    checked = bad = 0
    witness = ""
    cap = tree.type_cap(level_bound)
    for m in range(1, cap + 1):
        for n in range(m, level_bound + 1):
            checked += 1
            if levels[n - 1].type_mask(m) == 0:
                bad += 1
                witness = witness or f"type {poset.id_at(m)} absent at level {n}"
    record("types-realized", checked, bad, witness)

    # emptiness: T(x) empty exactly when x is
    checked = bad = 0
    witness = ""
    if _types_in(tree, 1, 0):
        bad += 1
        witness = "empty element got a nonempty type set"
    checked += 1
    for n in islice(level_draws, min(draws, 500)):
        m = getrandbits(size_of[n])
        if not m:
            continue
        checked += 1
        if not _types_in(tree, n, m):
            bad += 1
            witness = witness or f"nonempty mask at level {n} typed empty"
    record("empty-detection", checked, bad, witness)

    # persistence: realized types survive one refinement; one check per
    # minimal realized type, the witness the lowest lost one
    checked = bad = 0
    witness = ""
    rows_of = [_persist_rows(tree, n) for n in range(1, level_bound + 1)]
    # (own types, child types) -> (minimal own types, those lost)
    lost_of: dict[tuple[int, int], tuple[int, int]] = {}
    for n in islice(level_draws, min(draws, 2000)):
        m = getrandbits(size_of[n])
        if not m:
            continue
        own = kids = 0
        for own_bit, kid_bits, nodes in rows_of[n - 1]:
            if nodes & m:
                own |= own_bit
                kids |= kid_bits
        hit = lost_of.get((own, kids))
        if hit is None:
            gens = from_mask(poset, own).mask
            hit = lost_of[own, kids] = (
                gens, gens & ~from_mask(poset, kids)._upper())
        gens, lost = hit
        checked += gens.bit_count()
        if lost:
            bad += lost.bit_count()
            if not witness:
                p = poset.id_at((lost & -lost).bit_length() - 1)
                witness = f"type {p} lost lifting level {n} to {n + 1}"
    record("types-persist", checked, bad, witness)

    # upward closure: every computed type set is an upper set of the prefix
    checked = bad = 0
    witness = ""
    # one check per (q, r) with q a member and q <= r on the prefix; the
    # witness names the lowest-index q and r
    horizon = tree.type_cap(level_bound)
    prefix_mask = (1 << horizon + 1) - 2
    index_of = {p: i for i, p in enumerate(poset.prefix(horizon), 1)}
    above_of = [0] + [poset.up_mask(q) & prefix_mask
                      for q in range(1, horizon + 1)]

    def closure_law(members: frozenset) -> tuple[int, int, str]:
        """(checked, violations, witness) for one member set."""
        member_mask = 0
        for q in map(index_of.__getitem__, members):
            member_mask |= 1 << q
        checked = bad = 0
        witness = ""
        for q in bits(member_mask):
            above = above_of[q]
            checked += above.bit_count()
            missing = above & ~member_mask
            if missing:
                bad += missing.bit_count()
                if not witness:
                    r = next(bits(missing))
                    witness = (f"{poset.id_at(r)} missing above "
                               f"{poset.id_at(q)}")
        return checked, bad, witness

    by_members: dict[frozenset, tuple[int, int, str]] = {}
    for n in islice(level_draws, min(draws, 1000)):
        m = getrandbits(size_of[n])
        members = _types_in(tree, *_lower(tree, n, m)).members(horizon)
        hit = by_members.get(members)
        if hit is None:
            hit = by_members[members] = closure_law(members)
        checked += hit[0]
        bad += hit[1]
        witness = witness or hit[2]
    record("upward-closed", checked, bad, witness)

    return {"passed": all(a["status"] == "pass" for a in axioms.values()),
            "axioms": axioms}
