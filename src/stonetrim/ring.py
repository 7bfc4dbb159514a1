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
from itertools import islice, product, repeat
from operator import add, mul, sub
from typing import Iterator, Optional

from .poset import bits, from_runs, runs
from .skeleton import SkeletonTree, char_masks, node_rules, spell


class RingError(ValueError):
    """Operation on incompatible or malformed ring elements."""


def _lower(tree: SkeletonTree, level: int, mask: int) -> tuple[int, int]:
    """Drop the mask a level while it is a union of whole sibling blocks
    free of unattached atoms.  Blocks of consecutive parents are adjacent,
    so a run of set bits is such a union iff it starts where its first
    parent's block starts and ends where its last parent's block ends, as
    the quick tests below (inlined in ``verify_type_axioms``) read off
    ``block_masks``; a mask that passes drops to the parents of its runs,
    read off its level's posts (``bounds``) and joined by ``from_runs``."""
    if not mask:
        return 1, 0
    levels = tree.levels
    while level > 1:
        lvl = levels[level - 1]
        starts, ends = lvl.block_masks()
        if (mask & lvl.u_mask or mask & ~(mask << 1) & ~starts
                or mask & ~(mask >> 1) & ~ends):
            break
        bounds = lvl.bounds
        level, mask = level - 1, from_runs(
            [(bisect_right(bounds, a) - 1, bisect_right(bounds, b - 1))
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

    # ------------------------------------------------------------------

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        return f"RingElement(level={self.level}, mask={bin(self.mask)})"

    def mask_at(self, level: int) -> int:
        """The element's atom set expressed on a deeper level, lifted by
        one ``theta_image`` call; on its own level, its own mask."""
        if level < self.level:
            raise RingError("cannot express an element above its level")
        tree = self.tree
        if level > len(tree.levels):
            raise RingError(f"level {level} not built")
        return (self.mask if level == self.level
                else tree.theta_image(self.level, self.mask, level))

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

    def type_of(self) -> int:
        """Upper set of element types realized inside this clopen set, as
        the mask of its minimal generators over enumeration indices."""
        return _types_in(self.tree, self.level, self.mask)


def _types_in(tree: SkeletonTree, level: int, mask: int) -> int:
    """Minimal generators of the types of the atoms set in mask on a built
    level."""
    realized = 0
    for t, atoms in tree.levels[level - 1].type_masks().items():
        if atoms & mask:
            realized |= 1 << t
    return tree.poset.minimal_in(realized)


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
    masks = x.tree.level(x.level).type_masks()
    rest = x.mask
    out = []
    for g in bits(x.type_of()):
        up = poset.up_mask(g)
        part = 0
        for t, atoms in masks.items():
            if up >> t & 1:
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
    return x.type_of() == 1 << gen


# ----------------------------------------------------------------------
# axiom verification

def _persist_rows(tree: SkeletonTree, n: int,
                  rule: Optional[dict[str, str]]) -> list[tuple[int, int, int]]:
    """(own type bit, types in the child block, node mask) for each
    distinct pair of the two on level n; blocks of consecutive nodes tile
    level n+1, so ORing the rows a mask meets types the mask and its lift.
    rule is level n's ``node_rules`` entry: where known, each own type is
    one row, with its ``Level.type_masks`` mask; where None, nodes are
    grouped by their own type followed by their block, spelled off level
    n+1 between their posts, and the rows' masks read off one spelling of
    level n by row.  Each own type's mask is lifted once by
    ``theta_image`` and checked against its nodes' blocks, read off level
    n+1 spelled by parent type; a wrong lift gets no child types, so it
    fails types-persist."""
    own_masks = tree.levels[n - 1].type_masks()
    own = spell(tree.levels[n - 1].types)
    bounds = tree.levels[n].bounds
    if rule is None:
        kids = spell(tree.levels[n].types)
        keys = list(map(add, own, map(kids.__getitem__, map(
            slice, bounds, bounds[1:]))))
        parents = "".join(map(mul, own, map(sub, bounds[1:], bounds)))
    else:
        keys = [c + rule[c] for c in map(chr, own_masks)]
        parents = own.translate({ord(c): c * len(block)
                                 for c, block in rule.items()})
    rows: dict[tuple[int, int], str] = {}
    char_of = {key: rows.setdefault((1 << ord(key[0]), sum(
        1 << ord(c) for c in set(key[1:]))), chr(len(rows)))
        for key in dict.fromkeys(keys)}
    node_masks = (own_masks.values() if rule is not None else char_masks(
        "".join(map(char_of.__getitem__, keys)), list(rows.values())))
    lifted = {1 << t: tree.theta_image(n, nodes) == blocks
              for (t, nodes), blocks in zip(own_masks.items(), char_masks(
                  parents, list(map(chr, own_masks))))}
    return [(bit, kid_bits if lifted[bit] else 0, nodes)
            for (bit, kid_bits), nodes in zip(rows, node_masks)]


class _Memo(dict):
    """A table that fills each missing key once, with ``fill(key)``."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        hit = self[key] = self.fill(key)
        return hit


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
    ``type_masks`` table, and compare type sets as index masks; ids are
    made only for a witness.  A random level is drawn as
    ``Random.randint(1, level_bound)`` would draw it (``_level_draws``),
    and a random mask with one ``getrandbits`` call.  Each distinct
    (level, mask) that the union law's canonical path or the upward law
    reads is lowered and typed once per call (``canon``).

    - union additivity: one loop takes the atom pairs of each level of at
      most 12 atoms, then the random pairs.  While both operands and their
      union stay on their level, as ``_lower``'s quick tests (inline)
      decide, both sides OR rows of one type table: the pair counts as
      checked.  Any other pair is decided once per distinct (level, mask,
      mask) in a call: both operands are read from the table, lifted to a
      common level with ``theta_image``, and the type set of their union,
      read from the table too, is compared with the OR of theirs;
    - emptiness calls ``_types_in`` on every nonempty draw;
    - persistence ORs the rows a draw meets in a per-level table built
      once per call (``_persist_rows``), one row per own type where
      ``node_rules`` reads the level's rule off its nodes, and finds the
      generators and lost types of each distinct OR once;
    - upward closure reads each draw's type set from the table and makes
      the law's counts once per distinct type set in a call, on the mask
      ``Poset.upper_of`` gives cut to the prefix.

    The laws reach ``_lower``, ``_types_in``, ``theta_image`` and
    ``upper_of`` through the module, the tree and the poset's class, and
    every memo of theirs lives for one call, so a wrong lowering, lift,
    typing or up-closure, or a level changed between calls, shows in the
    report.  Every draw is still drawn and counted, as the
    element-by-element check counts it.
    """
    if not isinstance(level_bound, int) or not 0 < level_bound < tree.depth:
        raise RingError(f"level_bound must be an int in 1..{tree.depth - 1}, "
                        f"not {level_bound!r}")
    if not isinstance(draws, int) or draws < 0:
        raise RingError(f"draws must be an int >= 0, not {draws!r}")
    getrandbits = random.Random(seed).getrandbits
    level_draws = _level_draws(getrandbits, level_bound)
    poset = tree.poset
    levels = tree.levels
    size_of = [0, *map(len, levels)]
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

    def canonical(key: tuple[int, int]) -> tuple[int, int, int]:
        """The canonical (level, mask) of a (level, mask), and its types."""
        level, mask = _lower(tree, *key)
        return level, mask, _types_in(tree, level, mask)

    def additive(key: tuple[int, int, int]) -> bool:
        """T(a | b) == T(a) | T(b) for the level-n masks of (n, a, b)."""
        n, ma, mb = key
        la, xa, ta = canon[n, ma]
        lb, xb, tb = canon[n, mb]
        k = max(la, lb)
        if la < k:
            xa = tree.theta_image(la, xa, k)
        if lb < k:
            xb = tree.theta_image(lb, xb, k)
        return poset.minimal_in(ta | tb) == canon[k, xa | xb][2]

    canon = _Memo(canonical)
    decided = _Memo(additive)

    # union additivity: T(x | y) == T(x) | T(y)
    per_level = max(1, draws // (2 * level_bound))
    upto = range(1, level_bound + 1)
    rounds = [(n, True) for n in upto if size_of[n] <= 12]
    rounds += [(n, False) for n in upto]
    checked = bad = 0
    witness = ""
    for n, atoms in rounds:
        size = size_of[n]
        if atoms:
            checked += size * size
            pairs = product([1 << i for i in range(size)], repeat=2)
        else:
            checked += per_level
            drawn = map(getrandbits, repeat(size, 2 * per_level))
            pairs = zip(drawn, drawn)
        # the pair counts when ma, mb and ma | mb all stay on level n
        u, starts, ends = tests[n]
        inner_starts, inner_ends = ~starts, ~ends
        for ma, mb in pairs:
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
            if not decided[n, ma, mb]:
                bad += 1
                witness = witness or (
                    f"atoms {n}.{ma.bit_length() - 1} and "
                    f"{n}.{mb.bit_length() - 1}" if atoms
                    else f"masks at level {n}")
    record("union-additive", checked, bad, witness)

    # realization: type with index m has an atom on every level from m on
    checked = bad = 0
    witness = ""
    cap = tree.config.type_cap(level_bound)
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
    rows_of = [_persist_rows(tree, n, rule)
               for n, rule in zip(upto, node_rules(tree))]

    def lost(key: tuple[int, int]) -> tuple[int, int]:
        """(minimal own types, those lost) of (own types, child types)."""
        own, kids = key
        gens = poset.minimal_in(own)
        return gens, gens & ~poset.upper_of(kids)

    lost_of = _Memo(lost)
    for n in islice(level_draws, min(draws, 2000)):
        m = getrandbits(size_of[n])
        if not m:
            continue
        own = kids = 0
        for own_bit, kid_bits, nodes in rows_of[n - 1]:
            if nodes & m:
                own |= own_bit
                kids |= kid_bits
        gens, missed = lost_of[own, kids]
        checked += gens.bit_count()
        if missed:
            bad += missed.bit_count()
            if not witness:
                p = poset.id_at((missed & -missed).bit_length() - 1)
                witness = f"type {p} lost lifting level {n} to {n + 1}"
    record("types-persist", checked, bad, witness)

    # upward closure: every computed type set is an upper set of the
    # prefix; one check per (q, r) with q a member and q <= r on the
    # prefix, the witness the lowest-index q and r
    prefix_mask = poset.prefix_mask(cap)
    above_of = [0] + [poset.up_mask(q) & prefix_mask
                      for q in range(1, cap + 1)]

    def closure_law(gens: int) -> tuple[int, int, str]:
        """(checked, violations, witness) for the type set of gens."""
        members = poset.upper_of(gens) & prefix_mask
        checked = bad = 0
        witness = ""
        for q in bits(members):
            above = above_of[q]
            checked += above.bit_count()
            missing = above & ~members
            if missing:
                bad += missing.bit_count()
                if not witness:
                    r = next(bits(missing))
                    witness = (f"{poset.id_at(r)} missing above "
                               f"{poset.id_at(q)}")
        return checked, bad, witness

    closure_of = _Memo(closure_law)
    checked = bad = 0
    witness = ""
    for n in islice(level_draws, min(draws, 1000)):
        hit = closure_of[canon[n, getrandbits(size_of[n])][2]]
        checked += hit[0]
        bad += hit[1]
        witness = witness or hit[2]
    record("upward-closed", checked, bad, witness)

    return {"passed": all(a["status"] == "pass" for a in axioms.values()),
            "axioms": axioms}
