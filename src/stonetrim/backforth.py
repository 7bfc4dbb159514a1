"""Back-and-forth matching between two skeleton limit spaces.

A partial isomorphism is a finite list of paired clopen parts, one part per
side, where paired parts realize type sets matched by a fixed order
bijection of the posets, and a part generated by an isolated type holds
exactly one atom of that type.  Splitting any part on one side forces a
matching split on the other; isolated types cannot multiply inside parts
typed exactly by them, so a count shortfall there is a proof that no
matching split exists at any depth.

Everything two-sided is held as a pair indexed by ``side``: 0 is the left
side and 1 the right, so the other side is ``1 - side``.  The names in
``SIDES`` appear only where output carries them: mismatch witnesses,
depth-budget notes, setup errors and the messages of ``PartialIso.verify``.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .poset import FOUND, Poset, PosetError, bits
from .ring import RingElement, is_trim_for, supertrim_split, trim_split
from .skeleton import BuildError, SkeletonTree

SIDES = ("left", "right")


class IsoError(ValueError):
    """The matching run was set up inconsistently."""


@dataclass(frozen=True)
class MismatchWitness:
    """A count contradiction that refinement can never repair."""

    side: str                  # name of the side that ran short
    type_id: str
    needed: int
    available: int
    reason: str

    def serialize(self) -> dict:
        return {"side": self.side, "type": self.type_id,
                "needed": self.needed, "available": self.available,
                "reason": self.reason}


class MismatchFound(Exception):
    def __init__(self, witness: MismatchWitness):
        super().__init__(witness.reason)
        self.witness = witness


class DepthBudget(Exception):
    """Matching needed more levels than the run allows."""


def _facing(side: int, mine, theirs) -> tuple:
    """The two-sided pair holding mine at side and theirs at the other."""
    return (theirs, mine) if side else (mine, theirs)


@dataclass(slots=True)
class Pair:
    parts: tuple[RingElement, RingElement]
    gens: tuple[str, str]


class PartialIso:
    """Paired clopen decompositions of the two sides."""

    def __init__(self, left: SkeletonTree, right: SkeletonTree,
                 theta: _ThetaMap):
        self.trees = (left, right)
        self.theta = theta
        self.iso = tuple(frozenset(t.config.isolated) for t in self.trees)
        self.pairs: list[Pair] = []
        self._union: list[Optional[RingElement]] = [None, None]

    def union(self, side: int) -> RingElement:
        out = RingElement.empty(self.trees[side])
        for pair in self.pairs:
            out = out.union(pair.parts[side])
        return out

    def running_union(self, side: int) -> RingElement:
        """The union of the side's parts, seeded from ``union`` on first use
        and kept by ``add_fresh``: a split partitions its part, so only a
        fresh pair changes it."""
        hit = self._union[side]
        if hit is None:
            hit = self._union[side] = self.union(side)
        return hit

    def add_fresh(self, pair: Pair) -> None:
        """Append a pair over atoms no part holds yet."""
        grown = [self.running_union(side).union(pair.parts[side])
                 for side in (0, 1)]
        self.pairs.append(pair)
        self._union = grown

    def verify(self) -> list[str]:
        """Recheck every pairing invariant from scratch."""
        problems = []
        for side, name in enumerate(SIDES):
            top = max((p.parts[side].level for p in self.pairs), default=1)
            acc = 0
            count = 0
            for pair in self.pairs:
                m = pair.parts[side].mask_at(top)
                count += m.bit_count()
                acc |= m
            if count != acc.bit_count():
                problems.append(f"{name} parts overlap")
        for k, pair in enumerate(self.pairs):
            if self.theta.image(0, pair.gens[0]) != pair.gens[1]:
                problems.append(f"pair {k}: generators not matched by the "
                                f"order bijection")
            for side, name in enumerate(SIDES):
                part, gen = pair.parts[side], pair.gens[side]
                if not is_trim_for(part, gen):
                    problems.append(f"pair {k}: {name} part is not trim for "
                                    f"{gen!r}")
                if gen in self.iso[side]:
                    c = part.type_counts().get(gen, 0)
                    if c != 1:
                        problems.append(f"pair {k}: {name} isolated "
                                        f"generator count {c}")
        return problems


class _ThetaMap:
    """Bijection between the side alphabets, usable in both directions.

    Explicit pairs cover the compared span; beyond it ids correspond by
    enumeration index.  An id with no injective counterpart maps to None,
    which the matcher treats as a provable type mismatch.
    """

    def __init__(self, left_poset: Poset, right_poset: Poset, pairs: dict):
        self.posets = (left_poset, right_poset)
        fwd = dict(pairs)
        rev = {v: k for k, v in fwd.items()}
        if len(rev) != len(fwd):
            raise IsoError("the bijection repeats a target element")
        # maps[side] carries ids of that side to the other side
        self.maps = (fwd, rev)

    def image(self, side: int, p: str) -> Optional[str]:
        table, back = self.maps[side], self.maps[1 - side]
        hit = table.get(p)
        if hit is not None:
            return hit
        try:
            hit = self.posets[1 - side].id_at(self.posets[side].index(p))
        except PosetError:
            return None
        if hit in back:
            return None
        table[p] = hit
        back[hit] = p
        return hit


def init_iso(left: SkeletonTree, right: SkeletonTree, q: Iterable[str],
             theta) -> PartialIso:
    """Seed the pairing from the founded lower region named by q.

    The covering level on each side is the last enumeration slot of the
    foundation; its whole level splits into trim parts and the parts
    generated inside q are paired through the order bijection.  theta may
    be a callable, checked over the shared span, or a prepared map.
    """
    if not isinstance(theta, _ThetaMap):
        span = min(left.type_cap(left.depth), right.type_cap(right.depth))
        theta = _check_theta(left, right, theta, span)
    state = PartialIso(left, right, theta)
    q_left = frozenset(q)
    images = {p: theta.image(0, p) for p in q_left}
    missing = sorted(p for p, h in images.items() if h is None)
    if missing:
        raise IsoError(f"region elements {missing} have no counterpart "
                       f"under the bijection")
    parts = []
    for side, qs in enumerate((q_left, frozenset(images.values()))):
        tree = state.trees[side]
        cap = tree.type_cap(tree.depth)
        if not tree.poset.is_lower(qs, cap):
            raise IsoError(f"{SIDES[side]} region is not a lower set on the "
                           f"prefix")
        res = tree.poset.finite_foundation(qs, cap)
        if res.status != FOUND:
            raise IsoError(f"{SIDES[side]} region has no confirmed finite "
                           f"foundation")
        n0 = max(tree.poset.index(p) for p in res.foundation)
        _grow(tree, n0)
        whole = RingElement(tree, n0, tree.level(n0).full_mask)
        parts.append([(g, part) for g, part in trim_split(whole) if g in qs])
    by_gen = dict(parts[1])
    for g, part in parts[0]:
        h = theta.image(0, g)
        if h not in by_gen:
            raise IsoError(f"no right part for foundation type {h!r}")
        state.pairs.append(Pair((part, by_gen.pop(h)), (g, h)))
    if by_gen:
        raise IsoError(f"unmatched right foundation types {sorted(by_gen)}")
    return state


def _grow(tree: SkeletonTree, level: int) -> None:
    try:
        tree.extend_to(level)
    except BuildError as e:
        raise DepthBudget(str(e))


def _counterpart_ix(tree: SkeletonTree, side: int, h: str, needed: int,
                    max_depth: int) -> int:
    """Enumeration index of a needed type, enumerating up to the reach of
    the level budget before declaring it absent."""
    if h not in tree.poset:
        tree.poset.prefix(tree.type_cap(max_depth))
    if h not in tree.poset:
        raise MismatchFound(MismatchWitness(
            SIDES[side], h, needed, 0,
            "needed type does not occur in the counterpart poset"))
    return tree.poset.index(h)


def _match_split(state: PartialIso, dst_side: int, dst_part: RingElement,
                 needs: list[tuple[str, RingElement]],
                 max_depth: int) -> list[RingElement]:
    """Split dst_part into pieces matching the needed generators in order.

    Each needed generator claims one atom of exactly its type; remaining
    atoms attach to the first piece that tolerates them.  The level deepens
    until every claim is satisfiable; an isolated generator that cannot
    reach its claimed count inside a part typed exactly by it never will,
    which raises a mismatch instead.
    """
    tree = state.trees[dst_side]
    iso = state.iso[dst_side]
    poset = tree.poset
    gens = [h for h, _ in needs]
    want = Counter(gens)
    h_ix = {h: _counterpart_ix(tree, dst_side, h, n, max_depth)
            for h, n in want.items()}
    level = dst_part.level
    while True:
        if level > tree.depth:
            if level > max_depth:
                raise DepthBudget(f"{SIDES[dst_side]} side needs level "
                                  f"{level}")
            _grow(tree, level)
        mask = dst_part.mask_at(level)
        masks = tree.level(level).type_masks()
        avail = {h: list(bits(mask & masks.get(h_ix[h], 0))) for h in want}
        short = [h for h, n in want.items() if len(avail[h]) < n]
        if not short:
            break
        realized = [t for t, atoms in masks.items() if atoms & mask]
        for h in short:
            growable = any(t != h_ix[h] and poset.leq_ix(t, h_ix[h])
                           for t in realized)
            if h in iso and not growable:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], h, want[h], len(avail[h]),
                    "isolated type cannot multiply inside a part typed "
                    "exactly by it"))
            if not growable and len(avail[h]) == 0:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], h, want[h], 0,
                    "needed type is not realized in the counterpart part"))
        level += 1

    taken = {h: iter(avail[h]) for h in want}
    piece_masks = [1 << next(taken[h]) for h in gens]
    claimed = sum(piece_masks)
    # spread the unclaimed atoms round-robin so no piece starves a later
    # split into chasing atoms ever deeper; which pieces take an atom
    # depends only on its type
    gen_ix = [h_ix[h] for h in gens]
    eligible_of: dict[int, list[int]] = {}
    fills: dict[int, int] = {}
    types = tree.level(level).types
    for i in bits(mask & ~claimed):
        s = types[i]
        eligible = eligible_of.get(s)
        if eligible is None:
            eligible = eligible_of[s] = [
                k for k, g in enumerate(gen_ix)
                if poset.leq_ix(g, s) and not (g == s and gens[k] in iso)]
        if not eligible:
            raise IsoError(f"atom of type {poset.id_at(s)!r} fits no piece; "
                           f"pairing invariant broken")
        turn = fills.get(s, 0)
        k = eligible[turn % len(eligible)]
        fills[s] = turn + 1
        piece_masks[k] |= 1 << i
    return [RingElement(tree, level, pm) for pm in piece_masks]


def _fresh_counterpart(state: PartialIso, dst_side: int, h: str,
                       busy: RingElement, max_depth: int) -> RingElement:
    """First unclaimed atom of exactly the needed type, lowest level first."""
    tree = state.trees[dst_side]
    h_ix = _counterpart_ix(tree, dst_side, h, 1, max_depth)
    for level in range(busy.level, max_depth + 1):
        if level > tree.depth:
            _grow(tree, level)
        free = tree.level(level).type_mask(h_ix) & ~busy.mask_at(level)
        if free:
            return RingElement.atom(tree, level, next(bits(free)))
    raise DepthBudget(f"no unclaimed {h!r} atom on the {SIDES[dst_side]} "
                      f"side within depth {max_depth}")


def extend_iso(state: PartialIso, side: int, element: RingElement,
               max_depth: int,
               transcript: Optional[list] = None) -> None:
    """Refine the pairing so the given element of side becomes a union of
    parts.

    side is 0 (left) or 1 (right); the side names appear only in
    witnesses, depth-budget notes and ``PartialIso.verify`` messages.  Each
    part is compared with the element as masks at the deeper of their two
    levels; ring elements are built only for a part the element splits and
    for what no part holds yet."""
    if not element:
        return
    dst_side = 1 - side
    theta = state.theta
    iso_src = state.iso[side]
    tree = state.trees[side]
    lifted = {element.level: element.mask}

    def element_at(level: int) -> int:
        for k in range(max(lifted), level):
            lifted[k + 1] = tree.theta_image(k, lifted[k])
        return lifted[level]

    new_pairs: list[Pair] = []
    for pair in state.pairs:
        src = pair.parts[side]
        n = max(element.level, src.level)
        s = src.mask_at(n)
        inter = element_at(n) & s
        if not inter or inter == s:
            new_pairs.append(pair)
            continue
        halves = [RingElement(tree, n, inter),
                  RingElement(tree, n, s & ~inter)]
        src_pieces: list[tuple[str, RingElement]] = []
        for half in halves:
            src_pieces.extend(supertrim_split(half, iso_src))
        needs = []
        for g, piece in src_pieces:
            h = theta.image(side, g)
            if h is None:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], g,
                    sum(1 for gg, _ in src_pieces if gg == g), 0,
                    "type has no counterpart in the other alphabet"))
            needs.append((h, piece))
        dst_pieces = _match_split(state, dst_side, pair.parts[dst_side],
                                  needs, max_depth)
        for (h, _), (g, src_piece), dst_piece in zip(needs, src_pieces,
                                                     dst_pieces):
            new_pairs.append(Pair(_facing(side, src_piece, dst_piece),
                                  _facing(side, g, h)))
        if transcript is not None:
            transcript.append({"action": "split", "side": side,
                               "pieces": len(src_pieces),
                               "generator": pair.gens[0]})
    state.pairs = new_pairs

    held = state.running_union(side)
    n = max(element.level, held.level)
    rest = element_at(n) & ~held.mask_at(n)
    if rest:
        pieces = supertrim_split(RingElement(tree, n, rest), iso_src)
        for g, piece in pieces:
            h = theta.image(side, g)
            if h is None:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], g, 1, 0,
                    "type has no counterpart in the other alphabet"))
            mate = _fresh_counterpart(state, dst_side, h,
                                      state.running_union(dst_side),
                                      max_depth)
            state.add_fresh(Pair(_facing(side, piece, mate),
                                 _facing(side, g, h)))
        if transcript is not None:
            transcript.append({"action": "fresh", "side": side,
                               "pieces": len(pieces)})


@dataclass
class IsoRun:
    status: str                    # "iso" | "mismatch" | "depth-exhausted"
    pairs: int = 0
    depth_used: int = 0
    witness: Optional[MismatchWitness] = None
    note: str = ""
    coverage: bool = False
    invariant_failures: list = field(default_factory=list)
    transcript: list = field(default_factory=list)

    def serialize(self) -> dict:
        return {
            "status": self.status,
            "pairs": self.pairs,
            "depth_used": self.depth_used,
            "witness": self.witness.serialize() if self.witness else None,
            "note": self.note,
            "coverage": self.coverage,
            "invariant_failures": list(self.invariant_failures),
            "steps": len(self.transcript),
        }


def _identity_theta(left: SkeletonTree, right: SkeletonTree,
                    span: int) -> _ThetaMap:
    if set(left.poset.prefix(span)) != set(right.poset.prefix(span)):
        raise IsoError("sides name different elements; supply a bijection")
    return _check_theta(left, right, lambda p: p, span)


def _check_theta(left: SkeletonTree, right: SkeletonTree,
                 theta: Callable[[str], str], span: int) -> _ThetaMap:
    """The bijection over the shared span, once it maps prefix onto prefix
    and keeps the order both ways."""
    a = left.poset.prefix(span)
    b = set(right.poset.prefix(span))
    image = {p: theta(p) for p in a}
    targets = set(image.values())
    if len(targets) != len(a) or not targets <= b:
        raise IsoError("the bijection does not map prefix onto prefix")
    for p in a:
        for q in a:
            if left.poset.leq(p, q) != right.poset.leq(image[p], image[q]):
                raise IsoError(f"the bijection breaks order at "
                               f"({p!r}, {q!r})")
    return _ThetaMap(left.poset, right.poset, image)


def _schedule(left: SkeletonTree, right: SkeletonTree, depth: int,
              seed: int) -> list[tuple[int, int, int]]:
    """Every atom of levels 1 .. depth-2 on both sides as (side, level,
    index), in a seeded shuffle."""
    schedule = [(side, n, i)
                for side, tree in enumerate((left, right))
                for n in range(1, max(2, depth - 1))
                for i in range(len(tree.level(n)))]
    random.Random(seed).shuffle(schedule)
    return schedule


def _covered(state: PartialIso, schedule: list[tuple[int, int, int]]) -> bool:
    """Is every scheduled atom a union of parts?

    Each side's parts are lifted once to a level no part or scheduled atom
    lies below; there an atom is covered iff the parts inside it fill it.
    Lifting keeps inclusion both ways, since every node has children."""
    for side, tree in enumerate(state.trees):
        parts = [pair.parts[side] for pair in state.pairs]
        atoms = [(n, i) for s, n, i in schedule if s == side]
        top = max([p.level for p in parts] + [n for n, _ in atoms],
                  default=1)
        lifted = [p.mask_at(top) for p in parts]
        for n, i in atoms:
            # the child blocks of consecutive nodes are adjacent, so an
            # atom lifts to one run of bits
            a, b = i, i + 1
            for k in range(n, top):
                lvl = tree.level(k)
                a, b = lvl.child_start(a), lvl.child_end[b - 1]
            atom = (1 << b) - (1 << a)
            inside = 0
            for m in lifted:
                if not m & ~atom:
                    inside |= m
            if inside != atom:
                return False
    return True


def run_backforth(left: SkeletonTree, right: SkeletonTree,
                  q: Optional[Iterable[str]] = None,
                  theta: Optional[Callable[[str], str]] = None,
                  depth: Optional[int] = None,
                  max_depth: Optional[int] = None,
                  seed: int = 0) -> IsoRun:
    """Drive the pairing over a seeded shuffle of both atom schedules.

    Completing the schedule with every scheduled atom a union of parts is an
    isomorphism certificate to the scheduled depth.  A provable count
    contradiction reports a mismatch with its witness; running out of the
    level budget reports exhaustion instead.
    """
    if depth is None:
        depth = min(left.depth, right.depth)
    if depth < 3:
        raise IsoError("need depth at least 3")
    max_depth = depth + 8 if max_depth is None else max_depth
    if max_depth < depth:
        raise IsoError("max_depth must be at least depth")
    span = min(left.type_cap(depth), right.type_cap(depth))
    if theta is None:
        theta = _identity_theta(left, right, span)
    else:
        theta = _check_theta(left, right, theta, span)
    if q is None:
        delta, _ = left.poset.p_delta(span)
        q = frozenset(delta) & set(left.poset.prefix(span))
    q = frozenset(q)
    if not q:
        raise IsoError("the compared region is empty; pass q explicitly when "
                       "no element has a confirmed finite foundation")
    run = IsoRun(status="iso")
    try:
        state = init_iso(left, right, q, theta)
    except DepthBudget as d:
        return IsoRun(status="depth-exhausted", note=str(d))
    run.transcript.append({"action": "init", "pairs": len(state.pairs)})

    schedule = _schedule(left, right, depth, seed)
    try:
        for side, n, i in schedule:
            extend_iso(state, side, RingElement.atom(state.trees[side], n, i),
                       max_depth, run.transcript)
    except MismatchFound as m:
        run.status = "mismatch"
        run.witness = m.witness
    except DepthBudget as d:
        run.status = "depth-exhausted"
        run.note = str(d)

    run.pairs = len(state.pairs)
    run.depth_used = max((part.level for p in state.pairs
                          for part in p.parts), default=1)
    if run.status == "iso":
        covered = _covered(state, schedule)
        run.coverage = covered
        run.invariant_failures = state.verify()
        if not covered or run.invariant_failures:
            run.status = "depth-exhausted"
            run.note = run.note or "schedule finished without full coverage"
    return run


def lift_poset_automorphism(left: SkeletonTree, right: SkeletonTree,
                            mapping: dict, **kw) -> IsoRun:
    """Run the matching along an explicit order automorphism.

    The mapping must also carry the left isolation set onto the right one;
    a matching that must cross different isolation data should call
    run_backforth directly and let the count analysis decide.
    """
    image_iso = {mapping.get(p, p) for p in left.config.isolated}
    if image_iso != set(right.config.isolated):
        raise IsoError("the automorphism does not carry isolation data "
                       "across; run the matcher directly to compare")
    theta = lambda p: mapping.get(p, p)
    return run_backforth(left, right, theta=theta, **kw)
