"""Back-and-forth matching between two skeleton limit spaces.

A partial isomorphism is a finite list of paired clopen parts, one part per
side, where paired parts realize type sets matched by a fixed order
bijection of the posets, and a part generated by an isolated type holds
exactly one atom of that type.  Splitting any part on one side forces a
matching split on the other; isolated types cannot multiply inside parts
typed exactly by them, so a count shortfall there is a proof that no
matching split exists at any depth.

Everything two-sided is held as a pair indexed by ``side``: 0 is the left
side and 1 the right, so the other side is ``1 - side``.  A generator is
named by its enumeration index on its own side.  The names in ``SIDES``,
and element ids, appear only where output carries them: mismatch
witnesses, depth-budget notes, setup errors and the messages of
``PartialIso.verify``.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from typing import Callable, Optional

from ._record import Frozen, Record
from .poset import FOUND, Poset, bits, runs
from .ring import RingElement, is_trim_for, supertrim_split, trim_split
from .runindex import RunIndex
from .skeleton import BuildConfig, BuildError, SkeletonTree

SIDES = ("left", "right")


class IsoError(ValueError):
    """The matching run was set up inconsistently."""


class MismatchWitness(Frozen):
    """A count contradiction that refinement can never repair; side is the
    name of the side that ran short."""

    __slots__ = _compare = ("side", "type_id", "needed", "available",
                            "reason")

    def __init__(self, side: str, type_id: str, needed: int, available: int,
                 reason: str):
        self._fill(side, type_id, needed, available, reason)

    def serialize(self) -> dict:
        return {"side": self.side, "type": self.type_id,
                "needed": self.needed, "available": self.available,
                "reason": self.reason}


class MismatchFound(Exception):
    def __init__(self, witness: MismatchWitness):
        super().__init__(witness.reason)
        self.witness = witness


# one witness maker per mismatch reason; side names the side that ran short
def _no_counterpart(side: int, poset: Poset, g: int,
                    needed: int) -> MismatchFound:
    return MismatchFound(MismatchWitness(
        SIDES[side], poset.id_at(g), needed, 0,
        "type has no counterpart in the other alphabet"))


def _isolation_shortfall(side: int, poset: Poset, g: int, needed: int,
                         available: int) -> MismatchFound:
    return MismatchFound(MismatchWitness(
        SIDES[side], poset.id_at(g), needed, available,
        "isolated type cannot multiply inside a part typed exactly by it"))


class DepthBudget(Exception):
    """Matching needed more levels than the run allows."""


def _facing(side: int, mine, theirs) -> tuple:
    """The two-sided pair holding mine at side and theirs at the other."""
    return (theirs, mine) if side else (mine, theirs)


class Pair(Record):
    """Paired parts and their generators' enumeration indices."""

    __slots__ = _compare = ("parts", "gens")

    def __init__(self, parts: tuple[RingElement, RingElement],
                 gens: tuple[int, int]):
        self.parts = parts
        self.gens = gens


class PartialIso:
    """Paired clopen decompositions of the two sides.

    Pairs enter through ``add_fresh`` and change through ``replace``, which
    keep each side's part index and held union from the first pair on.
    ``verify`` and ``_covered`` read ``pairs`` afresh."""

    def __init__(self, left: SkeletonTree, right: SkeletonTree,
                 theta: _ThetaMap):
        self.trees = (left, right)
        self.theta = theta
        # the isolated types of each side, as a mask over enumeration indices
        self.iso = tuple(t.config.masks(t.config.scope(t.depth))[0]
                         for t in self.trees)
        self.pairs: list[Pair] = []
        # each side's parts as runs on one common level, keyed by their
        # pairs: keys are tuples that sort as the pairs stand, a piece's key
        # its pair's key and its place, a fresh pair's one past the last
        self.index = tuple(RunIndex(tree, 1) for tree in self.trees)
        # the union of each side's parts: a split partitions its part, so
        # only a fresh pair changes it
        self.held = [RingElement.empty(tree) for tree in self.trees]
        self._keys: list[tuple[int, ...]] = []

    def union(self, side: int) -> RingElement:
        out = RingElement.empty(self.trees[side])
        for pair in self.pairs:
            out = out.union(pair.parts[side])
        return out

    def pair(self, key: tuple[int, ...]) -> Pair:
        return self.pairs[bisect_left(self._keys, key)]

    def add_fresh(self, pair: Pair) -> None:
        """Append a pair over atoms no part holds yet."""
        key = (self._keys[-1][0] + 1,) if self._keys else (0,)
        self.pairs.append(pair)
        self._keys.append(key)
        for side, part in enumerate(pair.parts):
            self.held[side] = self.held[side].union(part)
            self.index[side].add(key, part)

    def replace(self, key: tuple[int, ...], pieces: list[Pair]) -> None:
        """Put the pieces, in order, where the pair with this key stands."""
        at = bisect_left(self._keys, key)
        keys = [key + (k,) for k in range(len(pieces))]
        self.pairs[at:at + 1] = pieces
        self._keys[at:at + 1] = keys
        for side, index in enumerate(self.index):
            index.remove(key)
            for k, piece in zip(keys, pieces):
                index.add(k, piece.parts[side])

    def verify(self) -> list[str]:
        """Recheck every pairing invariant from scratch.  Overlap is read
        off a fresh part index per side, built from ``pairs``: parts
        overlap iff some run, in order of start, ends after the next one
        starts."""
        problems = []
        for side, (name, tree) in enumerate(zip(SIDES, self.trees)):
            parts = [pair.parts[side] for pair in self.pairs]
            index = RunIndex(tree, max((p.level for p in parts), default=1),
                             enumerate(parts))
            if any(b > a for b, a in zip(index.ends, index.starts[1:])):
                problems.append(f"{name} parts overlap")
        for k, pair in enumerate(self.pairs):
            if self.theta.image(0, pair.gens[0]) != pair.gens[1]:
                problems.append(f"pair {k}: generators not matched by the "
                                f"order bijection")
            for side, name in enumerate(SIDES):
                part, gen = pair.parts[side], pair.gens[side]
                if not is_trim_for(part, gen):
                    problems.append(f"pair {k}: {name} part is not trim for "
                                    f"{self.trees[side].poset.id_at(gen)!r}")
                if self.iso[side] >> gen & 1:
                    c = (part.mask & part.tree.level(part.level)
                         .type_mask(gen)).bit_count()
                    if c != 1:
                        problems.append(f"pair {k}: {name} isolated "
                                        f"generator count {c}")
        return problems


class _ThetaMap:
    """Bijection between the sides' enumeration indices, usable in both
    directions.

    ``maps[side][i]`` is the other side's index for index i of side over
    the checked span 1..span.  Past the span an index maps to itself, or
    to None when a finite other side lacks it, which the matcher treats as
    a provable type mismatch.
    """

    def __init__(self, posets: tuple[Poset, Poset],
                 maps: tuple[list[int], list[int]]):
        self.posets = posets
        self.maps = maps

    def image(self, side: int, g: int) -> Optional[int]:
        table = self.maps[side]
        if g < len(table):
            return table[g]
        other = self.posets[1 - side]
        return None if other.finite and g > other.size else g


def _regions(posets: tuple[Poset, Poset], caps: tuple[int, int], q: int,
             theta: _ThetaMap) -> list[tuple[int, int]]:
    """The compared region of each side, q on the left and its image under
    theta on the right, with the level that covers it: the last
    enumeration slot of its foundation.  Each region must have a
    counterpart, and be a lower set with a confirmed finite foundation on
    its side's prefix up to its cap, else IsoError."""
    images = {g: theta.image(0, g) for g in bits(q)}
    missing = sum(1 << g for g, h in images.items() if h is None)
    if missing:
        raise IsoError(f"region elements {sorted(posets[0].ids_of(missing))}"
                       f" have no counterpart under the bijection")
    regions = (q, sum(1 << h for h in images.values()))
    covers = []
    for side, (poset, cap, region) in enumerate(zip(posets, caps, regions)):
        if poset.lower_of(region, cap) & ~region:
            raise IsoError(f"{SIDES[side]} region is not a lower set on the "
                           f"prefix")
        res = poset.finite_foundation(region, cap)
        if res.status != FOUND:
            raise IsoError(f"{SIDES[side]} region has no confirmed finite "
                           f"foundation")
        covers.append((region, res.foundation.bit_length() - 1))
    return covers


def init_iso(left: SkeletonTree, right: SkeletonTree, q: int,
             theta: _ThetaMap) -> PartialIso:
    """Seed the pairing from the founded lower region q, a mask over the
    left enumeration (``_regions``, over each side's prefix up to the
    types of its built levels).

    The covering level on each side is the last enumeration slot of the
    foundation; its whole level splits into trim parts and the parts
    generated inside q are paired through theta, the order bijection that
    ``run_backforth`` prepares over the schedule's span (``_theta_over``).
    """
    state = PartialIso(left, right, theta)
    covers = _regions((left.poset, right.poset),
                      (left.config.type_cap(left.depth),
                       right.config.type_cap(right.depth)), q, theta)
    parts = []
    for tree, (region, n0) in zip(state.trees, covers):
        _grow(tree, n0)
        whole = RingElement(tree, n0, tree.level(n0).full_mask)
        parts.append([(g, part) for g, part in trim_split(whole)
                      if region >> g & 1])
    by_gen = dict(parts[1])
    for g, part in parts[0]:
        h = theta.image(0, g)
        if h not in by_gen:
            raise IsoError(f"no right part for foundation type "
                           f"{right.poset.id_at(h)!r}")
        state.add_fresh(Pair((part, by_gen.pop(h)), (g, h)))
    if by_gen:
        raise IsoError(f"unmatched right foundation types "
                       f"{sorted(map(right.poset.id_at, by_gen))}")
    return state


def _grow(tree: SkeletonTree, level: int) -> None:
    try:
        tree.extend_to(level)
    except BuildError as e:
        raise DepthBudget(str(e))


def _match_split(state: PartialIso, dst_side: int, dst_part: RingElement,
                 gens: list[int], max_depth: int) -> list[RingElement]:
    """Split dst_part into pieces matching the needed generators in order.

    Each needed generator claims one atom of exactly its type; remaining
    atoms spread over the pieces that tolerate them.  The level deepens
    until every claim is satisfiable; an isolated generator that cannot
    reach its claimed count inside a part typed exactly by it never will,
    which raises a mismatch instead.  Only the part's own atoms are typed,
    off the level's ``types`` over the part's runs, one level deeper a pass.
    """
    tree = state.trees[dst_side]
    iso = state.iso[dst_side]
    poset = tree.poset
    want = Counter(gens)
    level, mask = dst_part.level, dst_part.mask
    while True:
        # the part's atoms of each type
        types, masks = tree.level(level).types, {}
        for a, b in runs(mask):
            for i in range(a, b):
                masks[types[i]] = masks.get(types[i], 0) | 1 << i
        have = {h: masks.get(h, 0).bit_count() for h in want}
        short = [h for h, n in want.items() if have[h] < n]
        if not short:
            break
        for h in short:
            growable = any(t != h and poset.leq_ix(t, h) for t in masks)
            if iso >> h & 1 and not growable:
                raise _isolation_shortfall(dst_side, poset, h, want[h],
                                           have[h])
            if not growable and not have[h]:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], poset.id_at(h), want[h], 0,
                    "needed type is not realized in the counterpart part"))
        level += 1
        if level > tree.depth:
            if level > max_depth:
                raise DepthBudget(f"{SIDES[dst_side]} side needs level "
                                  f"{level}")
            _grow(tree, level)
        mask = tree.theta_image(level - 1, mask)

    # the generators claim atoms of their types in order, lowest first; a
    # type's atoms are read only as far as its claims go
    taken = {h: bits(masks[h]) for h in want}
    piece_masks = [1 << next(taken[h]) for h in gens]
    spare = mask & ~sum(piece_masks)
    # spread each type's unclaimed atoms round-robin, in index order, over
    # the pieces that tolerate the type, so no piece starves a later split
    # into chasing atoms ever deeper; which pieces take an atom depends
    # only on its type
    for s, atoms in masks.items():
        atoms &= spare
        if not atoms:
            continue
        eligible = [k for k, g in enumerate(gens)
                    if poset.leq_ix(g, s) and not (g == s and iso >> g & 1)]
        if not eligible:
            raise IsoError(f"atom of type {poset.id_at(s)!r} fits no piece; "
                           f"pairing invariant broken")
        for j, i in enumerate(bits(atoms)):
            piece_masks[eligible[j % len(eligible)]] |= 1 << i
    return [RingElement(tree, level, pm) for pm in piece_masks]


def _fresh_counterpart(state: PartialIso, dst_side: int, h: int,
                       max_depth: int) -> RingElement:
    """First atom of exactly the needed type that no part of dst_side
    holds, lowest level first."""
    tree = state.trees[dst_side]
    busy = state.held[dst_side]
    for level in range(busy.level, max_depth + 1):
        if level > tree.depth:
            _grow(tree, level)
        free = tree.level(level).type_mask(h) & ~busy.mask_at(level)
        if free:
            low = (free & -free).bit_length() - 1
            return RingElement.atom(tree, level, low)
    raise DepthBudget(f"no unclaimed {tree.poset.id_at(h)!r} atom on the "
                      f"{SIDES[dst_side]} side within depth {max_depth}")


def extend_iso(state: PartialIso, side: int, element: RingElement,
               max_depth: int,
               transcript: Optional[list] = None) -> None:
    """Refine the pairing so the given element of side becomes a union of
    parts.

    side is 0 (left) or 1 (right); the side names appear only in
    witnesses, depth-budget notes and ``PartialIso.verify`` messages.

    A step visits only the parts the element meets.  The side's part index
    (``PartialIso.index``) holds every part as runs on one common level,
    raised first to the element's level if that lies deeper.  Each run of
    the element lifts to one run there (``SkeletonTree.lift_runs``), and
    bisect finds the part runs it overlaps.  A met part whose runs all lie
    inside the element's is kept as it is; only a part the element splits
    is lifted as a mask.  Only when the met runs leave a gap in the element
    does the step read the held union (``PartialIso.held``): the element
    minus the union, on the deeper of their levels, is paired fresh."""
    if not element:
        return
    dst_side = 1 - side
    theta = state.theta
    iso_src = state.iso[side]
    tree = state.trees[side]
    index = state.index[side]
    n0 = element.level
    if n0 > index.top:
        index.raise_to(n0)
    top = index.top
    met, gap = index.meet(tree.lift_runs(n0, runs(element.mask), top))
    refined = []
    for key in sorted(key for key, inside in met.items() if not inside):
        pair = state.pair(key)
        src = pair.parts[side]
        n = max(n0, src.level)
        s = src.mask_at(n)
        inter = element.mask_at(n) & s
        halves = [RingElement(tree, n, inter),
                  RingElement(tree, n, s & ~inter)]
        src_pieces: list[tuple[int, RingElement]] = []
        for half in halves:
            src_pieces.extend(supertrim_split(half, iso_src))
        needs = []
        for g, _ in src_pieces:
            h = theta.image(side, g)
            if h is None:
                raise _no_counterpart(dst_side, tree.poset, g, sum(
                    1 for gg, _ in src_pieces if gg == g))
            needs.append(h)
        dst_pieces = _match_split(state, dst_side, pair.parts[dst_side],
                                  needs, max_depth)
        refined.append((key, [
            Pair(_facing(side, src_piece, dst_piece), _facing(side, g, h))
            for h, (g, src_piece), dst_piece in zip(needs, src_pieces,
                                                    dst_pieces)]))
        if transcript is not None:
            transcript.append({"action": "split", "side": side,
                               "pieces": len(src_pieces)})
    for key, pieces in refined:
        state.replace(key, pieces)

    if not gap:
        return
    held = state.held[side]
    n = max(n0, held.level)
    rest = RingElement(tree, n, element.mask_at(n) & ~held.mask_at(n))
    pieces = supertrim_split(rest, iso_src)
    for g, piece in pieces:
        h = theta.image(side, g)
        if h is None:
            raise _no_counterpart(dst_side, tree.poset, g, 1)
        mate = _fresh_counterpart(state, dst_side, h, max_depth)
        state.add_fresh(Pair(_facing(side, piece, mate),
                             _facing(side, g, h)))
    if transcript is not None:
        transcript.append({"action": "fresh", "side": side,
                           "pieces": len(pieces)})


class IsoRun(Record):
    """status is "iso", "mismatch" or "depth-exhausted"."""

    __slots__ = _compare = ("status", "pairs", "depth_used", "witness",
                            "note", "coverage", "invariant_failures",
                            "transcript")

    def __init__(self, status: str, pairs: int = 0, depth_used: int = 0,
                 witness: Optional[MismatchWitness] = None, note: str = "",
                 coverage: bool = False,
                 invariant_failures: Optional[list] = None,
                 transcript: Optional[list] = None):
        self.status, self.pairs, self.depth_used = status, pairs, depth_used
        self.witness, self.note, self.coverage = witness, note, coverage
        self.invariant_failures = (
            [] if invariant_failures is None else invariant_failures)
        self.transcript = [] if transcript is None else transcript

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


def _theta_over(left: BuildConfig, right: BuildConfig,
                theta: Optional[Callable[[str], str]], span: int) -> _ThetaMap:
    """The bijection over the span as index tables both ways, the identity
    on ids when theta is None, in which case the sides must name the same
    elements.  It must map prefix onto prefix and keep the order both
    ways.  Only the sides' posets are read, so trees serve as well."""
    a = left.poset.prefix(span)
    b = set(right.poset.prefix(span))
    if theta is None and set(a) != b:
        raise IsoError("sides name different elements; supply a bijection")
    image = a if theta is None else [theta(p) for p in a]
    targets = set(image)
    if len(targets) != len(a) or not targets <= b:
        raise IsoError("the bijection does not map prefix onto prefix")
    # fwd and back over 1..len(a), which the targets fill on the right
    fwd = [0, *map(right.poset.index, image)]
    back = fwd[:]
    for i, j in enumerate(fwd):
        back[j] = i
    # each left row against its image's row, pulled back through theta
    cut = left.poset.prefix_mask(span)
    for i, p in enumerate(a, 1):
        row = right.poset.up_mask(fwd[i])
        diff = (left.poset.up_mask(i) & cut) ^ sum(
            1 << back[k] for k in bits(row & cut))
        if diff:
            q = a[(diff & -diff).bit_length() - 2]
            raise IsoError(f"the bijection breaks order at ({p!r}, {q!r})")
    return _ThetaMap((left.poset, right.poset), (fwd, back))


def _check_isolation(state: PartialIso) -> None:
    """Raise a mismatch at the first pair whose generator is isolated on
    one side only.  The isolated part holds one atom of its type at every
    depth, while the other part's type splits in two each level, so no
    refinement can match them: the witness counts the other part's atoms
    of its type one level below it."""
    for pair in state.pairs:
        for side in (0, 1):
            other, g, h = 1 - side, pair.gens[side], pair.gens[1 - side]
            if not state.iso[side] >> g & 1 or state.iso[other] >> h & 1:
                continue
            part = pair.parts[other]
            n = part.level + 1
            _grow(part.tree, n)
            atoms = part.mask_at(n) & part.tree.level(n).type_mask(h)
            raise _isolation_shortfall(side, state.trees[side].poset, g,
                                       atoms.bit_count(), 1)


def _check_past_span(left: BuildConfig, right: BuildConfig,
                     theta: Optional[Callable[[str], str]], span: int) -> None:
    """Raise when the posets differ past the checked span, where the
    bijection is the identity on indices.  A finite side with fewer
    elements than the other lacks a counterpart for the other side's next
    element, a mismatch; finite sides of one size are checked whole, as
    the span was.  Only the sides' posets are read."""
    sides = (left, right)
    sizes = [s.poset.size for s in sides]
    for side in (0, 1):
        mine, theirs = sizes[side], sizes[1 - side]
        if mine is not None and (theirs is None or mine < theirs):
            raise _no_counterpart(side, sides[1 - side].poset, mine + 1, 1)
    if sizes[0] is not None and sizes[0] > span:
        _theta_over(left, right, theta, sizes[0])


def _setup(left: BuildConfig, right: BuildConfig, depth: int,
           q: Optional[int],
           theta: Optional[Callable[[str], str]]) -> tuple[int, _ThetaMap, int]:
    """The span a run to depth checks, the types both sides may hold on
    levels 1..depth; the bijection over it (``_theta_over``); and the
    compared region q, a mask over the left enumeration, by default
    P_Delta over the span, which must not be empty."""
    span = min(left.type_cap(depth), right.type_cap(depth))
    bijection = _theta_over(left, right, theta, span)
    if q is None:
        q = left.poset.p_delta(span)
    if not q:
        raise IsoError("the compared region is empty; pass q explicitly when "
                       "no element has a confirmed finite foundation")
    return span, bijection, q


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

    Each call indexes each side's parts afresh, as runs on a level no part
    or scheduled atom lies below.  There an atom is one run, and the atoms
    of one level lift in one ``lift_runs`` call; bisect finds the part runs
    that start inside an atom's run, and the atom is covered iff the runs
    of the parts lying wholly inside it fill it.  Lifting keeps inclusion
    both ways, since every node has children."""
    for side, tree in enumerate(state.trees):
        parts = [pair.parts[side] for pair in state.pairs]
        atoms: dict[int, list[tuple[int, int]]] = {}
        for s, n, i in schedule:
            if s == side:
                atoms.setdefault(n, []).append((i, i + 1))
        top = max([p.level for p in parts] + list(atoms), default=1)
        index = RunIndex(tree, top, enumerate(parts))
        for n, spans in atoms.items():
            if not all(index.fills(a, b)
                       for a, b in tree.lift_runs(n, spans, top)):
                return False
    return True


def run_backforth(left: SkeletonTree, right: SkeletonTree,
                  q: Optional[int] = None,
                  theta: Optional[Callable[[str], str]] = None,
                  depth: Optional[int] = None,
                  max_depth: Optional[int] = None,
                  seed: int = 0) -> IsoRun:
    """Drive the pairing over a seeded shuffle of both atom schedules,
    each side grown to the scheduled levels first.

    Completing the schedule with every scheduled atom a union of parts,
    no pair whose generator is isolated on one side only, and posets that
    agree past the span (``_check_past_span``) is an isomorphism
    certificate to the scheduled depth.  A provable count contradiction
    reports a mismatch with its witness; running out of the level budget
    reports exhaustion instead.  The compared region q is a mask over the
    left enumeration, by default P_Delta over the span.
    """
    if depth is None:
        depth = min(left.depth, right.depth)
    if depth < 3:
        raise IsoError("need depth at least 3")
    max_depth = depth + 8 if max_depth is None else max_depth
    if max_depth < depth:
        raise IsoError("max_depth must be at least depth")
    span, bijection, q = _setup(left.config, right.config, depth, q, theta)
    run = IsoRun(status="iso")
    try:
        state = init_iso(left, right, q, bijection)
        for tree in state.trees:
            _grow(tree, depth - 2)
    except DepthBudget as d:
        return IsoRun(status="depth-exhausted", note=str(d))
    run.transcript.append({"action": "init", "pairs": len(state.pairs)})

    schedule = _schedule(left, right, depth, seed)
    try:
        for side, n, i in schedule:
            extend_iso(state, side, RingElement.atom(state.trees[side], n, i),
                       max_depth, run.transcript)
        _check_isolation(state)
        _check_past_span(left.config, right.config, theta, span)
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
            run.note = ("schedule finished without full coverage"
                        if not covered else
                        "schedule finished with broken pairing invariants")
    return run


def equal_rules_run(left: BuildConfig, right: BuildConfig, depth: int,
                    q: Optional[int] = None) -> IsoRun:
    """The verdict to depth on two configs whose build rules agree on
    levels 1..depth (``skeleton.equal_rules``), given with no tree built
    and no search: their builds are equal level by level and name the
    same ids index for index, so the identity on atoms pairs every atom
    with one of its own type, the isomorphism a completed schedule of
    ``run_backforth`` certifies.  The run's setup and closing checks come
    first, in its order and with its errors: the bijection and the
    compared region (``_setup``), the regions on each side's prefix up to
    type_cap(depth) (``_regions``) and the posets past the span
    (``_check_past_span``)."""
    span, bijection, q = _setup(left, right, depth, q, None)
    _regions((left.poset, right.poset),
             (left.type_cap(depth), right.type_cap(depth)), q, bijection)
    _check_past_span(left, right, None, span)
    return IsoRun(status="iso", depth_used=depth, coverage=True,
                  note=f"equal-rules: the identity on atoms matches the "
                       f"builds to depth {depth}")


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
