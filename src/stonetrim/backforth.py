"""Back-and-forth matching between two skeleton limit spaces.

A partial isomorphism is a finite list of paired clopen parts, one part per
side, where paired parts realize type sets matched by a fixed order
bijection of the posets, and a part generated by an isolated type holds
exactly one atom of that type.  Splitting any part on one side forces a
matching split on the other; isolated types cannot multiply inside parts
typed exactly by them, so a count shortfall there is a proof that no
matching split exists at any depth.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .poset import FOUND, Poset, PosetError, bits
from .ring import RingElement, is_trim_for, supertrim_split, trim_split
from .skeleton import BuildError, SkeletonTree


class IsoError(ValueError):
    """The matching run was set up inconsistently."""


@dataclass(frozen=True)
class MismatchWitness:
    """A count contradiction that refinement can never repair."""

    side: str                  # side that ran short
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


@dataclass
class Pair:
    left: RingElement
    right: RingElement
    gen_left: str
    gen_right: str


class PartialIso:
    """Paired clopen decompositions of the two sides."""

    def __init__(self, left: SkeletonTree, right: SkeletonTree,
                 theta: Callable[[str], str]):
        self.left = left
        self.right = right
        self.theta = theta
        self.iso_left = frozenset(left.config.isolated)
        self.iso_right = frozenset(right.config.isolated)
        self.pairs: list[Pair] = []

    def tree(self, side: str) -> SkeletonTree:
        return self.left if side == "left" else self.right

    def iso_ids(self, side: str) -> frozenset:
        return self.iso_left if side == "left" else self.iso_right

    def part(self, pair: Pair, side: str) -> RingElement:
        return pair.left if side == "left" else pair.right

    def union(self, side: str) -> RingElement:
        out = RingElement.empty(self.tree(side))
        for pair in self.pairs:
            out = out.union(self.part(pair, side))
        return out

    def verify(self) -> list[str]:
        """Recheck every pairing invariant from scratch."""
        problems = []
        for side in ("left", "right"):
            top = max((self.part(p, side).level for p in self.pairs),
                      default=1)
            acc = 0
            count = 0
            for pair in self.pairs:
                m = self.part(pair, side).mask_at(top)
                count += bin(m).count("1")
                acc |= m
            if count != bin(acc).count("1"):
                problems.append(f"{side} parts overlap")
        for k, pair in enumerate(self.pairs):
            if self.theta.image("left", pair.gen_left) != pair.gen_right:
                problems.append(f"pair {k}: generators not matched by the "
                                f"order bijection")
            for side in ("left", "right"):
                part = self.part(pair, side)
                gen = pair.gen_left if side == "left" else pair.gen_right
                if not is_trim_for(part, gen):
                    problems.append(f"pair {k}: {side} part is not trim for "
                                    f"{gen!r}")
                if gen in self.iso_ids(side):
                    c = part.type_counts().get(gen, 0)
                    if c != 1:
                        problems.append(f"pair {k}: {side} isolated "
                                        f"generator count {c}")
        return problems


def _other(side: str) -> str:
    return "right" if side == "left" else "left"


class _ThetaMap:
    """Bijection between the side alphabets, usable in both directions.

    Explicit pairs cover the compared span; beyond it ids correspond by
    enumeration index.  An id with no injective counterpart maps to None,
    which the matcher treats as a provable type mismatch.
    """

    def __init__(self, left_poset: Poset, right_poset: Poset,
                 pairs: Optional[dict] = None):
        self.posets = {"left": left_poset, "right": right_poset}
        self.fwd: dict[str, str] = dict(pairs or {})
        self.rev: dict[str, str] = {v: k for k, v in self.fwd.items()}
        if len(self.rev) != len(self.fwd):
            raise IsoError("the bijection repeats a target element")

    def image(self, src_side: str, p: str) -> Optional[str]:
        table = self.fwd if src_side == "left" else self.rev
        hit = table.get(p)
        if hit is not None:
            return hit
        src = self.posets[src_side]
        dst = self.posets[_other(src_side)]
        try:
            hit = dst.id_at(src.index(p))
        except PosetError:
            return None
        other = self.rev if src_side == "left" else self.fwd
        if hit in other:
            return None
        table[p] = hit
        other[hit] = p
        return hit


def init_iso(left: SkeletonTree, right: SkeletonTree, q: Iterable[str],
             theta) -> PartialIso:
    """Seed the pairing from the founded lower region named by q.

    The covering level on each side is the last enumeration slot of the
    foundation; its whole level splits into trim parts and the parts
    generated inside q are paired through the order bijection.  theta may
    be a callable, evaluated over the shared span, or a prepared map.
    """
    if not isinstance(theta, _ThetaMap):
        span = min(left._cap(left.depth), right._cap(right.depth))
        theta = _ThetaMap(left.poset, right.poset,
                          {p: theta(p) for p in left.poset.prefix(span)})
    state = PartialIso(left, right, theta)
    q_left = frozenset(q)
    images = {p: theta.image("left", p) for p in q_left}
    missing = sorted(p for p, h in images.items() if h is None)
    if missing:
        raise IsoError(f"region elements {missing} have no counterpart "
                       f"under the bijection")
    q_right = frozenset(images.values())
    for side, tree, qs in (("left", left, q_left), ("right", right, q_right)):
        cap = tree._cap(tree.depth)
        if not tree.poset.is_lower(qs, cap):
            raise IsoError(f"{side} region is not a lower set on the prefix")
        res = tree.poset.finite_foundation(qs, cap)
        if res.status != FOUND:
            raise IsoError(f"{side} region has no confirmed finite foundation")
        n0 = max(tree.poset.index(p) for p in res.foundation)
        _grow(tree, n0)
        whole = RingElement(tree, n0, tree.level(n0).full_mask)
        parts = [(g, part) for g, part in trim_split(whole) if g in qs]
        if side == "left":
            left_parts = parts
        else:
            right_parts = parts
    by_gen = {g: part for g, part in right_parts}
    for g, part in left_parts:
        h = theta.image("left", g)
        if h not in by_gen:
            raise IsoError(f"no right part for foundation type {h!r}")
        state.pairs.append(Pair(part, by_gen.pop(h), g, h))
    if by_gen:
        raise IsoError(f"unmatched right foundation types {sorted(by_gen)}")
    return state


def _grow(tree: SkeletonTree, level: int) -> None:
    try:
        tree.extend_to(level)
    except BuildError as e:
        raise DepthBudget(str(e))


def _counterpart_ix(tree: SkeletonTree, side: str, h: str, needed: int,
                    max_depth: int) -> int:
    """Enumeration index of a needed type, enumerating up to the reach of
    the level budget before declaring it absent."""
    if h not in tree.poset:
        tree.poset.prefix(tree._cap(max_depth))
    if h not in tree.poset:
        raise MismatchFound(MismatchWitness(
            side, h, needed, 0,
            "needed type does not occur in the counterpart poset"))
    return tree.poset.index(h)


def _match_split(state: PartialIso, dst_side: str, dst_part: RingElement,
                 needs: list[tuple[str, RingElement]],
                 max_depth: int) -> list[RingElement]:
    """Split dst_part into pieces matching the needed generators in order.

    Each needed generator claims one atom of exactly its type; remaining
    atoms attach to the first piece that tolerates them.  The level deepens
    until every claim is satisfiable; an isolated generator that cannot
    reach its claimed count inside a part typed exactly by it never will,
    which raises a mismatch instead.
    """
    tree = state.tree(dst_side)
    iso = state.iso_ids(dst_side)
    poset = tree.poset
    gens = [h for h, _ in needs]
    want = Counter(gens)
    h_ix = {h: _counterpart_ix(tree, dst_side, h, n, max_depth)
            for h, n in want.items()}
    level = dst_part.level
    while True:
        if level > tree.depth:
            if level > max_depth:
                raise DepthBudget(f"{dst_side} side needs level {level}")
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
                    dst_side, h, want[h], len(avail[h]),
                    "isolated type cannot multiply inside a part typed "
                    "exactly by it"))
            if not growable and len(avail[h]) == 0:
                raise MismatchFound(MismatchWitness(
                    dst_side, h, want[h], 0,
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


def _fresh_counterpart(state: PartialIso, dst_side: str, h: str,
                       busy: RingElement, max_depth: int) -> RingElement:
    """First unclaimed atom of exactly the needed type, lowest level first."""
    tree = state.tree(dst_side)
    h_ix = _counterpart_ix(tree, dst_side, h, 1, max_depth)
    for level in range(busy.level, max_depth + 1):
        if level > tree.depth:
            _grow(tree, level)
        free = tree.level(level).type_mask(h_ix) & ~busy.mask_at(level)
        if free:
            return RingElement.atom(tree, level, next(bits(free)))
    raise DepthBudget(f"no unclaimed {h!r} atom on the {dst_side} side "
                      f"within depth {max_depth}")


def extend_iso(state: PartialIso, side: str, element: RingElement,
               max_depth: int,
               transcript: Optional[list] = None) -> None:
    """Refine the pairing so the given element becomes a union of parts."""
    if not element:
        return
    dst_side = _other(side)
    theta = state.theta
    iso_src = state.iso_ids(side)
    new_pairs: list[Pair] = []
    for pair in state.pairs:
        src = state.part(pair, side)
        inter = element.intersect(src)
        if not inter or inter == src:
            new_pairs.append(pair)
            continue
        halves = [inter, src.difference(inter)]
        src_pieces: list[tuple[str, RingElement]] = []
        for half in halves:
            src_pieces.extend(supertrim_split(half, iso_src))
        needs = []
        for g, piece in src_pieces:
            h = theta.image(side, g)
            if h is None:
                raise MismatchFound(MismatchWitness(
                    dst_side, g,
                    sum(1 for gg, _ in src_pieces if gg == g), 0,
                    "type has no counterpart in the other alphabet"))
            needs.append((h, piece))
        dst_pieces = _match_split(state, dst_side,
                                  state.part(pair, dst_side), needs,
                                  max_depth)
        for (h, _), (g, src_piece), dst_piece in zip(needs, src_pieces,
                                                     dst_pieces):
            if side == "left":
                new_pairs.append(Pair(src_piece, dst_piece, g, h))
            else:
                new_pairs.append(Pair(dst_piece, src_piece, h, g))
        if transcript is not None:
            transcript.append({"action": "split", "side": side,
                               "pieces": len(src_pieces),
                               "generator": pair.gen_left})
    state.pairs = new_pairs

    remainder = element.difference(state.union(side))
    if remainder:
        pieces = supertrim_split(remainder, iso_src)
        busy = state.union(dst_side)
        for g, piece in pieces:
            h = theta.image(side, g)
            if h is None:
                raise MismatchFound(MismatchWitness(
                    dst_side, g, 1, 0,
                    "type has no counterpart in the other alphabet"))
            mate = _fresh_counterpart(state, dst_side, h, busy, max_depth)
            busy = busy.union(mate)
            if side == "left":
                state.pairs.append(Pair(piece, mate, g, h))
            else:
                state.pairs.append(Pair(mate, piece, h, g))
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
    a = left.poset.prefix(span)
    b = right.poset.prefix(span)
    if set(a) != set(b):
        raise IsoError("sides name different elements; supply a bijection")
    return _ThetaMap(left.poset, right.poset, {p: p for p in a})


def _check_theta(left: SkeletonTree, right: SkeletonTree,
                 theta: Callable[[str], str], span: int) -> _ThetaMap:
    a = left.poset.prefix(span)
    b = set(right.poset.prefix(span))
    image = [theta(p) for p in a]
    if len(set(image)) != len(image) or not set(image) <= b:
        raise IsoError("the bijection does not map prefix onto prefix")
    for p in a:
        for q in a:
            if left.poset.leq(p, q) != right.poset.leq(theta(p), theta(q)):
                raise IsoError(f"the bijection breaks order at "
                               f"({p!r}, {q!r})")
    return _ThetaMap(left.poset, right.poset, dict(zip(a, image)))


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
    depth = depth or min(left.depth, right.depth)
    if depth < 3:
        raise IsoError("need depth at least 3")
    max_depth = max_depth or depth + 8
    span = min(left._cap(depth), right._cap(depth))
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

    rng = random.Random(seed)
    schedule = [(side, n, i)
                for side in ("left", "right")
                for n in range(1, max(2, depth - 1))
                for i in range(len((left if side == "left"
                                    else right).level(n)))]
    rng.shuffle(schedule)
    try:
        for side, n, i in schedule:
            tree = state.tree(side)
            extend_iso(state, side, RingElement.atom(tree, n, i),
                       max_depth, run.transcript)
    except MismatchFound as m:
        run.status = "mismatch"
        run.witness = m.witness
    except DepthBudget as d:
        run.status = "depth-exhausted"
        run.note = str(d)

    run.pairs = len(state.pairs)
    run.depth_used = max((max(p.left.level, p.right.level)
                          for p in state.pairs), default=1)
    if run.status == "iso":
        covered = True
        for side, n, i in schedule:
            tree = state.tree(side)
            atom = RingElement.atom(tree, n, i)
            inside = RingElement.empty(tree)
            for pair in state.pairs:
                part = state.part(pair, side)
                if atom.contains(part):
                    inside = inside.union(part)
            if inside != atom:
                covered = False
                break
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
