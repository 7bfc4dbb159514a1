"""Closure algebras generated by one open set, computed symbolically.

Elements are finite or cofinite sets of enumeration indices, each held as
its signed form (F for a finite F, ~F for W - F), where union,
intersection and difference are |, & and & ~ and equal ints are equal
sets.  The space keeps each index's down-set and up-set as signed rows;
elements are made only at the trace and API edges, and ids only where sets
are named.  Closure is down-closure, exact on both shapes, so the peeling
runs without approximation.

A ladder space sees an enumeration prefix and assumes two things of the
rest: an element's order is settled one index past it (everything later
lies below it), and the bottom, a unique confirmed-minimal element if
there is one, lies below everything.  Ids must be enumerated: a ladder
space enumerates horizon + 1 elements, each down-set one element further.
"""
from __future__ import annotations

from functools import partial, reduce
from operator import or_
from typing import Optional

from ._record import Frozen, Record
from .poset import Poset, PosetError, bits

LADDER_FAMILIES = ("rn-infinity", "rn-infinity-bot")


class ClosureError(ValueError):
    """Bad symbolic-space input."""


class SymbolicSpace:
    """Index poset plus exact finite/cofinite set arithmetic over it:
    ``_w`` is the whole set signed (a finite space's mask, a ladder's -1),
    ``_bot`` the bottom's bit and ``_rungs`` the other indices in
    enumeration order, a finite space's all and a ladder's first horizon."""

    def __init__(self, poset: Poset, horizon: int = 12):
        self.finite = poset.finite
        if not self.finite and poset.name not in LADDER_FAMILIES:
            raise ClosureError(
                "symbolic spaces need a finite poset or a ladder family")
        self.poset, self.horizon = poset, horizon
        shown = poset.size if self.finite else horizon + 1
        poset.ensure(shown)
        self._w = poset.prefix_mask(shown) if self.finite else -1
        mins = poset.confirmed_minimal(shown)
        self._bot = mins if mins.bit_count() == 1 else 0
        self.bottom = (poset.id_at(self._bot.bit_length() - 1) if self._bot
                       else None)
        rungs = [i for i in range(1, shown + 1) if 1 << i != self._bot]
        self._rungs = rungs if self.finite else rungs[:horizon]
        self._rows: dict[int, tuple[int, int]] = {}

    def fin(self, ids) -> "ClosureElement":
        try:
            return ClosureElement(self, self.poset.mask_of(ids))
        except PosetError as e:
            raise ClosureError(str(e)) from None

    def empty(self) -> "ClosureElement":
        return ClosureElement(self, 0)

    def whole(self) -> "ClosureElement":
        return ClosureElement(self, self._w)

    def _row(self, i: int) -> tuple[int, int]:
        """The signed down-set and up-set of index i, read once; a ladder
        settles i's order on the prefix through i + 1 (later lies below)."""
        row = self._rows.get(i)
        if row is None:
            p, w = self.poset, self._w
            reach = p.size if self.finite else i + 1
            below = p.lower_of(1 << i, reach)
            row = self._rows[i] = (
                (below, w) if 1 << i == self._bot else
                (w & ~(p.prefix_mask(reach) & ~below),
                 p.up_mask(i) & (1 << reach + 1) - 2))
        return row

    def down_of(self, i: int) -> "ClosureElement":
        """The down-set of enumeration index i."""
        return ClosureElement(self, self._row(i)[0])

    def up_of(self, i: int) -> "ClosureElement":
        """The up-set of enumeration index i."""
        return ClosureElement(self, self._row(i)[1])

    def closure_of(self, x: "ClosureElement") -> "ClosureElement":
        """Down-closure; exact on both set shapes."""
        if x.space is not self:
            raise ClosureError("element from another space")
        s = x.signed
        if s >= 0:
            return ClosureElement(self, reduce(
                or_, [self._row(i)[0] for i in bits(s)], 0))
        # a missing element stays out iff its up-set misses x
        return ClosureElement(self, ~sum(1 << i for i in bits(~s)
                                         if not self._row(i)[1] & s))

    def is_open(self, x: "ClosureElement") -> bool:
        comp = x.complement()
        return self.closure_of(comp) == comp


class ClosureElement(Frozen):
    """Finite or cofinite set of enumeration indices in signed form: F for
    a finite F, ~F for W - F.  A finite space stores a cofinite set as its
    finite complement, so equal sets are equal ints.  ``ids`` is a
    read-only view of F."""

    __slots__ = _show = ("space", "signed")
    _compare = ("signed",)

    def __init__(self, space: SymbolicSpace, signed: int):
        self._fill(space, signed & space._w)

    def __bool__(self) -> bool:
        return bool(self.signed)

    @property
    def ids(self) -> frozenset:
        s = self.signed
        return self.space.poset.ids_of(max(s, ~s))

    def union(self, other: "ClosureElement") -> "ClosureElement":
        return ClosureElement(self.space, self.signed | other.signed)

    def intersect(self, other: "ClosureElement") -> "ClosureElement":
        return ClosureElement(self.space, self.signed & other.signed)

    def complement(self) -> "ClosureElement":
        return ClosureElement(self.space, ~self.signed)

    def subset_of(self, other: "ClosureElement") -> bool:
        return not self.signed & ~other.signed

    def _single(self) -> int:
        """The mask of a one-element finite set, else 0."""
        s = self.signed
        # a negative s keeps bits after its lowest is cleared
        return 0 if s & s - 1 else s

    def sole_id(self) -> Optional[str]:
        m = self._single()
        return self.space.poset.id_at(m.bit_length() - 1) if m else None

    def render(self) -> str:
        sp, s = self.space, self.signed
        mask = max(s, ~s)
        m = mask & ~sp._bot
        ids = sp.poset.prefix(max(m.bit_length() - 1, 0))
        names = [ids[i - 1] for i in bits(m)]
        if mask & sp._bot:
            names.append(sp.bottom)
        body = "{" + ",".join(names) + "}"
        return f"W-{body}" if s < 0 else body

    def serialize(self) -> dict:
        return {"shape": "cofinite" if self.signed < 0 else "finite",
                "ids": sorted(self.ids)}


def check_closure_axioms(space: SymbolicSpace) -> list[str]:
    """Exhaustive closure-axiom check over subsets of a small id pool: a
    finite space's every id, or a ladder's first five rungs and its
    bottom."""
    from itertools import combinations
    pool = (sorted(space.whole().ids) if space.finite else
            [space.poset.id_at(i) for i in space._rungs[:5]]
            + [p for p in [space.bottom] if p])
    subsets = []
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            subsets.append(space.fin(combo))
            if not space.finite:
                subsets.append(subsets[-1].complement())
    problems = []
    cl = space.closure_of
    if cl(space.empty()):
        problems.append("closure of the empty set is nonempty")
    for x in subsets:
        cx = cl(x)
        if not x.subset_of(cx):
            problems.append(f"{x.render()} not inside its closure")
        if cl(cx) != cx:
            problems.append(f"closure not idempotent at {x.render()}")
    for x in subsets[::7] or subsets:
        for y in subsets[::11] or subsets:
            if cl(x.union(y)) != cl(x).union(cl(y)):
                problems.append(f"closure not additive at {x.render()}, "
                                f"{y.render()}")
    return problems


# ----------------------------------------------------------------------
# the peeling recursion

class RNTrace(Record):
    __slots__ = _compare = ("space", "u", "v", "b", "a_inf", "a_inf_exact",
                            "note")

    def __init__(self, space: SymbolicSpace, u: Optional[list] = None,
                 v: Optional[list] = None, b: Optional[list] = None,
                 a_inf: Optional[ClosureElement] = None,
                 a_inf_exact: bool = False, note: str = ""):
        self.space = space
        self.u, self.v, self.b = ([] if x is None else x for x in (u, v, b))
        self.a_inf, self.a_inf_exact, self.note = a_inf, a_inf_exact, note

    @property
    def n_ran(self) -> int:
        """The last step computed, 0 before any."""
        return max(len(self.b) - 1, 0)

    @property
    def N(self) -> Optional[int]:
        """n - 1 for the first step n >= 1 with B_n empty, or None."""
        return next((n - 1 for n in range(1, len(self.b))
                     if not self.b[n]), None)

    @property
    def stabilized(self) -> bool:
        """Did the run end on an empty B_n with V_n the whole space?"""
        return (len(self.b) > 1 and not self.b[-1]
                and self.v[-1].signed == self.space._w)

    def serialize(self) -> dict:
        return {
            "steps": [{"n": n, "U": self.u[n].serialize(),
                       "V": self.v[n].serialize(),
                       "B": self.b[n].serialize()}
                      for n in range(len(self.b))],
            "N": self.N,
            "stabilized": self.stabilized,
            "A_inf": self.a_inf.serialize() if self.a_inf else None,
            "A_inf_exact": self.a_inf_exact,
            "note": self.note,
        }


def rieger_nishimura_run(space: SymbolicSpace, a: ClosureElement,
                         max_n: int = 30) -> RNTrace:
    """Peel the space: U strips the closure of the last new layer, V
    accumulates, B is what the strip newly exposed."""
    if not space.is_open(a):
        raise ClosureError("the generator must be an open (up-closed) set")
    w, el = space._w, partial(ClosureElement, space)
    t = RNTrace(space, [a], [space.empty()], [a])
    # the last layer's U and V and all that no layer has taken yet, signed
    u, v, rest = a.signed, 0, w & ~a.signed
    for _ in range(max_n):
        u_n = w & ~space.closure_of(t.b[-1]).signed
        u, v, b = u_n, u | v, u_n & ~v
        t.u.append(el(u))
        t.v.append(el(v))
        t.b.append(el(b))
        rest &= ~b
        if not b and v == w:
            break
    if t.stabilized:
        t.a_inf, t.a_inf_exact = el(rest), True
        return t
    tail = [x._single() for x in t.b[-3:]]
    marching = (not space.finite and len(tail) == 3 and 0 not in tail
                and not (tail[0] | tail[1] | tail[2]) & space._bot
                and tail[1:] == [tail[0] << 1, tail[0] << 2])
    if marching:
        t.a_inf = el(space._bot & rest)
        t.note = (f"singleton layers march up the ladder; tail projected "
                  f"from step {t.n_ran}")
    else:
        t.note = "cut off before the layer pattern settled"
    return t


def check_identities(trace: RNTrace) -> list[str]:
    """Recheck the defining and derived equations at every computed step,
    on the layers' signed forms."""
    sp, w = trace.space, trace.space._w
    u, v, b = ([x.signed for x in xs] for xs in (trace.u, trace.v, trace.b))
    last = trace.n_ran
    # every closure below is of a layer B_0 .. B_{last - 1}: take each once
    closed = [sp.closure_of(trace.b[n]).signed for n in range(last)]
    problems = []
    for n in range(1, last + 1):
        if u[n] != w & ~closed[n - 1]:
            problems.append(f"U_{n} is not the complement of the closed "
                            f"layer below")
        if v[n] != u[n - 1] | v[n - 1]:
            problems.append(f"V_{n} does not accumulate U_{n - 1}")
        if b[n] != u[n] & ~v[n - 1]:
            problems.append(f"B_{n} is not the new part of U_{n}")
    for n in range(0, last):
        if b[n] != v[n + 1] & ~v[n]:
            problems.append(f"B_{n} != V_{n + 1} - V_{n}")
        if closed[n] != w & ~u[n + 1]:
            problems.append(f"closure(B_{n}) != W - U_{n + 1}")
        if v[n] != u[n + 1] & v[n + 1]:
            problems.append(f"V_{n} != U_{n + 1} & V_{n + 1}")
        if n >= 1 and v[n - 1] != u[n + 1] & u[n]:
            problems.append(f"V_{n - 1} != U_{n + 1} & U_{n}")
    for j in range(last + 1):
        for k in range(j + 1, last + 1):
            if b[j] and b[k]:
                if b[j] & b[k]:
                    problems.append(f"B_{j} and B_{k} overlap")
                if (not b[k] & ~closed[j]) != (k >= j + 2):
                    problems.append(f"ladder order fails at B_{k}, B_{j}")
    if trace.a_inf is not None:
        a = trace.a_inf.signed
        if sp.closure_of(trace.a_inf).signed != a:
            problems.append("A_inf is not closed")
        problems.extend(f"A_inf meets B_{k}" for k in range(last + 1)
                        if a & b[k])
    return problems


class Classification(Frozen):
    __slots__ = _compare = ("case", "name", "witness", "note")

    def __init__(self, case: Optional[int], name: str, witness: dict,
                 note: str = ""):
        self._fill(case, name, witness, note)

    def serialize(self) -> dict:
        return {"case": self.case, "name": self.name,
                "witness": dict(self.witness), "note": self.note}


def classify_algebra(trace: RNTrace) -> Classification:
    """Four-way outcome of the peeling run, with the atom-to-index map."""
    witness = {}
    for k in range(trace.n_ran + 1):
        sole = trace.b[k].sole_id()
        if sole is not None:
            witness[str(k)] = sole
    if trace.N is not None:
        n = trace.N
        if n + 2 > trace.n_ran:
            if trace.stabilized:
                # every later layer is provably empty
                return Classification(1, f"P({n},0)", witness)
            return Classification(None, "inconclusive", witness,
                                  f"stopped before step {n + 2}")
        if not trace.b[n + 2]:
            return Classification(1, f"P({n},0)", witness)
        return Classification(2, f"P({n},2)", witness)
    if trace.a_inf is not None:
        if trace.a_inf:
            return Classification(4, "P_infinity_with_Ainf", witness,
                                  trace.note)
        return Classification(3, "P_infinity", witness, trace.note)
    return Classification(None, "inconclusive", witness,
                          trace.note or "no layer became empty in time")


# ----------------------------------------------------------------------
# single-generation certificate

def e_of_p(space: SymbolicSpace) -> dict:
    """Certify that consecutive singletons fall out of order arithmetic.

    For consecutive rungs p, q (``SymbolicSpace._rungs``), p the k-th, the
    space minus the up-set of p, minus its down-set, minus the k rungs
    before p, must be exactly {q}.
    """
    poset, rungs = space.poset, space._rungs
    failures, before = [], 0
    for k, (i, j) in enumerate(zip(rungs, rungs[1:])):
        down, up = space._row(i)
        got = space._w & ~up & ~down & ~before
        if got != 1 << j:
            failures.append(
                {"k": k, "got": ClosureElement(space, got).serialize()})
        before |= 1 << i
    return {"family": poset.name, "horizon": space.horizon,
            "checked": max(len(rungs) - 1, 0), "holds": not failures,
            "failures": failures}


# ----------------------------------------------------------------------
# renders

def render_trace_text(trace: RNTrace, cls: Classification) -> str:
    lines = [f"{'n':>3}  {'U_n':<24} {'V_n':<24} {'B_n':<24}"]
    for n in range(trace.n_ran + 1):
        lines.append(f"{n:>3}  {trace.u[n].render():<24} "
                     f"{trace.v[n].render():<24} {trace.b[n].render():<24}")
    lines.append(f"N = {'inf' if trace.N is None else trace.N}; "
                 f"classification {cls.name}"
                 + (f" (case {cls.case})" if cls.case else ""))
    if trace.a_inf is not None:
        tag = "" if trace.a_inf_exact else " (projected)"
        lines.append(f"A_inf = {trace.a_inf.render()}{tag}")
    return "\n".join(lines)


def render_trace_dot(trace: RNTrace) -> str:
    """The layer ladder: each singleton layer hangs on the singleton
    layers that cover it in the order restricted to them."""
    sp = trace.space
    layers = [(n, m) for n, x in enumerate(trace.b) if (m := x._single())]
    seen = dict.fromkeys(m for _, m in layers)
    name = {m: sp.poset.id_at(m.bit_length() - 1) for m in seen}
    on = sum(seen)
    below = {m: sp._row(m.bit_length() - 1)[0] & on & ~m for m in seen}
    lines = ["digraph ladder {", "  rankdir=TB;"]
    lines.extend(f'  "{name[m]}" [label="B{n}: {name[m]}"];'
                 for n, m in layers)
    for a in seen:
        # a covers what lies below it and below no other layer below it
        cover = rest = below[a]
        while rest:
            c = rest & -rest
            cover &= ~below[c]
            rest = cover & -(c << 1)
        lines.extend(f'  "{name[a]}" -> "{name[b]}";' for b in seen
                     if cover & b)
    lines.append("}")
    return "\n".join(lines)
