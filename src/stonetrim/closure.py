"""Closure algebras generated by one open set, computed symbolically.

Elements are finite or cofinite sets of enumeration indices, held as masks;
every order fact comes from the poset's up-set rows, and ids appear only
where sets are named.  Closure is down-closure; both shapes close exactly,
so the recursion peeling the space into atoms runs without approximation.

A ladder space sees an enumeration prefix and assumes two things of the
rest: an element's order is settled one index past it (everything later
lies below it), and the bottom, a unique confirmed-minimal element if
there is one, lies below everything.  Ids must be enumerated: a ladder
space enumerates horizon + 1 elements, each down-set one element further.
"""
from __future__ import annotations

from typing import Optional

from ._record import Frozen, Record
from .poset import Poset, PosetError, bits, covers_of

LADDER_FAMILIES = ("rn-infinity", "rn-infinity-bot")


class ClosureError(ValueError):
    """Bad symbolic-space input."""


class SymbolicSpace:
    """Index poset plus exact finite/cofinite set arithmetic over it:
    ``all_mask`` is a finite space's whole mask, ``_bot`` the bottom's bit."""

    def __init__(self, poset: Poset, horizon: int = 12):
        self.finite, self.ladder = poset.finite, not poset.finite
        if self.ladder and poset.family not in LADDER_FAMILIES:
            raise ClosureError(
                "symbolic spaces need a finite poset or a ladder family")
        self.poset, self.horizon = poset, horizon
        shown = horizon + 1 if self.ladder else poset.size
        poset.ensure(shown)
        self.all_mask = None if self.ladder else (1 << shown + 1) - 2
        mins, confirmed = poset.confirmed_minimal(shown)
        self.bottom = next(iter(mins)) if confirmed and len(mins) == 1 else None
        self._bot = 0 if self.bottom is None else 1 << poset.index(self.bottom)
        rungs = [i for i in range(1, shown + 1) if 1 << i != self._bot]
        self._rungs = rungs[:horizon] if self.ladder else rungs

    def fin(self, ids) -> "ClosureElement":
        try:
            return ClosureElement(self, False, self.poset.mask_of(ids))
        except PosetError as e:
            raise ClosureError(str(e)) from None

    def cof(self, ids) -> "ClosureElement":
        return self.fin(ids).complement()

    def empty(self) -> "ClosureElement":
        return ClosureElement(self, False, 0)

    def whole(self) -> "ClosureElement":
        return ClosureElement(self, True, 0)

    def rungs(self) -> list[str]:
        """The non-bottom elements in enumeration order: all of a finite
        space's, the first horizon of a ladder's."""
        return [self.poset.id_at(i) for i in self._rungs]

    def _reach(self, i: int) -> int:
        # a prefix that settles element i's order
        return i + 1 if self.ladder else self.poset.size

    def down_of(self, i: int) -> "ClosureElement":
        """The down-set of enumeration index i."""
        reach = self._reach(i)
        below = self.poset.lower_of(1 << i, reach)
        if 1 << i == self._bot:
            return ClosureElement(self, False, below)
        return ClosureElement(self, True, (1 << reach + 1) - 2 & ~below)

    def up_of(self, i: int) -> "ClosureElement":
        """The up-set of enumeration index i."""
        if 1 << i == self._bot:
            return self.whole()
        window = (1 << self._reach(i) + 1) - 2
        return ClosureElement(self, False, self.poset.up_mask(i) & window)

    def closure_of(self, x: "ClosureElement") -> "ClosureElement":
        """Down-closure; exact on both set shapes."""
        if x.space is not self:
            raise ClosureError("element from another space")
        if not x.cofinite:
            out = self.empty()
            for i in bits(x.mask):
                out = out.union(self.down_of(i))
            return out
        # a missing element stays out iff its up-set misses x
        return ClosureElement(self, True, sum(
            1 << i for i in bits(x.mask) if not self.up_of(i).intersect(x)))

    def is_open(self, x: "ClosureElement") -> bool:
        comp = x.complement()
        return self.closure_of(comp) == comp


class ClosureElement(Frozen):
    """Finite set of enumeration indices as a mask, or the complement of
    one (on a finite space, stored as its finite complement).  In a set
    operation a complement W - F is the negative int ~F, so union and
    intersection are | and &.  ``ids`` is a read-only view."""

    __slots__ = _show = ("space", "cofinite", "mask")
    _compare = ("cofinite", "mask")

    def __init__(self, space: SymbolicSpace, cofinite: bool, mask: int):
        if cofinite and space.finite:
            cofinite, mask = False, space.all_mask & ~mask
        self._fill(space, cofinite, mask)

    def __bool__(self) -> bool:
        return self.cofinite or bool(self.mask)

    @property
    def is_empty(self) -> bool:
        return not self

    @property
    def ids(self) -> frozenset:
        return self.space.poset.ids_of(self.mask)

    def _signed(self) -> int:
        return ~self.mask if self.cofinite else self.mask

    def _of(self, signed: int) -> "ClosureElement":
        # of signed and ~signed, the nonnegative one is the stored mask
        return ClosureElement(self.space, signed < 0, max(signed, ~signed))

    def union(self, other: "ClosureElement") -> "ClosureElement":
        return self._of(self._signed() | other._signed())

    def intersect(self, other: "ClosureElement") -> "ClosureElement":
        return self._of(self._signed() & other._signed())

    def complement(self) -> "ClosureElement":
        return ClosureElement(self.space, not self.cofinite, self.mask)

    def minus(self, other: "ClosureElement") -> "ClosureElement":
        return self._of(self._signed() & ~other._signed())

    def subset_of(self, other: "ClosureElement") -> bool:
        return self.minus(other).is_empty

    def _single(self) -> int:
        """The mask of a one-element finite set, else 0."""
        m = self.mask
        return 0 if self.cofinite or m & m - 1 else m

    def sole_id(self) -> Optional[str]:
        m = self._single()
        return self.space.poset.id_at(m.bit_length() - 1) if m else None

    def render(self) -> str:
        sp = self.space
        names = [sp.poset.id_at(i) for i in bits(self.mask & ~sp._bot)]
        if self.mask & sp._bot:
            names.append(sp.bottom)
        body = "{" + ",".join(names) + "}"
        return f"W-{body}" if self.cofinite else body

    def serialize(self) -> dict:
        return {"shape": "cofinite" if self.cofinite else "finite",
                "ids": sorted(self.ids)}


def check_closure_axioms(space: SymbolicSpace, sample_ids=None) -> list[str]:
    """Exhaustive closure-axiom check over subsets of a small id pool."""
    from itertools import combinations
    if sample_ids is None:
        sample_ids = (sorted(space.whole().ids) if space.finite else
                      space.rungs()[:5] + [p for p in [space.bottom] if p])
    pool = list(sample_ids)
    subsets = []
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            subsets.append(space.fin(combo))
            if not space.finite:
                subsets.append(space.cof(combo))
    problems = []
    cl = space.closure_of
    if not cl(space.empty()).is_empty:
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
    __slots__ = _compare = ("space", "a", "u", "v", "b", "n_ran", "N",
                            "stabilized", "a_inf", "a_inf_exact", "note")

    def __init__(self, space: SymbolicSpace, a: ClosureElement,
                 u: Optional[list] = None, v: Optional[list] = None,
                 b: Optional[list] = None, n_ran: int = 0,
                 N: Optional[int] = None, stabilized: bool = False,
                 a_inf: Optional[ClosureElement] = None,
                 a_inf_exact: bool = False, note: str = ""):
        self.space, self.a = space, a
        self.u = [] if u is None else u
        self.v = [] if v is None else v
        self.b = [] if b is None else b
        self.n_ran, self.N, self.stabilized = n_ran, N, stabilized
        self.a_inf, self.a_inf_exact, self.note = a_inf, a_inf_exact, note

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
    w = space.whole()
    t = RNTrace(space, a)
    t.u.append(a)
    t.v.append(space.empty())
    t.b.append(a)
    for n in range(1, max_n + 1):
        u_n = w.minus(space.closure_of(t.b[n - 1]))
        v_n = t.u[n - 1].union(t.v[n - 1])
        b_n = u_n.minus(t.v[n - 1])
        t.u.append(u_n)
        t.v.append(v_n)
        t.b.append(b_n)
        t.n_ran = n
        if t.N is None and b_n.is_empty:
            t.N = n - 1
        if b_n.is_empty and v_n == w:
            t.stabilized = True
            break
    _settle_a_inf(t)
    return t


def _settle_a_inf(t: RNTrace) -> None:
    sp = t.space
    rest = sp.whole()
    for x in t.b:
        rest = rest.minus(x)
    if t.stabilized:
        t.a_inf = rest
        t.a_inf_exact = True
        return
    tail = [x._single() for x in t.b[-3:]]
    marching = (sp.ladder and len(tail) == 3 and 0 not in tail
                and not (tail[0] | tail[1] | tail[2]) & sp._bot
                and tail[1:] == [tail[0] << 1, tail[0] << 2])
    if marching:
        t.a_inf = ClosureElement(sp, False, sp._bot).intersect(rest)
        t.a_inf_exact = False
        t.note = (f"singleton layers march up the ladder; tail projected "
                  f"from step {t.n_ran}")
    else:
        t.note = "cut off before the layer pattern settled"


def check_identities(trace: RNTrace) -> list[str]:
    """Recheck the defining and derived equations at every computed step."""
    sp = trace.space
    w = sp.whole()
    u, v, b = trace.u, trace.v, trace.b
    last = trace.n_ran
    # every closure below is of a layer B_0 .. B_{last - 1}: take each once
    closed = [sp.closure_of(b[n]) for n in range(last)]
    problems = []
    for n in range(1, last + 1):
        if u[n] != w.minus(closed[n - 1]):
            problems.append(f"U_{n} is not the complement of the closed "
                            f"layer below")
        if v[n] != u[n - 1].union(v[n - 1]):
            problems.append(f"V_{n} does not accumulate U_{n - 1}")
        if b[n] != u[n].minus(v[n - 1]):
            problems.append(f"B_{n} is not the new part of U_{n}")
    for n in range(0, last):
        if b[n] != v[n + 1].minus(v[n]):
            problems.append(f"B_{n} != V_{n + 1} - V_{n}")
        if closed[n] != w.minus(u[n + 1]):
            problems.append(f"closure(B_{n}) != W - U_{n + 1}")
        if v[n] != u[n + 1].intersect(v[n + 1]):
            problems.append(f"V_{n} != U_{n + 1} & V_{n + 1}")
        if n >= 1 and v[n - 1] != u[n + 1].intersect(u[n]):
            problems.append(f"V_{n - 1} != U_{n + 1} & U_{n}")
    for j in range(last + 1):
        for k in range(j + 1, last + 1):
            if b[j] and b[k] and b[j].intersect(b[k]):
                problems.append(f"B_{j} and B_{k} overlap")
            if b[j] and b[k]:
                below = b[k].subset_of(closed[j])
                if below != (k >= j + 2):
                    problems.append(f"ladder order fails at B_{k}, B_{j}")
    if trace.a_inf is not None:
        if sp.closure_of(trace.a_inf) != trace.a_inf:
            problems.append("A_inf is not closed")
        for k in range(last + 1):
            if trace.a_inf.intersect(b[k]):
                problems.append(f"A_inf meets B_{k}")
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
        if trace.b[n + 2].is_empty:
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

def e_of_p(poset: Poset, horizon: int = 12) -> dict:
    """Certify that consecutive singletons fall out of order arithmetic.

    For consecutive rungs p, q (``SymbolicSpace.rungs``), p the k-th, the
    space minus the up-set of p, minus its down-set, minus the k rungs
    before p, must be exactly {q}.
    """
    space = SymbolicSpace(poset, horizon)
    rungs, w = space._rungs, space.whole()
    failures, before = [], 0
    for k, (i, j) in enumerate(zip(rungs, rungs[1:])):
        got = (w.minus(space.up_of(i)).minus(space.down_of(i))
               .minus(ClosureElement(space, False, before)))
        if got != ClosureElement(space, False, 1 << j):
            failures.append({"k": k, "got": got.serialize()})
        before |= 1 << i
    return {"family": poset.family or poset.name, "horizon": horizon,
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
    poset = trace.space.poset
    layers = [(n, x._single().bit_length() - 1) for n, x in enumerate(trace.b)]
    layers = [(n, i) for n, i in layers if i > 0]
    order = {i: k for k, i in enumerate(dict.fromkeys(i for _, i in layers))}
    name = {i: poset.id_at(i) for i in order}
    on = sum(1 << i for i in order)
    up = [poset.up_mask(i) & on if i in order else 0
          for i in range(max(order, default=0) + 1)]
    # each cover pair (b, a) has a covering b; list a's covers in layer order
    pairs = sorted(covers_of(up, range(len(up))),
                   key=lambda ba: (order[ba[1]], order[ba[0]]))
    lines = ["digraph ladder {", "  rankdir=TB;"]
    lines.extend(f'  "{name[i]}" [label="B{n}: {name[i]}"];'
                 for n, i in layers)
    lines.extend(f'  "{name[a]}" -> "{name[b]}";' for b, a in pairs)
    lines.append("}")
    return "\n".join(lines)
