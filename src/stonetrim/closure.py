"""Closure algebras generated by one open set, computed symbolically.

Elements are finite or cofinite id sets over any finite poset or a ladder
family (rn-infinity, rn-infinity-bot); every order fact comes from the
poset.  Closure is down-closure; both shapes close exactly, so the
recursion peeling the space into atoms runs without any approximation.

A ladder space sees an enumeration prefix and assumes two things of the
rest: an element's order is settled one index past it (everything later
lies below it), and the bottom, a unique confirmed-minimal element if
there is one, lies below everything.  Ids must be enumerated: a ladder
space enumerates horizon + 1 elements, each down-set one element further.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .poset import Poset

LADDER_FAMILIES = ("rn-infinity", "rn-infinity-bot")


class ClosureError(ValueError):
    """Bad symbolic-space input."""


class SymbolicSpace:
    """Index poset plus exact finite/cofinite set arithmetic over it."""

    def __init__(self, poset: Poset, horizon: int = 12):
        self.finite, self.ladder = poset.finite, not poset.finite
        if self.ladder and poset.family not in LADDER_FAMILIES:
            raise ClosureError(
                "symbolic spaces need a finite poset or a ladder family")
        self.poset, self.horizon = poset, horizon
        self._shown = poset.prefix(horizon + 1 if self.ladder else poset.size)
        self.all_ids = None if self.ladder else frozenset(self._shown)
        mins, confirmed = poset.confirmed_minimal(len(self._shown))
        self.bottom = next(iter(mins)) if confirmed and len(mins) == 1 else None

    def fin(self, ids) -> "ClosureElement":
        return ClosureElement(self, False, self._known(ids))

    def cof(self, ids) -> "ClosureElement":
        return ClosureElement(self, True, self._known(ids))

    def _known(self, ids) -> frozenset:
        ids = frozenset(ids)
        unknown = [p for p in ids if p not in self.poset]
        if unknown:
            raise ClosureError(f"unknown element id {min(unknown)!r}")
        return ids

    def empty(self) -> "ClosureElement":
        return self.fin(())

    def whole(self) -> "ClosureElement":
        return self.fin(self.all_ids) if self.finite else self.cof(())

    def rungs(self) -> list[str]:
        """The non-bottom elements in enumeration order: all of a finite
        space's, the first horizon of a ladder's."""
        rungs = [p for p in self._shown if p != self.bottom]
        return rungs[:self.horizon] if self.ladder else rungs

    def _reach(self, p: str) -> int:
        # a prefix that settles p's order
        return self.poset.index(p) + 1 if self.ladder else self.poset.size

    def down_of(self, p: str) -> "ClosureElement":
        reach = self._reach(p)
        below = self.poset.down_set(p, reach)
        if p == self.bottom:
            return self.fin(below)
        return self.cof(frozenset(self.poset.prefix(reach)) - below)

    def up_of(self, p: str) -> "ClosureElement":
        if p == self.bottom:
            return self.whole()
        return self.fin(self.poset.up_set(p, self._reach(p)))

    def closure_of(self, x: "ClosureElement") -> "ClosureElement":
        """Down-closure; exact on both set shapes."""
        if x.space is not self:
            raise ClosureError("element from another space")
        if not x.cofinite:
            out = self.empty()
            for p in x.ids:
                out = out.union(self.down_of(p))
            return out
        grounded = set()
        for p in x.ids:
            up = self.up_of(p)
            if not up.cofinite and up.ids <= x.ids:
                grounded.add(p)
        return self.cof(grounded)

    def is_open(self, x: "ClosureElement") -> bool:
        comp = x.complement()
        return self.closure_of(comp) == comp


@dataclass(frozen=True)
class ClosureElement:
    """Finite set of ids, or the complement of one.  Set operations build
    their results directly: ids from the space's own elements are known."""

    space: SymbolicSpace = field(compare=False)
    cofinite: bool
    ids: frozenset

    def __post_init__(self):
        if self.cofinite and self.space.finite:
            object.__setattr__(self, "cofinite", False)
            object.__setattr__(self, "ids", self.space.all_ids - self.ids)

    def __bool__(self) -> bool:
        return self.cofinite or bool(self.ids)

    @property
    def is_empty(self) -> bool:
        return not self

    def contains_id(self, p: str) -> bool:
        return (p not in self.ids) if self.cofinite else (p in self.ids)

    def union(self, other: "ClosureElement") -> "ClosureElement":
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return ClosureElement(self.space, False, a.ids | b.ids)
        if a.cofinite and b.cofinite:
            return ClosureElement(self.space, True, a.ids & b.ids)
        if a.cofinite:
            a, b = b, a
        return ClosureElement(self.space, True, b.ids - a.ids)

    def intersect(self, other: "ClosureElement") -> "ClosureElement":
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return ClosureElement(self.space, False, a.ids & b.ids)
        if a.cofinite and b.cofinite:
            return ClosureElement(self.space, True, a.ids | b.ids)
        if a.cofinite:
            a, b = b, a
        return ClosureElement(self.space, False, a.ids - b.ids)

    def complement(self) -> "ClosureElement":
        return ClosureElement(self.space, not self.cofinite, self.ids)

    def minus(self, other: "ClosureElement") -> "ClosureElement":
        return self.intersect(other.complement())

    def subset_of(self, other: "ClosureElement") -> bool:
        return self.minus(other).is_empty

    def sole_id(self) -> Optional[str]:
        if not self.cofinite and len(self.ids) == 1:
            return next(iter(self.ids))
        return None

    def render(self) -> str:
        bottom = {self.space.bottom}
        names = (sorted(self.ids - bottom, key=self.space.poset.index)
                 + sorted(self.ids & bottom))
        body = "{" + ",".join(names) + "}"
        return f"W-{body}" if self.cofinite else body

    def serialize(self) -> dict:
        return {"shape": "cofinite" if self.cofinite else "finite",
                "ids": sorted(self.ids)}


def check_closure_axioms(space: SymbolicSpace, sample_ids=None) -> list[str]:
    """Exhaustive closure-axiom check over subsets of a small id pool."""
    from itertools import combinations
    if sample_ids is None:
        if space.finite:
            sample_ids = sorted(space.all_ids)
        else:
            sample_ids = space.rungs()[:5]
            if space.bottom is not None:
                sample_ids.append(space.bottom)
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

@dataclass
class RNTrace:
    space: SymbolicSpace
    a: ClosureElement
    u: list = field(default_factory=list)
    v: list = field(default_factory=list)
    b: list = field(default_factory=list)
    n_ran: int = 0
    N: Optional[int] = None
    stabilized: bool = False
    a_inf: Optional[ClosureElement] = None
    a_inf_exact: bool = False
    note: str = ""

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
    v_prev = space.empty()           # V_{-1}
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
    union_b = t.space.empty()
    for x in t.b:
        union_b = union_b.union(x)
    rest = t.space.whole().minus(union_b)
    if t.stabilized:
        t.a_inf = rest
        t.a_inf_exact = True
        return
    sp = t.space
    tail = [x.sole_id() for x in t.b[-3:]]
    marching = (sp.ladder and len(tail) == 3 and None not in tail
                and sp.bottom not in tail
                and [sp.poset.index(p) - sp.poset.index(tail[0])
                     for p in tail] == [0, 1, 2])
    if marching:
        t.a_inf = sp.fin(p for p in [sp.bottom]
                         if p is not None and rest.contains_id(p))
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


@dataclass(frozen=True)
class Classification:
    case: Optional[int]
    name: str
    witness: dict
    note: str = ""

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
    rungs = space.rungs()
    failures = []
    for k, (p, q) in enumerate(zip(rungs, rungs[1:])):
        got = (space.whole()
               .minus(space.up_of(p))
               .minus(space.down_of(p))
               .minus(space.fin(rungs[:k])))
        if got != space.fin({q}):
            failures.append({"k": k, "got": got.serialize()})
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
    layers = [(n, x.sole_id()) for n, x in enumerate(trace.b)]
    layers = [(n, p) for n, p in layers if p is not None]
    bit = {p: 1 << poset.index(p) for _, p in layers}
    up = {p: poset.up_mask(poset.index(p)) for p in bit}
    lines = ["digraph ladder {", "  rankdir=TB;"]
    for n, p in layers:
        lines.append(f'  "{p}" [label="B{n}: {p}"];')
    for a in bit:
        below = sum(bit[c] for c in bit if c != a and up[c] & bit[a])
        for b in bit:
            # b is covered by a: nothing strictly between them
            if below & bit[b] and up[b] & below == bit[b]:
                lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)
