"""Finite and lazily enumerated countable posets.

A poset here is either finite (explicit elements plus an order) or generated
(an enumeration function yielding element ids one at a time, plus an order
oracle).  Every predicate that cannot be decided from a finite enumeration
prefix says so: verdicts are "holds", "refuted" (with a checkable witness) or
"holds-on-prefix", and foundation queries may come back "inconclusive".
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

HOLDS = "holds"
REFUTED = "refuted"
HOLDS_ON_PREFIX = "holds-on-prefix"

FOUND = "found"
INCONCLUSIVE = "inconclusive"

DEFAULT_CHAIN_BOUND = 8


class PosetError(ValueError):
    """Bad element id, malformed source data, or an order-axiom violation."""


def runs(mask: int) -> Iterator[tuple[int, int]]:
    """Maximal runs of set bits of a nonnegative int as (start, end) pairs,
    ascending; bits start..end-1 are set."""
    digits = bin(mask)[:1:-1] + "0"
    start = digits.find("1")
    while start >= 0:
        end = digits.find("0", start)
        yield start, end
        start = digits.find("1", end)


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    for start, end in runs(mask):
        yield from range(start, end)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded order-theoretic check."""

    status: str
    witness: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class Extremal:
    """Minimal/maximal elements confirmed at a horizon."""

    minimal: frozenset
    maximal: frozenset
    exact: bool
    note: str = ""


@dataclass(frozen=True)
class FoundationResult:
    """Result of a finite-foundation search.

    status is "found" (foundation holds the witness set), "refuted" (no
    finite foundation exists, certified analytically), or "inconclusive"
    (the horizon cannot settle it either way).
    """

    status: str
    foundation: Optional[frozenset] = None
    note: str = ""


@dataclass(frozen=True)
class SubsetSpec:
    """A finite subset with optional lower/upper declarations."""

    members: frozenset
    declared_lower: bool = False
    declared_upper: bool = False

    def validate(self, poset: "Poset", horizon: int) -> list[str]:
        """Check the declared flags against the horizon prefix."""
        problems = []
        for p in self.members:
            if p not in poset.prefix(horizon) and not poset.finite:
                problems.append(f"member {p!r} outside enumeration prefix")
        if self.declared_lower and not poset.is_lower(self.members, horizon):
            problems.append("declared lower but prefix shows a missing lower element")
        if self.declared_upper and not poset.is_upper(self.members, horizon):
            problems.append("declared upper but prefix shows a missing upper element")
        return problems


@dataclass
class Analytics:
    """Facts a builtin family knows about its own infinite shape.

    All fields are optional; a plain generated poset leaves them unset and
    every predicate falls back to honest prefix-scoped answers.
    """

    minimal: Optional[Callable[["Poset", int], frozenset]] = None
    maximal: Optional[Callable[["Poset", int], frozenset]] = None
    acc: Optional[bool] = None
    acc_note: str = ""
    omega_complete: Optional[bool] = None
    omega_note: str = ""
    omega_witness: Optional[Callable[["Poset", int], tuple[str, ...]]] = None
    foundation: Optional[Callable[["Poset", frozenset, int], FoundationResult]] = None
    limit_display: Optional[Callable[[tuple[str, ...]], Optional[str]]] = None


class Poset:
    """A partial order over string element ids.

    The order lives in one up-set table over enumeration indices:
    ``up_mask(i)`` has bit j set iff element i <= element j.  Finite posets
    fill it at construction; generated posets grow an enumeration prefix on
    demand and add one row (and one bit to each older row) per new element.
    Enumeration indices are 1-based, so ``prefix(n)`` is the set P_n of the
    first n elements.
    """

    def __init__(self, name: str, *, ids: Optional[list[str]] = None,
                 leq_fn: Optional[Callable[[str, str], bool]] = None,
                 gen: Optional[Callable[[int], str]] = None,
                 family: Optional[str] = None,
                 analytics: Optional[Analytics] = None):
        if (ids is None) == (gen is None):
            raise PosetError("supply either a fixed id list or a generator, not both")
        if leq_fn is None:
            raise PosetError("an order oracle is required")
        self.name = name
        self.family = family
        self.analytics = analytics or Analytics()
        self._leq_fn = leq_fn
        self._gen = gen
        self._ids: list[str] = list(ids) if ids is not None else []
        self._pos: dict[str, int] = {p: i for i, p in enumerate(self._ids, 1)}
        if len(self._pos) != len(self._ids):
            raise PosetError("duplicate element ids")
        self._up: list[int] = [0]
        self._fill_table()
        self.finite = gen is None
        if self.finite:
            self._check_axioms(self._ids)

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_covers(cls, name: str, elements: Iterable[str],
                    covers: Iterable[tuple[str, str]]) -> "Poset":
        """Finite poset from strict generating relations (a, b) meaning a < b.

        The order is the reflexive-transitive closure; cycles are rejected.
        """
        ids = list(elements)
        pos = {p: i for i, p in enumerate(ids)}
        if len(pos) != len(ids):
            raise PosetError("duplicate element ids")
        pairs = list(covers)
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise PosetError(f"cover ({a!r}, {b!r}) mentions an unknown element")
            if a == b:
                raise PosetError(f"cover ({a!r}, {b!r}) is reflexive")
        up = {p: 1 << i for p, i in pos.items()}
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                if up[b] & ~up[a]:
                    up[a] |= up[b]
                    changed = True
        for a in ids:
            for j in bits(up[a] & ~(1 << pos[a])):
                if up[ids[j]] >> pos[a] & 1:
                    raise PosetError(f"covers contain a cycle through {a!r} "
                                     f"and {ids[j]!r}")
        return cls(name, ids=ids, leq_fn=lambda x, y: up[x] >> pos[y] & 1)

    @classmethod
    def finite_from_order(cls, name: str, elements: Iterable[str],
                          leq: Callable[[str, str], bool]) -> "Poset":
        """Finite poset from an explicit order function."""
        return cls(name, ids=list(elements), leq_fn=leq)

    @classmethod
    def generated(cls, name: str, element_at: Callable[[int], str],
                  leq: Callable[[str, str], bool], *,
                  family: Optional[str] = None,
                  analytics: Optional[Analytics] = None) -> "Poset":
        """Countable poset from a 1-based enumeration and an order oracle."""
        return cls(name, gen=element_at, leq_fn=leq, family=family,
                   analytics=analytics)

    @classmethod
    def from_json(cls, source) -> "Poset":
        """Load a finite poset from a JSON object or string.

        Expected shape: {"name": str, "elements": [str], "covers": [[str, str]]}.
        """
        if isinstance(source, str):
            try:
                source = json.loads(source)
            except json.JSONDecodeError as exc:
                raise PosetError(f"bad JSON: {exc}") from exc
        if not isinstance(source, dict):
            raise PosetError("poset JSON must be an object")
        try:
            name = source["name"]
            elements = source["elements"]
            covers = source["covers"]
        except KeyError as exc:
            raise PosetError(f"poset JSON missing key {exc}") from exc
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise PosetError("elements must be a list of strings")
        pairs = []
        for entry in covers:
            if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
                raise PosetError(f"bad cover entry {entry!r}")
            pairs.append((entry[0], entry[1]))
        return cls.from_covers(name, elements, pairs)

    # ------------------------------------------------------------------
    # enumeration

    def ensure(self, n: int) -> None:
        """Extend the enumeration prefix to at least n elements."""
        if self.finite:
            return
        while len(self._ids) < n:
            nxt = self._gen(len(self._ids) + 1)
            if nxt in self._pos:
                raise PosetError(f"generator repeated id {nxt!r}")
            self._ids.append(nxt)
            self._pos[nxt] = len(self._ids)
            self._fill_table()

    def _fill_table(self) -> None:
        """Add the up-set rows of newly enumerated elements, and their bits
        to the rows of the older ones."""
        ids, up, fn = self._ids, self._up, self._leq_fn
        for k in range(len(up), len(ids) + 1):
            p = ids[k - 1]
            row = 1 << k
            for j in range(1, k):
                q = ids[j - 1]
                if fn(p, q):
                    row |= 1 << j
                if fn(q, p):
                    up[j] |= 1 << k
            up.append(row)

    def prefix(self, n: int) -> list[str]:
        """The first n enumerated elements (all of them, for finite posets)."""
        if self.finite:
            return list(self._ids[:n])
        self.ensure(n)
        return list(self._ids[:n])

    @property
    def size(self) -> Optional[int]:
        return len(self._ids) if self.finite else None

    def __contains__(self, p: str) -> bool:
        return p in self._pos

    def index(self, p: str) -> int:
        """1-based enumeration index of an already-enumerated element."""
        try:
            return self._pos[p]
        except KeyError:
            raise PosetError(f"unknown element id {p!r}") from None

    def id_at(self, i: int) -> str:
        """Element with 1-based enumeration index i."""
        self.ensure(i)
        if i < 1 or i > len(self._ids):
            raise PosetError(f"enumeration index {i} out of range")
        return self._ids[i - 1]

    # ------------------------------------------------------------------
    # order

    def up_mask(self, i: int) -> int:
        """Up-set of index i on the enumerated prefix: bit j is set iff
        element i <= element j."""
        self.ensure(i)
        if i < 1 or i > len(self._ids):
            raise PosetError(f"enumeration index {i} out of range")
        return self._up[i]

    def leq(self, p: str, q: str) -> bool:
        i, j = self._pos.get(p), self._pos.get(q)
        if i is None or j is None:
            missing = p if i is None else q
            raise PosetError(f"unknown element id {missing!r}")
        return bool(self._up[i] >> j & 1)

    def lt(self, p: str, q: str) -> bool:
        return p != q and self.leq(p, q)

    def comparable(self, p: str, q: str) -> bool:
        return self.leq(p, q) or self.leq(q, p)

    def leq_ix(self, i: int, j: int) -> bool:
        """Order on 1-based enumeration indices."""
        self.up_mask(j)  # enumerates j, or rejects it as out of range
        return bool(self.up_mask(i) >> j & 1)

    def up_set(self, p: str, horizon: int) -> frozenset:
        return frozenset(q for q in self.prefix(horizon) if self.leq(p, q))

    def down_set(self, p: str, horizon: int) -> frozenset:
        return frozenset(q for q in self.prefix(horizon) if self.leq(q, p))

    def down_closure(self, members: Iterable[str], horizon: int) -> frozenset:
        """Everything in the prefix below some member."""
        ms = list(members)
        for p in ms:
            self.index(p)
        return frozenset(q for q in self.prefix(horizon)
                         if any(self.leq(q, p) for p in ms))

    def up_closure(self, members: Iterable[str], horizon: int) -> frozenset:
        ms = list(members)
        for p in ms:
            self.index(p)
        return frozenset(q for q in self.prefix(horizon)
                         if any(self.leq(p, q) for p in ms))

    def minimal_of(self, members: Iterable[str]) -> frozenset:
        ms = list(members)
        return frozenset(p for p in ms
                         if not any(self.lt(q, p) for q in ms))

    def maximal_of(self, members: Iterable[str]) -> frozenset:
        ms = list(members)
        return frozenset(p for p in ms
                         if not any(self.lt(p, q) for q in ms))

    def is_antichain(self, members: Iterable[str]) -> bool:
        ms = list(members)
        return all(not self.comparable(p, q)
                   for i, p in enumerate(ms) for q in ms[i + 1:])

    def is_lower(self, members: Iterable[str], horizon: int) -> bool:
        ms = set(members)
        return self.down_closure(ms, horizon) <= ms

    def is_upper(self, members: Iterable[str], horizon: int) -> bool:
        ms = set(members)
        return self.up_closure(ms, horizon) <= ms

    # ------------------------------------------------------------------
    # axioms and serialization

    def check_order_axioms(self, horizon: int) -> list[str]:
        """Exhaustive antisymmetry/transitivity check on a prefix; the table
        makes every element reflexive."""
        pre = self.prefix(horizon)
        problems = []
        for p in pre:
            for q in pre:
                if p != q and self.leq(p, q) and self.leq(q, p):
                    problems.append(f"antisymmetry fails on {p!r}, {q!r}")
        for p in pre:
            for q in pre:
                if not self.leq(p, q):
                    continue
                for r in pre:
                    if self.leq(q, r) and not self.leq(p, r):
                        problems.append(f"transitivity fails on {p!r}, {q!r}, {r!r}")
        return problems

    def cover_pairs(self, horizon: Optional[int] = None) -> list[tuple[str, str]]:
        """Transitive reduction of the order on the prefix."""
        pre = self.prefix(horizon) if horizon else list(self._ids)
        out = []
        for a in pre:
            for b in pre:
                if not self.lt(a, b):
                    continue
                if any(self.lt(a, c) and self.lt(c, b) for c in pre):
                    continue
                out.append((a, b))
        return out

    def to_json(self, horizon: Optional[int] = None) -> dict:
        if self.finite:
            pre = list(self._ids)
        else:
            if horizon is None:
                raise PosetError("a horizon is required to serialize a generated poset")
            pre = self.prefix(horizon)
        obj = {
            "name": self.name,
            "elements": pre,
            "covers": [list(c) for c in self.cover_pairs(len(pre))],
        }
        if self.family:
            obj["family"] = self.family
        return obj

    # ------------------------------------------------------------------
    # extremal elements and foundations

    def extremal_elements(self, horizon: int) -> Extremal:
        """Minimal/maximal elements; exact only when the whole poset is seen.

        For generated posets only family-confirmed extremals are reported;
        without analytics the prefix-relative answer is returned with a note.
        """
        pre = self.prefix(horizon)
        if self.finite:
            exact = horizon >= len(self._ids)
            return Extremal(self.minimal_of(pre), self.maximal_of(pre), exact)
        a = self.analytics
        if a.minimal is not None or a.maximal is not None:
            mins = a.minimal(self, horizon) if a.minimal else frozenset()
            maxs = a.maximal(self, horizon) if a.maximal else frozenset()
            return Extremal(frozenset(mins), frozenset(maxs), False,
                            note="family-confirmed")
        return Extremal(self.minimal_of(pre), self.maximal_of(pre), False,
                        note="relative to the enumeration prefix only")

    def confirmed_minimal(self, horizon: int) -> tuple[frozenset, bool]:
        """Minimal elements known to be minimal in the full poset."""
        if self.finite:
            return self.minimal_of(self.prefix(horizon)), horizon >= len(self._ids)
        if self.analytics.minimal is not None:
            return frozenset(self.analytics.minimal(self, horizon)), True
        return frozenset(), False

    def finite_foundation(self, members, horizon: int) -> FoundationResult:
        """Search for a finite set F below Q with both foundation conditions.

        Condition (i): everything below a member of Q lies above some member
        of F.  Condition (ii): every member of F lies below some member of Q.
        Finite posets are decided exactly; generated families answer through
        their analytics; anything else is inconclusive at the horizon.
        """
        if isinstance(members, SubsetSpec):
            members = members.members
        q = frozenset(members)
        if not q:
            raise PosetError("foundation query needs a nonempty subset")
        for p in q:
            self.index(p)
        if self.finite:
            # a finite order is well founded: the minimal elements of the
            # down-closure lie below q and cover all of it
            down = self.down_closure(q, len(self._ids))
            return FoundationResult(FOUND, self.minimal_of(down))
        if self.analytics.foundation is not None:
            return self.analytics.foundation(self, q, horizon)
        down = self.down_closure(q, horizon)
        candidate = self.minimal_of(down)
        return FoundationResult(
            INCONCLUSIVE, candidate,
            note="prefix candidate only; minimality beyond the horizon unknown")

    def p_delta(self, horizon: int) -> tuple[frozenset, bool]:
        """Elements whose singleton has a confirmed finite foundation."""
        pre = self.prefix(horizon)
        confirmed = []
        for p in pre:
            res = self.finite_foundation({p}, horizon)
            if res.status == FOUND:
                confirmed.append(p)
        return frozenset(confirmed), self.finite

    # ------------------------------------------------------------------
    # chain conditions

    def _longest_chain_from(self, pre: list[str]) -> dict[str, int]:
        memo: dict[str, int] = {}

        def lc(x: str) -> int:
            if x not in memo:
                memo[x] = 1
                memo[x] = 1 + max((lc(y) for y in pre if self.lt(x, y)),
                                  default=0)
            return memo[x]

        for p in pre:
            lc(p)
        return memo

    def _find_chain(self, pre: list[str], length: int) -> Optional[tuple[str, ...]]:
        """First strictly increasing chain of the given length, DFS in
        enumeration order."""
        memo = self._longest_chain_from(pre)

        def dfs(path: list[str]) -> Optional[tuple[str, ...]]:
            if len(path) == length:
                return tuple(path)
            last = path[-1]
            for y in pre:
                if self.lt(last, y) and memo[y] >= length - len(path):
                    path.append(y)
                    got = dfs(path)
                    if got:
                        return got
                    path.pop()
            return None

        for x in pre:
            if memo[x] >= length:
                got = dfs([x])
                if got:
                    return got
        return None

    def check_acc(self, horizon: int, bound: int = DEFAULT_CHAIN_BOUND) -> Verdict:
        """Ascending chain condition, decided at the horizon.

        Finite posets hold.  A chain longer than the bound refutes unless the
        family analytically guarantees every ascending chain terminates.
        """
        if self.finite:
            return Verdict(HOLDS, note="finite poset")
        pre = self.prefix(horizon)
        chain = self._find_chain(pre, bound + 1)
        a = self.analytics
        if a.acc is True:
            note = a.acc_note or "every ascending chain in the prefix terminates"
            if chain:
                note += f"; longest prefix chain has {max(self._longest_chain_from(pre).values())} elements"
            return Verdict(HOLDS_ON_PREFIX, note=note)
        if chain:
            return Verdict(REFUTED, witness=chain,
                           note=f"strictly increasing chain longer than bound {bound}")
        return Verdict(HOLDS_ON_PREFIX,
                       note=f"no chain longer than {bound} within the prefix")

    def check_omega_complete(self, horizon: int) -> Verdict:
        """Do all ascending sequences have suprema?

        Finite posets hold (ascending sequences stabilize).  Builtin families
        answer analytically.  A bare generated poset cannot be refuted from a
        prefix, since every visible chain contains its own maximum.
        """
        if self.finite:
            return Verdict(HOLDS, note="ascending sequences stabilize")
        a = self.analytics
        if a.omega_complete is True:
            return Verdict(HOLDS, note=a.omega_note or "family-analytic")
        if a.omega_complete is False:
            witness = a.omega_witness(self, horizon) if a.omega_witness else ()
            return Verdict(REFUTED, witness=witness,
                           note=a.omega_note or "family-analytic")
        return Verdict(HOLDS_ON_PREFIX,
                       note="not refutable from a prefix: visible chains contain their maxima")

    def _maximal_chains(self, members: list[str]) -> list[tuple[str, ...]]:
        """All maximal chains inside a finite subset."""
        out = []

        def extend(chain: list[str], rest: list[str]) -> None:
            ups = [y for y in rest if self.lt(chain[-1], y)]
            if not ups:
                out.append(tuple(chain))
                return
            for y in ups:
                extend(chain + [y], ups)

        starts = [x for x in members
                  if not any(self.lt(y, x) for y in members)]
        for x in starts:
            extend([x], members)
        return out

    def is_chain_unique_over(self, members, horizon: int,
                             min_chain: int = 3) -> Verdict:
        """Bounded check that sequence suprema determine their lower cones.

        Looks for a maximal chain C inside the given subset, an element s that
        is the unique least strict upper bound of C in the prefix, and an r in
        the subset with r < s but r below no member of C.  Such a triple
        refutes; finite posets hold outright.
        """
        if isinstance(members, SubsetSpec):
            members = members.members
        qset = frozenset(members)
        for p in qset:
            self.index(p)
        if self.finite:
            return Verdict(HOLDS, note="ascending sequences stabilize at their suprema")
        pre = self.prefix(horizon)
        qpre = [x for x in pre if x in qset]
        for s in pre:
            below = [x for x in qpre if self.lt(x, s)]
            if len(below) < min_chain:
                continue
            for chain in self._maximal_chains(below):
                if len(chain) < min_chain:
                    continue
                ubs = [u for u in pre
                       if all(self.lt(c, u) for c in chain)]
                if s not in ubs or not all(self.leq(s, u) for u in ubs):
                    continue
                for r in below:
                    if not any(self.leq(r, c) for c in chain):
                        return Verdict(
                            REFUTED, witness=chain + (s, r),
                            note=f"sup candidate {s!r} has {r!r} below it "
                                 f"but below no chain member")
        return Verdict(HOLDS_ON_PREFIX,
                       note=f"no violating chain of length >= {min_chain} at the horizon")

    # ------------------------------------------------------------------

    def _check_axioms(self, ids: list[str]) -> None:
        probs = self.check_order_axioms(len(ids))
        if probs:
            raise PosetError("; ".join(probs[:3]))

    def __repr__(self) -> str:
        kind = "finite" if self.finite else "generated"
        return f"Poset({self.name!r}, {kind}, seen={len(self._ids)})"
