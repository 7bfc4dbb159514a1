"""Finite and lazily enumerated countable posets.

A poset here is either finite (explicit elements) or generated (an
enumeration yielding element ids one at a time).  Its order is filled from
up-set rows: ``rows(ids, k)`` masks the older elements above and below
element k (see ``Poset``); a string order enters only through ``_leq_rows``.
Every set, chain, cover and axiom question is read off those rows as masks
over enumeration indices; ids are converted only at the edges, by ``mask_of``
(an unknown id raises) and ``ids_of``.  ``covers_of`` and ``axiom_problems``
take any list of rows, so the chain completion and the closure share them.
Chain questions are asked of a top's cone through ``_first_chain``; no list
of chains is built.
Every predicate that cannot be decided from a finite prefix says so:
verdicts are "holds", "refuted" (with a checkable witness) or
"holds-on-prefix", and foundation queries may come back "inconclusive".
"""
from __future__ import annotations

import json
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

from ._record import Frozen, Record

HOLDS = "holds"
REFUTED = "refuted"
HOLDS_ON_PREFIX = "holds-on-prefix"

FOUND = "found"
INCONCLUSIVE = "inconclusive"

DEFAULT_CHAIN_BOUND = 8
Rows = Callable[[list[str], int], tuple[int, int]]


class PosetError(ValueError):
    """Bad element id, malformed source data, or an order-axiom violation."""


def runs(mask: int) -> Iterator[tuple[int, int]]:
    """Maximal runs of set bits of a nonnegative int as (start, end) pairs,
    ascending; bits start..end-1 are set.  The mask is spelled from its
    lowest set bit, so a mask far up a wide level costs only its own span.
    Every run the package reads off a mask is read here."""
    if not mask:
        return
    low = (mask & -mask).bit_length() - 1
    digits = bin(mask >> low)[:1:-1] + "0"
    start = 0
    while start >= 0:
        end = digits.find("0", start)
        yield low + start, low + end
        start = digits.find("1", end)


def from_runs(spans: Iterable[tuple[int, int]]) -> int:
    """The mask whose set bits are the disjoint, ascending runs (start,
    end), the inverse of ``runs``.  Neighbouring pieces are joined
    pairwise, each held from its own start, so a pass costs the width the
    runs cover and the mask takes log2(len(spans)) passes; an OR of one
    full-width run at a time would cost that width per run."""
    pieces = [((1 << b - a) - 1, a) for a, b in spans]
    while len(pieces) > 1:
        pairs = iter(pieces)        # zip(pairs, pairs) takes two at a time
        pieces = [(lo | hi << b - a, a) for (lo, a), (hi, b)
                  in zip(pairs, pairs)] + pieces[len(pieces) & ~1:]
    return pieces[0][0] << pieces[0][1] if pieces else 0


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    for start, end in runs(mask):
        yield from range(start, end)


def _leq_rows(leq: Callable[[str, str], bool]) -> Rows:
    """Rows of a string order, asking it both ways about each older element."""
    def rows(ids: list[str], k: int) -> tuple[int, int]:
        p, older = ids[k - 1], list(enumerate(ids[:k - 1], 1))
        return (sum(1 << j for j, q in older if leq(p, q)),
                sum(1 << j for j, q in older if leq(q, p)))
    return rows


def covers_of(up: list[int], names: list) -> list[tuple]:
    """Transitive reduction of the order with up-set rows ``up`` (bit j of
    ``up[i]`` set iff i <= j; bits from ``len(up)`` on are ignored): pairs
    (names[i], names[j]) with j covering i, ordered by i, then j."""
    strict = [row & (1 << len(up)) - 1 & ~(1 << i) for i, row in enumerate(up)]
    out = []
    for i, row in enumerate(strict):
        beyond = reduce(or_, map(strict.__getitem__, bits(row)), 0)
        out.extend((names[i], names[j]) for j in bits(row & ~beyond))
    return out


def axiom_problems(up: list[int], names: list[str]) -> list[str]:
    """Antisymmetry failures, then transitivity failures, of the relation
    whose up-set rows are ``up`` (as in ``covers_of``)."""
    up = [row & (1 << len(up)) - 1 for row in up]
    problems = [f"antisymmetry fails on {names[i]}, {names[j]}"
                for i, row in enumerate(up)
                for j in bits(row & ~(1 << i)) if up[j] >> i & 1]
    for i, row in enumerate(up):
        for j in bits(row):
            problems.extend(f"transitivity fails on {names[i]}, {names[j]}, "
                            f"{names[k]}" for k in bits(up[j] & ~row))
    return problems


class Verdict(Frozen):
    """Outcome of a bounded order-theoretic check."""

    __slots__ = _compare = ("status", "witness", "note")

    def __init__(self, status: str, witness: tuple[str, ...] = (),
                 note: str = ""):
        self._fill(status, witness, note)


class Extremal(Frozen):
    """Minimal/maximal elements confirmed at a horizon."""

    __slots__ = _compare = ("minimal", "maximal", "exact", "note")

    def __init__(self, minimal: frozenset, maximal: frozenset, exact: bool,
                 note: str = ""):
        self._fill(minimal, maximal, exact, note)


class FoundationResult(Frozen):
    """Result of a finite-foundation search.

    status is "found" (foundation holds the witness set), "refuted" (no
    finite foundation exists, certified analytically), or "inconclusive"
    (the horizon cannot settle it either way).
    """

    __slots__ = _compare = ("status", "foundation", "note")

    def __init__(self, status: str, foundation: Optional[frozenset] = None,
                 note: str = ""):
        self._fill(status, foundation, note)


class SubsetSpec(Frozen):
    """A finite subset with optional lower/upper declarations, kept for the
    README's "lower sets" analytic: ``validate`` checks them on a prefix."""

    __slots__ = _compare = ("members", "declared_lower", "declared_upper")

    def __init__(self, members: frozenset, declared_lower: bool = False,
                 declared_upper: bool = False):
        self._fill(members, declared_lower, declared_upper)

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


class Analytics(Record):
    """Facts a builtin family knows about its own infinite shape.

    All fields are optional; a plain generated poset leaves them unset and
    every predicate falls back to honest prefix-scoped answers.
    """

    __slots__ = _compare = (
        "minimal", "maximal", "acc", "acc_note", "omega_complete",
        "omega_note", "omega_witness", "foundation", "limit_display")

    def __init__(
            self,
            minimal: Optional[Callable[["Poset", int], frozenset]] = None,
            maximal: Optional[Callable[["Poset", int], frozenset]] = None,
            acc: Optional[bool] = None,
            acc_note: str = "",
            omega_complete: Optional[bool] = None,
            omega_note: str = "",
            omega_witness: Optional[
                Callable[["Poset", int], tuple[str, ...]]] = None,
            foundation: Optional[
                Callable[["Poset", frozenset, int], FoundationResult]] = None,
            limit_display: Optional[
                Callable[[tuple[str, ...]], Optional[str]]] = None):
        self.minimal, self.maximal = minimal, maximal
        self.acc, self.acc_note = acc, acc_note
        self.omega_complete, self.omega_note = omega_complete, omega_note
        self.omega_witness = omega_witness
        self.foundation = foundation
        self.limit_display = limit_display


class Poset:
    """A partial order over string element ids.

    The order lives in one up-set table over enumeration indices:
    ``up_mask(i)`` has bit j set iff element i <= element j.  It is filled
    from ``rows(ids, k)`` alone, which returns two masks ``(above, below)``
    over the older indices 1..k-1 (other bits are ignored): bit j of
    ``above`` is set iff element k <= element j, and of ``below`` iff
    element j <= element k.  Finite posets fill the table, and check its
    axioms, at construction; generated posets grow it one element at a time.
    Enumeration indices are 1-based, so ``prefix(n)`` is the set P_n of the
    first n elements.

    ``typesets`` maps a generator mask over enumeration indices to its
    interned ``TypeSet`` (filled by ``TypeSet.from_mask``).
    ``upper_members`` memoises the ids of up-closures of masks within a
    prefix; growth never changes them.
    """

    def __init__(self, name: str, *, ids: Optional[list[str]] = None,
                 rows: Optional[Rows] = None,
                 gen: Optional[Callable[[int], str]] = None,
                 family: Optional[str] = None,
                 analytics: Optional[Analytics] = None):
        if (ids is None) == (gen is None):
            raise PosetError("supply either a fixed id list or a generator, not both")
        if rows is None:
            raise PosetError("an order oracle is required")
        self.name = name
        self.family = family
        self.analytics = analytics or Analytics()
        self._rows = rows
        self._gen = gen
        self._ids: list[str] = list(ids) if ids is not None else []
        self._pos: dict[str, int] = {p: i for i, p in enumerate(self._ids, 1)}
        if len(self._pos) != len(self._ids):
            raise PosetError("duplicate element ids")
        self._up: list[int] = [0]
        self._members: dict[tuple[int, int], frozenset] = {}
        self.typesets: dict[int, object] = {}
        self._fill_table()
        self.finite = gen is None
        if self.finite:
            problems = self.check_order_axioms(len(self._ids))
            if problems:
                raise PosetError("; ".join(problems[:3]))

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_covers(cls, name: str, elements: Iterable[str],
                    covers: Iterable[tuple[str, str]]) -> "Poset":
        """Finite poset from strict generating relations (a, b) meaning a < b.

        The order is the reflexive-transitive closure; cycles are rejected.
        """
        ids = list(elements)
        pos = {p: i for i, p in enumerate(ids, 1)}
        if len(pos) != len(ids):
            raise PosetError("duplicate element ids")
        pairs = list(covers)
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise PosetError(f"cover ({a!r}, {b!r}) mentions an unknown element")
            if a == b:
                raise PosetError(f"cover ({a!r}, {b!r}) is reflexive")
        up = {p: 1 << i for p, i in pos.items()}
        down = dict(up)
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                if up[b] & ~up[a] or down[a] & ~down[b]:
                    up[a] |= up[b]
                    down[b] |= down[a]
                    changed = True
        for a in ids:
            for j in bits(up[a] & down[a] & ~(1 << pos[a])):
                raise PosetError(f"covers contain a cycle through {a!r} "
                                 f"and {ids[j - 1]!r}")
        return cls(name, ids=ids, rows=lambda _, k: (up[ids[k - 1]], down[ids[k - 1]]))

    @classmethod
    def generated(cls, name: str, element_at: Callable[[int], str],
                  leq: Callable[[str, str], bool], *,
                  family: Optional[str] = None,
                  analytics: Optional[Analytics] = None) -> "Poset":
        """Countable poset from a 1-based enumeration and an order oracle."""
        return cls(name, gen=element_at, rows=_leq_rows(leq), family=family,
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
        if not isinstance(name, str):
            raise PosetError("name must be a string")
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise PosetError("elements must be a list of strings")
        if not isinstance(covers, list):
            raise PosetError("covers must be a list of pairs")
        for entry in covers:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(isinstance(e, str) for e in entry)):
                raise PosetError(f"bad cover entry {entry!r}")
        return cls.from_covers(name, elements, map(tuple, covers))

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
        to the rows of the older ones.  Only bits above the older prefix are
        set, so the memoised up-closures stay valid."""
        ids, up = self._ids, self._up
        for k in range(len(up), len(ids) + 1):
            older = (1 << k) - 2
            above, below = self._rows(ids, k)
            up.append(1 << k | above & older)
            for j in bits(below & older):
                up[j] |= 1 << k

    def prefix(self, n: int) -> list[str]:
        """The first n enumerated elements (all of them, for finite posets)."""
        if n < 0:
            raise PosetError(f"prefix length {n} is negative")
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

    def mask_of(self, ids: Iterable[str]) -> int:
        """Mask of the enumeration indices of ids; an unknown id raises,
        naming the least one."""
        ids = set(ids)
        unknown = ids.difference(self._pos)
        if unknown:
            raise PosetError(f"unknown element id {min(unknown)!r}")
        return sum(1 << self._pos[p] for p in ids)

    def ids_of(self, mask: int) -> frozenset:
        """Ids of the enumerated indices set in mask."""
        return frozenset(self._ids[i - 1] for i in bits(mask))

    def upper_of(self, mask: int) -> int:
        """Up-closure of the indices set in mask on the enumerated prefix:
        the OR of their ``up_mask`` rows."""
        if mask:
            # enumerate the highest index before any row is read
            self.up_mask(mask.bit_length() - 1)
        hit = 0
        for i in bits(mask):
            hit |= self.up_mask(i)
        return hit

    def upper_members(self, mask: int, horizon: int) -> frozenset:
        """Ids of the up-closure of mask within ``prefix(horizon)``,
        memoised per (mask, horizon): the answer reads only bits 1..horizon
        of rows already enumerated, which growth never sets."""
        key = mask, horizon
        hit = self._members.get(key)
        if hit is None:
            pre = self.prefix(horizon)
            inside = self.upper_of(mask) & (1 << len(pre) + 1) - 2
            hit = self._members[key] = frozenset(pre[i - 1]
                                                 for i in bits(inside))
        return hit

    def lower_of(self, mask: int, horizon: int) -> int:
        """Indices of ``prefix(horizon)`` below some index set in mask."""
        up = self._up
        return sum(1 << j for j in range(1, len(self.prefix(horizon)) + 1)
                   if up[j] & mask)

    def minimal_in(self, mask: int) -> int:
        """Indices set in mask that lie above no other index set in it."""
        if mask:
            self.up_mask(mask.bit_length() - 1)
        up, above = self._up, 0
        for q in bits(mask):
            above |= up[q] & ~(1 << q)
        return mask & ~above

    def leq(self, p: str, q: str) -> bool:
        i, j = self._pos.get(p), self._pos.get(q)
        if i is None or j is None:
            missing = p if i is None else q
            raise PosetError(f"unknown element id {missing!r}")
        return bool(self._up[i] >> j & 1)

    def lt(self, p: str, q: str) -> bool:
        return p != q and self.leq(p, q)

    def leq_ix(self, i: int, j: int) -> bool:
        """Order on 1-based enumeration indices."""
        self.up_mask(j)  # enumerates j, or rejects it as out of range
        return bool(self.up_mask(i) >> j & 1)

    def down_set(self, p: str, horizon: int) -> frozenset:
        pre, i = self.prefix(horizon), self.index(p)
        return frozenset(q for j, q in enumerate(pre, 1) if self._up[j] >> i & 1)

    def down_closure(self, members: Iterable[str], horizon: int) -> frozenset:
        """Everything in the prefix below some member."""
        return self.ids_of(self.lower_of(self.mask_of(members), horizon))

    def up_closure(self, members: Iterable[str], horizon: int) -> frozenset:
        return self.upper_members(self.mask_of(members), horizon)

    def minimal_of(self, members: Iterable[str]) -> frozenset:
        return self.ids_of(self.minimal_in(self.mask_of(members)))

    def maximal_of(self, members: Iterable[str]) -> frozenset:
        mask, up = self.mask_of(members), self._up
        return frozenset(self._ids[q - 1] for q in bits(mask)
                         if not up[q] & mask & ~(1 << q))

    def is_lower(self, members: Iterable[str], horizon: int) -> bool:
        mask = self.mask_of(members)
        return not self.lower_of(mask, horizon) & ~mask

    def is_upper(self, members: Iterable[str], horizon: int) -> bool:
        ms = set(members)
        return self.up_closure(ms, horizon) <= ms

    # ------------------------------------------------------------------
    # axioms and serialization

    def check_order_axioms(self, horizon: int) -> list[str]:
        """Exhaustive antisymmetry/transitivity check on a prefix, read off
        the table's rows; the table makes every element reflexive."""
        pre = self.prefix(horizon)
        return axiom_problems(self._up[:len(pre) + 1],
                              [""] + list(map(repr, pre)))

    def cover_pairs(self, horizon: Optional[int] = None) -> list[tuple[str, str]]:
        """Transitive reduction of the order on the prefix."""
        pre = list(self._ids) if horizon is None else self.prefix(horizon)
        return covers_of(self._up[:len(pre) + 1], [""] + pre)

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
        mask = self.mask_of(q)
        if self.finite:
            # a finite order is well founded: the minimal elements of the
            # down-closure lie below q and cover all of it
            down = self.lower_of(mask, len(self._ids))
            return FoundationResult(FOUND, self.ids_of(self.minimal_in(down)))
        if self.analytics.foundation is not None:
            return self.analytics.foundation(self, q, horizon)
        candidate = self.ids_of(self.minimal_in(self.lower_of(mask, horizon)))
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

    def _longest_chain_from(self, mask: int) -> dict[int, int]:
        """Length of the longest chain inside mask that starts at each index
        set in it.  An index strictly above x has fewer members of mask above
        it than x has, so filling the table fewest first finds every index
        above x filled before x."""
        up, memo = self._up, {}
        for x in sorted(bits(mask), key=lambda x: (up[x] & mask).bit_count()):
            memo[x] = 1 + max(map(memo.__getitem__,
                                  bits(up[x] & mask & ~(1 << x))), default=0)
        return memo

    def _find_chain(self, mask: int, length: int,
                    memo: dict[int, int]) -> Optional[tuple[int, ...]]:
        """First strictly increasing chain of the given length inside mask in
        enumeration order, read off mask's ``_longest_chain_from`` table.  A
        chain of k elements starts at y iff memo[y] >= k, so the first such
        y extends the path and no step ever backtracks."""
        up = self._up
        path: list[int] = []
        ups = mask
        while len(path) < length:
            need = length - len(path)
            y = next((y for y in bits(ups) if memo[y] >= need), None)
            if y is None:
                return None
            path.append(y)
            ups = mask & up[y] & ~(1 << y)
        return tuple(path)

    def _first_chain(self, mask: int,
                     length: int) -> Optional[tuple[int, ...]]:
        """First maximal chain inside mask with at least ``length`` members
        in depth-first index order (each step to a cover of the top, lowest
        index first), or None.  The longest one through a cover y has
        ``len(chain) + memo[y]`` members (mask's ``_longest_chain_from``
        table), so the walk takes the first y long enough; no backtracking."""
        up, memo = self._up, self._longest_chain_from(mask)
        chain, ups = (), mask
        while ups:
            y = next((y for y in bits(self.minimal_in(ups))
                      if len(chain) + memo[y] >= length), None)
            if y is None:
                return None
            chain += (y,)
            ups &= up[y] & ~(1 << y)
        return chain or None

    def check_acc(self, horizon: int, bound: int = DEFAULT_CHAIN_BOUND) -> Verdict:
        """Ascending chain condition, decided at the horizon.

        Finite posets hold.  A chain longer than the bound refutes unless the
        family analytically guarantees every ascending chain terminates.
        """
        if self.finite:
            return Verdict(HOLDS, note="finite poset")
        pre = self.prefix(horizon)
        inside = (1 << len(pre) + 1) - 2
        memo = self._longest_chain_from(inside)
        chain = self._find_chain(inside, bound + 1, memo)
        a = self.analytics
        if a.acc is True:
            note = a.acc_note or "every ascending chain in the prefix terminates"
            if chain:
                note += f"; longest prefix chain has {max(memo.values())} elements"
            return Verdict(HOLDS_ON_PREFIX, note=note)
        if chain:
            return Verdict(REFUTED, witness=tuple(pre[i - 1] for i in chain),
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

    def is_chain_unique_over(self, members, horizon: int,
                             min_chain: int = 3) -> Verdict:
        """Bounded check that sequence suprema determine their lower cones.

        Looks for a maximal chain C inside the given subset, an element s that
        is the unique least strict upper bound of C in the prefix, and an r in
        the subset with r < s but r below no member of C.  Such a triple
        refutes; finite posets hold outright.
        """
        qmask = self.mask_of(members)
        if self.finite:
            return Verdict(HOLDS, note="ascending sequences stabilize at their suprema")
        pre = self.prefix(horizon)
        inside = (1 << len(pre) + 1) - 2
        up = self._up
        for s in range(1, len(pre) + 1):
            below = qmask & self.lower_of(1 << s, horizon) & ~(1 << s)
            # a chain's strict upper bounds are its top t's and its members
            # lie in t's cone: the chains that refute end at a t with least
            # strict upper bound s whose cone misses a member of below
            cones = {t: below & self.lower_of(1 << t, horizon)
                     for t in bits(below)
                     if not up[t] & inside & ~up[s] & ~(1 << t)}
            found = [c for cone in cones.values() if cone != below
                     if (c := self._first_chain(cone, min_chain))]
            if found:
                chain = min(found)
                r = next(bits(below & ~cones[chain[-1]]))
                return Verdict(
                    REFUTED, witness=tuple(pre[i - 1] for i in chain + (s, r)),
                    note=f"sup candidate {pre[s - 1]!r} has {pre[r - 1]!r} "
                         f"below it but below no chain member")
        return Verdict(HOLDS_ON_PREFIX,
                       note=f"no violating chain of length >= {min_chain} at the horizon")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        kind = "finite" if self.finite else "generated"
        return f"Poset({self.name!r}, {kind}, seen={len(self._ids)})"
