"""Finite and lazily enumerated countable posets.

A poset here is either finite (explicit elements) or generated (an
enumeration yielding element ids one at a time).  Its order is filled into
up-set and down-set rows: ``rows(ids, k)`` masks the older elements above
and below element k (see ``Poset``); a string order enters only through
``_leq_rows``.
Every set, chain, cover and axiom question is read off those rows as masks
over enumeration indices, and the order analytics (extremal elements,
foundations, P_Delta) take and answer such masks; ids are converted only
at the edges, by ``mask_of`` (an unknown id raises) and ``ids_of``.
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


def runs(mask: int) -> list[tuple[int, int]]:
    """Maximal runs of set bits of a nonnegative int as (start, end) pairs,
    ascending; bits start..end-1 are set.  A mask of one bit is answered
    from its length; a wider one is spelled from its lowest set bit, so a
    mask far up a wide level costs only its own span.  Every run the
    package reads off a mask is read here."""
    if not mask & mask - 1:                     # no bit or one bit
        return [(mask.bit_length() - 1, mask.bit_length())] if mask else []
    low = (mask & -mask).bit_length() - 1
    digits = bin(mask >> low)[:1:-1] + "0"
    out = []
    start = 0
    while start >= 0:
        end = digits.find("0", start)
        out.append((low + start, low + end))
        start = digits.find("1", end)
    return out


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


class Verdict(Frozen):
    """Outcome of a bounded order-theoretic check."""

    __slots__ = _compare = ("status", "witness", "note")

    def __init__(self, status: str, witness: tuple[str, ...] = (),
                 note: str = ""):
        self._fill(status, witness, note)


class Extremal(Frozen):
    """Minimal/maximal elements confirmed at a horizon, as index masks."""

    __slots__ = _compare = ("minimal", "maximal", "exact", "note")

    def __init__(self, minimal: int, maximal: int, exact: bool,
                 note: str = ""):
        self._fill(minimal, maximal, exact, note)


class FoundationResult(Frozen):
    """Result of a finite-foundation search.

    status is "found" (foundation masks the witness set), "refuted" (no
    finite foundation exists, certified analytically), or "inconclusive"
    (the horizon cannot settle it either way).
    """

    __slots__ = _compare = ("status", "foundation", "note")

    def __init__(self, status: str, foundation: int = 0,
                 note: str = ""):
        self._fill(status, foundation, note)


class Analytics(Record):
    """Facts a builtin family knows about its own infinite shape.

    All fields are optional; a plain generated poset leaves them unset and
    every predicate falls back to honest prefix-scoped answers.  Elements
    come and go as masks over enumeration indices.  ``foundation`` states a
    fact about the whole poset, so its status for a set is the same at
    every horizon: ``Poset.p_delta`` keeps each singleton's first answer.
    """

    __slots__ = _compare = (
        "minimal", "maximal", "acc", "acc_note", "omega_complete",
        "omega_note", "omega_witness", "foundation", "limit_display")

    def __init__(
            self,
            minimal: Optional[Callable[["Poset", int], int]] = None,
            maximal: Optional[Callable[["Poset", int], int]] = None,
            acc: Optional[bool] = None,
            acc_note: str = "",
            omega_complete: Optional[bool] = None,
            omega_note: str = "",
            omega_witness: Optional[
                Callable[["Poset", int], tuple[str, ...]]] = None,
            foundation: Optional[
                Callable[["Poset", int, int], FoundationResult]] = None,
            limit_display: Optional[
                Callable[[tuple[int, ...]], Optional[str]]] = None):
        self.minimal, self.maximal = minimal, maximal
        self.acc, self.acc_note = acc, acc_note
        self.omega_complete, self.omega_note = omega_complete, omega_note
        self.omega_witness = omega_witness
        self.foundation = foundation
        self.limit_display = limit_display


class Poset:
    """A partial order over string element ids.

    The order lives in an up-set table over enumeration indices,
    ``up_mask(i)`` with bit j set iff element i <= element j, and beside it
    its transpose, the down-set table.  Both are filled from
    ``rows(ids, k)`` alone, which returns two masks ``(above, below)`` over
    the older indices 1..k-1 (other bits are ignored): bit j of ``above`` is
    set iff element k <= element j, and of ``below`` iff element j <=
    element k.  Finite posets fill the tables, and check their axioms, at
    construction; generated posets grow them one element at a time.
    Enumeration indices are 1-based, so ``prefix(n)`` is the set P_n of the
    first n elements.
    """

    def __init__(self, name: str, *, ids: Optional[list[str]] = None,
                 rows: Optional[Rows] = None,
                 gen: Optional[Callable[[int], str]] = None,
                 analytics: Optional[Analytics] = None):
        if (ids is None) == (gen is None):
            raise PosetError("supply either a fixed id list or a generator, not both")
        if rows is None:
            raise PosetError("an order oracle is required")
        self.name = name
        self.analytics = analytics or Analytics()
        self._rows = rows
        self._gen = gen
        self._ids: list[str] = list(ids) if ids is not None else []
        self._pos: dict[str, int] = {p: i for i, p in enumerate(self._ids, 1)}
        if len(self._pos) != len(self._ids):
            raise PosetError("duplicate element ids")
        self._up: list[int] = [0]
        self._down: list[int] = [0]
        self._minimal: dict[int, int] = {}
        self._asked = self._founded = 0     # P_Delta's answers, see p_delta
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
                  analytics: Optional[Analytics] = None) -> "Poset":
        """Countable poset from a 1-based enumeration and an order oracle."""
        return cls(name, gen=element_at, rows=_leq_rows(leq),
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
        """Add the up-set and down-set rows of newly enumerated elements,
        and their bits to the rows of the older ones.  Only bits above the
        older prefix are set, so the answers ``minimal_in`` keeps stay
        valid."""
        ids, up, down = self._ids, self._up, self._down
        for k in range(len(up), len(ids) + 1):
            older = (1 << k) - 2
            above, below = self._rows(ids, k)
            up.append(1 << k | above & older)
            down.append(1 << k | below & older)
            for j in bits(below & older):
                up[j] |= 1 << k
            for j in bits(above & older):
                down[j] |= 1 << k

    def prefix(self, n: int) -> list[str]:
        """The first n enumerated elements (all of them, for finite posets)."""
        self.prefix_mask(n)  # rejects a negative n, and enumerates n
        return self._ids[:n]

    def prefix_mask(self, n: int) -> int:
        """The indices of ``prefix(n)`` as a mask."""
        if n < 0:
            raise PosetError(f"prefix length {n} is negative")
        self.ensure(n)
        return (1 << min(n, len(self._ids)) + 1) - 2

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
        self.up_mask(i)  # enumerates i, or rejects it as out of range
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

    def _rows_for(self, mask: int) -> list[int]:
        """The up-set rows, with every index set in mask enumerated.  The
        indices form an interval, so reading the rows of mask's highest,
        then lowest, index rejects as ``up_mask`` does a bit at index 0
        or past a finite poset.  ``ids_of``, ``upper_of``, ``minimal_in``
        and ``maximal_in`` share this one range rule; ``lower_of`` drops
        such bits instead."""
        if mask:
            self.up_mask(mask.bit_length() - 1)
            self.up_mask((mask & -mask).bit_length() - 1)
        return self._up

    def ids_of(self, mask: int) -> frozenset:
        """Ids of the indices set in mask, enumerating them first: a
        family's confirmed answer may name an index past the prefix."""
        self._rows_for(mask)
        return frozenset(self._ids[i - 1] for i in bits(mask))

    def upper_of(self, mask: int) -> int:
        """Up-closure of the indices set in mask on the enumerated prefix:
        the OR of their up-set rows."""
        up = self._rows_for(mask)
        return reduce(or_, map(up.__getitem__, bits(mask)), 0)

    def lower_of(self, mask: int, horizon: int) -> int:
        """Indices of ``prefix(horizon)`` below some index set in mask: the
        OR of the down-set rows of mask's enumerated indices.  A bit at
        index 0 or past the enumerated table is dropped."""
        inside, down = self.prefix_mask(horizon), self._down
        return inside & reduce(or_, map(down.__getitem__,
                                        bits(mask & (1 << len(down)) - 1)), 0)

    def minimal_in(self, mask: int) -> int:
        """Indices set in mask that lie above no other index set in it.

        The answer reads only up-set bits between enumerated indices, which
        a growing prefix never changes, so it is kept once per mask."""
        hit = self._minimal.get(mask)
        if hit is None:
            up, above = self._rows_for(mask), 0
            for q in bits(mask):
                above |= up[q] & ~(1 << q)
            hit = self._minimal[mask] = mask & ~above
        return hit

    def maximal_in(self, mask: int) -> int:
        """Indices set in mask that lie below no other index set in it."""
        up = self._rows_for(mask)
        return sum(1 << q for q in bits(mask) if not up[q] & mask & ~(1 << q))

    def leq(self, p: str, q: str) -> bool:
        return bool(self._up[self.index(p)] >> self.index(q) & 1)

    def leq_ix(self, i: int, j: int) -> bool:
        """Order on 1-based enumeration indices."""
        self.up_mask(j)  # enumerates j, or rejects it as out of range
        return bool(self.up_mask(i) >> j & 1)

    # ------------------------------------------------------------------
    # axioms

    def check_order_axioms(self, horizon: int) -> list[str]:
        """Exhaustive antisymmetry/transitivity check on a prefix, read off
        the table's rows; the table makes every element reflexive."""
        names = [""] + list(map(repr, self.prefix(horizon)))
        up = [row & (1 << len(names)) - 1 for row in self._up[:len(names)]]
        problems = [f"antisymmetry fails on {names[i]}, {names[j]}"
                    for i, row in enumerate(up)
                    for j in bits(row & ~(1 << i)) if up[j] >> i & 1]
        return problems + [
            f"transitivity fails on {names[i]}, {names[j]}, {names[k]}"
            for i, row in enumerate(up) for j in bits(row)
            if up[j] & ~row for k in bits(up[j] & ~row)]

    # ------------------------------------------------------------------
    # extremal elements and foundations

    def extremal_elements(self, horizon: int) -> Extremal:
        """Minimal/maximal elements; exact only when the whole poset is seen.

        For generated posets only family-confirmed extremals are reported;
        without analytics the prefix-relative answer is returned with a note.
        """
        inside = self.prefix_mask(horizon)
        if self.finite:
            return Extremal(self.minimal_in(inside), self.maximal_in(inside),
                            horizon >= len(self._ids))
        a = self.analytics
        if a.minimal is not None or a.maximal is not None:
            return Extremal(a.minimal(self, horizon) if a.minimal else 0,
                            a.maximal(self, horizon) if a.maximal else 0,
                            False, note="family-confirmed")
        return Extremal(self.minimal_in(inside), self.maximal_in(inside),
                        False, note="relative to the enumeration prefix only")

    def confirmed_minimal(self, horizon: int) -> int:
        """Minimal elements known to be minimal in the full poset: a
        family's declared ones, else none for a generated poset; a finite
        poset's prefix minima, its minima once the horizon reaches its size."""
        if self.finite:
            return self.minimal_in(self.prefix_mask(horizon))
        if self.analytics.minimal is not None:
            return self.analytics.minimal(self, horizon)
        return 0

    def finite_foundation(self, mask: int, horizon: int) -> FoundationResult:
        """Search for a finite set F below the set Q that mask holds, with
        both foundation conditions.

        Condition (i): everything below a member of Q lies above some member
        of F.  Condition (ii): every member of F lies below some member of Q.
        Finite posets are decided exactly; generated families answer through
        their analytics; anything else is inconclusive at the horizon.
        """
        if not mask:
            raise PosetError("foundation query needs a nonempty subset")
        if self.finite:
            # a finite order is well founded: the minimal elements of the
            # down-closure lie below q and cover all of it
            down = self.lower_of(mask, len(self._ids))
            return FoundationResult(FOUND, self.minimal_in(down))
        if self.analytics.foundation is not None:
            return self.analytics.foundation(self, mask, horizon)
        return FoundationResult(
            INCONCLUSIVE, self.minimal_in(self.lower_of(mask, horizon)),
            note="prefix candidate only; minimality beyond the horizon unknown")

    def p_delta(self, horizon: int) -> int:
        """Indices of ``prefix(horizon)`` whose singleton has a confirmed
        finite foundation.

        Every singleton of a finite poset is founded: the order is well
        founded, so the minimal elements below q cover its down-set.  A
        generated poset asks ``finite_foundation`` of each index once, at
        the first horizon that reaches it, and keeps the answers as two
        masks, asked and founded; an index is marked asked once its answer
        is in.  A confirmed foundation is a fact about the whole poset
        (``Analytics``), and a poset without analytics is never found, so
        no later horizon changes an answer."""
        inside = self.prefix_mask(horizon)
        if self.finite:
            return inside
        for i in bits(inside & ~self._asked):
            if self.finite_foundation(1 << i, horizon).status == FOUND:
                self._founded |= 1 << i
            self._asked |= 1 << i
        return self._founded & inside

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
        inside = self.prefix_mask(horizon)
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
        inside = self.prefix_mask(horizon)
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
