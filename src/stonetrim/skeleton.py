"""Level-by-level skeleton of a trim partition.

Level 1 is a single node typed by the first enumerated element.  Each later
level refines the previous one (``level_rule``): a node of type t gets a child
for every enumerated type above t, the continuation type t itself twice unless
t is isolated.  Unattached nodes (u_flag) seed types that no existing node can
reach: one for the newly enumerated type when needed or when it is marked
unbounded, and one per already-enumerated noncompact type.
"""
from __future__ import annotations

import codecs
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat
from typing import Iterable, Optional

from ._record import Frozen, Record
from .poset import FOUND, Poset, bits, from_runs, runs

MAX_LEVEL_SIZE = 1 << 16
_CHUNK = 4096       # nodes per chunk of a level build and of the layout test
_LITTLE = sys.byteorder == "little"

# one 4-byte code unit a node, in array("I")'s byte order; the codec
# functions are called directly, as str.encode and str() look the codec
# up by name on every call
_encode, _decode = ((codecs.utf_32_le_encode, codecs.utf_32_le_decode)
                    if _LITTLE else
                    (codecs.utf_32_be_encode, codecs.utf_32_be_decode))


def spell(types: array) -> str:
    """A level's ``types`` column read as a str, one code point per node:
    ``"".join(map(chr, types))``, decoded in one call from the array's
    4-byte items in place, with no bytes copy.  Types are enumeration
    indices no larger than the depth, far below the surrogates at U+D800,
    so every one of them decodes."""
    return _decode(types)[0]


def char_masks(spelled: str, chars: list[str]) -> list[int]:
    """The mask of the positions of each of chars in spelled, where chars
    holds every character of spelled: the string reversed, translated to
    "1" at the character and "0" at every other, then read in base 2, so
    each mask is one pass over the string."""
    backwards = spelled[::-1]
    top = ord(max(chars, default="\0"))
    tables = ("0" * t + "1" + "0" * (top - t) for t in map(ord, chars))
    return [int(backwards.translate(table), 2) for table in tables]


class ConfigError(ValueError):
    """A build configuration violates its hypotheses."""


class BuildError(RuntimeError):
    """Level growth exceeded ``MAX_LEVEL_SIZE``, or a level is missing.

    A level-size failure carries the level it would have built, the nodes
    that level would hold and the bound as ``level``, ``would_hold`` and
    ``bound``; other build errors leave them None."""

    def __init__(self, message: str, *, level: Optional[int] = None,
                 would_hold: Optional[int] = None,
                 bound: Optional[int] = None):
        super().__init__(message)
        self.level, self.would_hold, self.bound = level, would_hold, bound


BUCKETS = ("bounded", "unbounded", "noncompact")


class BuildConfig(Frozen):
    """Poset plus the isolation and compactness data steering the build.

    bounded / unbounded / noncompact are explicit, disjoint element sets.
    An unlisted element is bounded when it lies in P_Delta, the elements
    whose singleton has a confirmed finite foundation (``Poset.p_delta``),
    and noncompact when not.  ``masks`` is the one place where these id
    sets become index masks.
    """

    __slots__ = _compare = ("poset", "isolated", "bounded", "unbounded",
                            "noncompact", "horizon")

    def __init__(self, poset: Poset, isolated: frozenset = frozenset(),
                 bounded: frozenset = frozenset(),
                 unbounded: frozenset = frozenset(),
                 noncompact: frozenset = frozenset(),
                 horizon: Optional[int] = None):
        self._fill(poset, frozenset(isolated), frozenset(bounded),
                   frozenset(unbounded), frozenset(noncompact), horizon)

    def scope(self, depth: int) -> int:
        """Enumeration reach used for validation and the matcher's
        isolated types."""
        if self.poset.finite:
            return self.poset.size
        return max(self.horizon or 0, depth)

    def type_cap(self, n: int) -> int:
        """Number of types available at level n: the enumeration indices
        1..type_cap(n) are the types that may occur on levels 1..n (n, or
        fewer once a finite poset runs out of elements)."""
        return min(n, self.poset.size) if self.poset.finite else n

    def masks(self, n: int) -> tuple[int, dict[str, int]]:
        """The configuration over enumeration indices 1..n: the mask of the
        isolated indices and one mask per bucket.  A listed id takes the
        first bucket in ``BUCKETS`` that lists it, and any other index is
        bounded when it lies in ``p_delta(n)``, else noncompact (no horizon
        changes a ``p_delta`` answer).  Ids not enumerated yet are skipped."""
        poset = self.poset
        known, rest = poset.__contains__, poset.prefix_mask(n)
        iso = rest & poset.mask_of(filter(known, self.isolated))
        buckets = {}
        for bucket in BUCKETS:
            buckets[bucket] = rest & poset.mask_of(
                filter(known, getattr(self, bucket)))
            rest &= ~buckets[bucket]
        if rest:
            delta = poset.p_delta(n)
            buckets["bounded"] |= rest & delta
            buckets["noncompact"] |= rest & ~delta
        return iso, buckets

    def validate(self, depth: int = 0) -> list[str]:
        """Check the existence hypotheses on the enumeration prefix.

        Named clauses: empty-poset, order-axioms (a generated poset whose
        prefix breaks antisymmetry or transitivity; a finite one is checked
        when it loads), unknown-element, overlapping-buckets,
        isolated-minimal-noncompact, bounded-not-lower, bounded-outside-delta
        (and the same two for bounded+unbounded combined).
        """
        poset = self.poset
        if poset.size == 0:
            return ["empty-poset: the poset has no elements to index a level"]
        n = self.scope(depth) or 1
        preset = set(poset.prefix(n))
        problems = []
        if not poset.finite:
            broken = poset.check_order_axioms(n)
            if broken:
                problems.append("order-axioms: " + "; ".join(broken[:3]))
        for label in ("isolated",) + BUCKETS:
            for p in sorted(getattr(self, label)):
                if p not in preset:
                    problems.append(f"unknown-element: {label} lists {p!r} "
                                    f"outside the enumeration prefix")
        for a, b in combinations(BUCKETS, 2):
            overlap = getattr(self, a) & getattr(self, b)
            if overlap:
                problems.append(f"overlapping-buckets: {a} and {b} share "
                                f"{sorted(overlap)}")
        if problems:
            return problems

        minimal = poset.confirmed_minimal(n)
        iso, buckets = self.masks(n)
        bad = iso & buckets["noncompact"] & minimal
        if bad:
            problems.append(f"isolated-minimal-noncompact: "
                            f"{sorted(poset.ids_of(bad))} are "
                            f"isolated, minimal and noncompact at once")
        delta = poset.p_delta(n)
        bounded = buckets["bounded"]
        for label, group in (("bounded", bounded),
                             ("bounded+unbounded",
                              bounded | buckets["unbounded"])):
            if poset.lower_of(group, n) & ~group:
                problems.append(f"{label}-not-lower: not a lower set on the prefix")
            stray = group & ~delta
            if stray:
                problems.append(f"{label}-outside-delta: "
                                f"{sorted(poset.ids_of(stray))} lack "
                                f"a confirmed finite foundation")
        # Per-element finiteness of {q in unbounded | q <= p} holds on any
        # prefix; infinite violations would need analytic evidence.
        return problems


class Level(Record):
    """One level of the skeleton, written once, when it is built, and
    stored column-wise in typed arrays: each node's type and the fence
    posts of the child blocks of the level above (``bounds``, one more
    than that level has nodes, from ``bounds[0] = 0``), so node p's block
    spans ``bounds[p]:bounds[p + 1]`` here; level 1 has no level above and
    its ``bounds`` is empty.  The unattached tail starts at the last post
    (``u_start``; level 1 has none), and parents are derived.  ``counts``
    holds the number of nodes of each type (counted from ``types`` when
    not given), and ``substitution`` the per-type rule the level was built
    by: each type of the level above, as its character, with its child
    block here, spelled (``spell``); None on level 1 and on a level laid
    out by hand."""

    # the caches _masks and _blocks fill on first use, u_start is read
    # off the columns, and the substitution follows from the config, so
    # equality leaves them out
    _compare = ("types", "bounds")

    def __init__(self, types: array, bounds: Optional[array] = None,
                 counts: Optional[dict[int, int]] = None,
                 substitution: Optional[dict[str, str]] = None):
        self.types = types            # 'I': 1-based poset enumeration index
        self.bounds = array("I") if bounds is None else bounds
        self.counts = dict(Counter(types)) if counts is None else counts
        self.substitution = substitution
        # nodes from here on are unattached
        self.u_start = self.bounds[-1] if self.bounds else len(types)
        self._masks: dict[int, int] = {}
        self._blocks: Optional[tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.types)

    def parent_of(self, i: int) -> Optional[int]:
        """Parent of node i on the level above, the node whose child block
        holds i; None for an unattached node and for the root."""
        if i >= self.u_start or not self.bounds:
            return None
        return bisect_right(self.bounds, i) - 1

    @property
    def parent(self) -> "Parents":
        """Every node's parent, read as a list."""
        return Parents(self)

    def type_masks(self) -> dict[int, int]:
        """Atom mask of every type on the level, keyed in the order the types
        first occur from the last node down, each read off the level's
        spelling (``spell``) by ``char_masks``."""
        if not self._masks:
            spelled = spell(self.types)
            chars = sorted(set(spelled), key=spelled.rfind, reverse=True)
            self._masks.update(zip(map(ord, chars),
                                   char_masks(spelled, chars)))
        return self._masks

    def type_mask(self, type_ix: int) -> int:
        return self.type_masks().get(type_ix, 0)

    def block_masks(self) -> tuple[int, int]:
        """(starts, ends) over the level's atoms: bit i of starts is set
        iff a child block begins at atom i, bit i of ends iff one ends.
        Blocks are adjacent, so both are read off one mask of the posts
        (``bounds``): a block starts at every post but the last, and ends
        just before every post."""
        if self._blocks is None:
            size = self.u_start
            flags = bytearray(b"0" * (size + 1))
            for e in self.bounds:
                flags[e] = 49                               # ord("1")
            edges = int(flags[::-1], 2)
            self._blocks = (edges & ~(1 << size), edges >> 1)
        return self._blocks

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.types)) - 1

    @cached_property
    def u_mask(self) -> int:
        return self.full_mask & ~((1 << self.u_start) - 1)


class Parents:
    """The parents of a level's nodes, None from ``u_start`` on and at the
    root, derived from the level's posts (``bounds``).  A slice of step 1
    is a list of that span only, so reading the parents chunk by chunk
    never holds a list of the whole level; ``Level.parent_of`` answers for
    one node."""

    __slots__ = ("_level",)

    def __init__(self, level: Level):
        self._level = level

    def __len__(self) -> int:
        return len(self._level.types)

    def __getitem__(self, i: slice) -> list[Optional[int]]:
        span = range(len(self))[i]
        if not isinstance(span, range) or span.step != 1:
            raise TypeError("Level.parent reads slices of step 1")
        return list(self._span(span.start, span.stop))

    def __iter__(self) -> Iterator[Optional[int]]:
        return self._span(0, len(self))

    def _span(self, lo: int, hi: int) -> Iterator[Optional[int]]:
        """Parents of nodes lo..hi-1: the first attached node's parent, one
        more after every child block that ends inside the span, then
        None."""
        lvl = self._level
        bounds = lvl.bounds
        top = min(hi, lvl.u_start) if bounds else lo
        attached: Iterable[int] = ()
        if lo < top:
            p, q = bisect_right(bounds, lo), bisect_right(bounds, top - 1)
            # flag k is set iff a child block ends just before node lo+1+k
            flags = bytearray(top - lo - 1)
            for e in bounds[p:q]:
                flags[e - lo - 1] = 1
            attached = accumulate(flags, initial=p - 1)
        return chain(attached, repeat(None, hi - max(lo, top)))


def _rewrite(levels: Sequence[Level],
             rules: Sequence[Optional[dict[str, str]]],
             own: str) -> Iterator[str]:
    """Level n+1 up to its unattached tail, spelled in pieces of at most
    one ``_CHUNK`` (or of one block, where a block is longer).  n =
    len(rules), own is level n spelled, and rules[j - 1] spells the child
    block on level j+1 of each type of level j, as ``Level.substitution``
    does, or is None where no rule is known.

    Level j+1 is level j rewritten through rules[j - 1], then its own
    unattached tail, which starts at its last post (``u_start``).  So
    level n+1 is level k rewritten through the rules of levels k..n
    composed, then the tail of each level k+1..n rewritten through the
    rules composed from its own level.  The tables are composed from
    level n upward, a type's block on level j the composed blocks of its
    child block joined.  Composing stops at level 1, at an unknown rule, where a
    composed block would be longer than a chunk (its length is summed
    from the blocks it joins before it is joined), and at a level that
    already goes out in one piece: a piece rewrites as many nodes as the
    longest block of their table fits in one chunk, at least one.  So a
    piece costs one lookup a node of level k, not of level n; where a
    block of rules[n - 1] is longer than a chunk, k = n, the per-node
    rewrite of level n."""
    n = k = len(rules)
    table = rules[n - 1]
    widest = max(map(len, table.values()))
    tables = [(table, widest)]
    while (k > 1 and len(levels[k - 1]) * widest > _CHUNK
           and (rule := rules[k - 2]) is not None):
        widest = max(sum(map(len, map(table.__getitem__, block)))
                     for block in rule.values())
        if widest > _CHUNK:
            break
        table = {c: "".join(map(table.__getitem__, block))
                 for c, block in rule.items()}
        tables.append((table, widest))
        k -= 1
    for j in range(k, n + 1):
        table, widest = tables[n - j]
        if j == n:
            text = own if k == n else own[levels[n - 1].u_start:]
        else:
            text = _walked(levels, j, k)
        step = max(1, _CHUNK // (widest or 1))
        for lo in range(0, len(text), step):
            yield "".join(map(table.__getitem__, text[lo:lo + step]))


def _walked(levels: Sequence[Level], j: int, k: int) -> str:
    """What the walk down from level k (``_rewrite``) reads of level j,
    spelled: all of level k, the unattached tail of a level below it."""
    lvl = levels[j - 1]
    return spell(lvl.types if j == k else lvl.types[lvl.u_start:])


def _composed_ends(out: array, levels: Sequence[Level],
                   rules: Sequence[Optional[dict[str, str]]], own: str,
                   size_of: dict[int, int]) -> str:
    """Append to out, which holds the first post 0, the ends of the child
    blocks on level n+1 of the nodes of level n that descend from a
    shallower level k, one segment of at most one ``_CHUNK`` of items a
    node of level k or of a tail between; return the rest of level n
    spelled, whose ends ``_build_next`` writes as a running sum.  n =
    len(rules), own is level n spelled, size_of maps each type's code
    point to the length of its child block on level n+1, and rules are
    ``_rewrite``'s.

    Level n is walked as ``_rewrite`` walks level n+1: level k rewritten
    through the rules of levels k..n-1 composed, then the tails of levels
    k+1..n-1, then the tail of level n, which is the rest.  Each type of
    a level j < n carries a table entry for the child blocks of its
    level-n descendants (``_joined``): their ends, counted from the start
    of the first, as the 32-bit lanes of one int, the repunit of as many
    lanes, the last end and the lane count.  A level-j node whose
    descendants' blocks start at base writes its segment as ``(lanes +
    base * repunit).to_bytes(...)``, so the per-node work falls on level
    k.  No lane carries into the next: an end is at most level n+1's
    size, below 2^32, as ``MAX_LEVEL_SIZE`` is 2^16.  The lanes are laid
    out low lane first, array("I")'s order on a little-endian host.

    The tables are composed from level n upward while level k holds more
    nodes than its widest entry has lanes: past that point, composing a
    level costs more than the segments it saves.  Composing also stops at
    level 1, at an unknown rule and where an entry would be wider than a
    chunk; where it stops at once, k = n and the rest is all of level
    n."""
    n = k = len(rules)
    table = {chr(t): (size, 1, size, 1) for t, size in size_of.items()}
    widest, tables = 1, []
    while (k > 1 and len(levels[k - 1]) > widest
           and (rule := rules[k - 2]) is not None):
        table = {c: _joined(table, block) for c, block in rule.items()}
        widest = max(entry[3] for entry in table.values())
        if widest > _CHUNK:
            break
        tables.append(table)
        k -= 1
    end = 0
    for j, table in zip(range(k, n), reversed(tables)):
        for c in _walked(levels, j, k):
            lanes, ones, total, width = table[c]
            out.frombytes((lanes + end * ones).to_bytes(4 * width, "little"))
            end += total
    return own if k == n else own[levels[n - 1].u_start:]


def _joined(table: dict[str, tuple[int, int, int, int]],
            block: str) -> tuple[int, int, int, int]:
    """The table entry of a type whose child block is block, read off the
    entries of its nodes (``_composed_ends``): their lanes side by side,
    each node's raised by the last ends of the nodes before it."""
    lanes = ones = total = shift = 0
    for c in block:
        node_lanes, node_ones, node_total, width = table[c]
        lanes |= (node_lanes + total * node_ones) << shift
        ones |= node_ones << shift
        total += node_total
        shift += 32 * width
    return lanes, ones, total, shift // 32


def level_rule(config: BuildConfig, n: int) -> tuple[dict[str, str], str]:
    """The rule that lays out level n+1 from level n >= 1, read off the
    config alone: each type's child block, keyed by its character as
    ``Level.substitution`` stores it, and the unattached tail, both
    spelled (``spell``).  A block holds types up to ``type_cap(n + 1)``;
    the tail starts with n+1 when needed, then holds the noncompact types
    up to ``type_cap(n)``.  No level is read: level n holds exactly the
    types 1..type_cap(n), by induction on n, as level 1 is the root, typed
    1, each type of level n starts its own block on level n+1, and n+1,
    when type_cap(n + 1) > n, enters below a type of level n or fresh."""
    poset = config.poset
    cap = config.type_cap(n + 1)
    iso, buckets = config.masks(cap)
    below_cap = poset.prefix_mask(cap)
    blocks: dict[str, str] = {}
    reach = 0
    for t in range(1, config.type_cap(n) + 1):
        up = poset.up_mask(t)
        reach |= up
        blocks[chr(t)] = chr(t) * (1 if iso >> t & 1 else 2) + "".join(
            map(chr, bits(up & below_cap & ~(1 << t))))
    fresh = cap > n and (buckets["unbounded"] >> n + 1 & 1
                         or not reach >> n + 1 & 1)
    tail = chr(n + 1) * fresh + "".join(map(chr, bits(
        buckets["noncompact"] & poset.prefix_mask(config.type_cap(n)))))
    return blocks, tail


def equal_rules(left: BuildConfig, right: BuildConfig,
                depth: int) -> Optional[tuple[int, str, int]]:
    """None when the two configs build the same levels 1..depth, id for
    id, with the same types isolated, else the first (level, what, index)
    where their rules part, read off the configs alone: no tree is built,
    so any depth answers, past ``MAX_LEVEL_SIZE`` too.

    Level 0 is the posets: ``(0, "size", i)`` when they differ in
    finiteness or size, i the first index only one of them has, and
    ``(0, "id", i)`` at the first index up to ``type_cap(depth)`` whose
    ids differ.  Level n = 1..depth-1 is ``level_rule(config, n)``:
    ``(n, "block", t)`` at the least type t whose child block differs,
    else ``(n, "tail", i)`` at the first place in the unattached tails
    that differs.  Last, ``(depth, "isolated", t)`` at the least type t
    of level depth isolated on one side only: a type new there has its
    block, which would show it, in the rule of level depth, which lays
    out level depth+1 and is not compared.

    Equal rules give equal levels, by induction on n.  Level 1 is the
    root, typed 1, on both sides.  ``_build_next`` lays out level n+1
    by the rule compared here, so level n+1, level n rewritten through
    equal blocks and then an equal tail, is equal.  Equal levels give
    equal substitutions back: a type's block is the children of its
    first node, the tail the nodes past the blocks.  With the ids equal
    index for index and the same types isolated, the identity on atoms
    maps every level onto the other side's, type for type, and pairs an
    isolated type only with itself isolated."""
    posets = left.poset, right.poset
    sizes = [p.size for p in posets]
    if sizes[0] != sizes[1]:
        return 0, "size", min(s for s in sizes if s is not None) + 1
    cap = left.type_cap(depth)
    ids = [p.prefix(cap) for p in posets]
    if ids[0] != ids[1]:
        return 0, "id", next(i for i, (a, b) in enumerate(zip(*ids), 1)
                             if a != b)
    for n in range(1, depth):
        (blocks, tail), (theirs, their_tail) = (
            level_rule(config, n) for config in (left, right))
        t = next((t for t in range(1, left.type_cap(n) + 1)
                  if blocks[chr(t)] != theirs[chr(t)]), None)
        if t is not None:
            return n, "block", t
        if tail != their_tail:
            return n, "tail", next(
                (i for i, (a, b) in enumerate(zip(tail, their_tail))
                 if a != b), min(len(tail), len(their_tail)))
    apart = left.masks(cap)[0] ^ right.masks(cap)[0]
    if apart:
        return depth, "isolated", (apart & -apart).bit_length() - 1
    return None


class SkeletonTree:
    """The skeleton built to some depth; deterministically extendable."""

    def __init__(self, config: BuildConfig, depth: int):
        if depth < 1:
            raise BuildError("depth must be at least 1")
        self.config = config
        self.poset = config.poset
        self.levels: list[Level] = []
        self.extend_to(depth)

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.levels)

    def extend_to(self, depth: int) -> "SkeletonTree":
        while self.depth < depth:
            self._build_next()
        return self

    def _build_next(self) -> None:
        """Append level n+1, spelling out ``level_rule``.  Its size and type
        counts follow from level n's counts and the rule, so the size bound
        is checked before any pass over level n's nodes and before anything
        is written.  ``types`` is filled from the pieces of ``_rewrite``,
        then the tail.  ``bounds`` is written from its first post 0, where
        level n is wider than a chunk on a little-endian host, first by
        ``_composed_ends`` in whole segments of 32-bit lanes, one per node
        of a shallower level, so the per-node work falls on that level; no
        lane carries, as an end is below 2^32 (``MAX_LEVEL_SIZE`` is
        2^16).  The rest of level n, all of it on a narrower level, gets
        its ends in ``_CHUNK``-node slices, each the running sum of its
        block sizes, read off the slice translated through ``size_of``.
        Level n is spelled once (``spell``), and no buffer but the
        spelling spans the whole level."""
        n = self.depth + 1
        if n == 1:
            self.levels.append(Level(array("I", [1])))
            return
        prev = self.levels[-1]
        kids, tail = level_rule(self.config, n - 1)
        size_of = {ord(c): len(block) for c, block in kids.items()}
        size = sum(c * size_of[t] for t, c in prev.counts.items()) + len(tail)
        if size > MAX_LEVEL_SIZE:
            raise BuildError(f"level {n} would hold {size} nodes, over the "
                             f"bound {MAX_LEVEL_SIZE}", level=n,
                             would_hold=size, bound=MAX_LEVEL_SIZE)
        counts: dict[int, int] = {}
        for t, c in prev.counts.items():
            for q in map(ord, kids[chr(t)]):
                counts[q] = counts.get(q, 0) + c
        for q in map(ord, tail):
            counts[q] = counts.get(q, 0) + 1
        spelled = spell(prev.types)
        rules = [lvl.substitution for lvl in self.levels[1:]] + [kids]
        types, bounds = array("I"), array("I", [0])
        # one column at a time: grown together, with each chunk's buffers
        # in between, they would leapfrog each other up the heap
        for piece in chain(_rewrite(self.levels, rules, spelled), (tail,)):
            types.frombytes(_encode(piece)[0])
        rest = spelled
        if _LITTLE and len(spelled) > _CHUNK:
            rest = _composed_ends(bounds, self.levels, rules, spelled,
                                  size_of)
        for lo in range(0, len(rest), _CHUNK):
            sizes = array("I", _encode(rest[lo:lo + _CHUNK].translate(
                size_of), "surrogatepass")[0])
            sizes[0] += bounds[-1]
            bounds.extend(accumulate(sizes))
        self.levels.append(Level(types, bounds, counts, kids))

    # ------------------------------------------------------------------

    def level(self, n: int) -> Level:
        if 0 < n <= len(self.levels):
            return self.levels[n - 1]
        raise BuildError(f"level {n} not built (depth {self.depth})")

    def children_span(self, n: int, i: int) -> tuple[int, int]:
        """Child index range of node (n, i) within level n+1."""
        lvl = self.level(n)
        if not 0 <= i < len(lvl):
            raise IndexError(
                f"level {n} has no node {i}, only 0..{len(lvl) - 1}")
        if n >= len(self.levels):
            raise BuildError(f"level {n + 1} not built")
        bounds = self.levels[n].bounds
        return bounds[i], bounds[i + 1]

    def theta_image(self, n: int, mask: int, k: Optional[int] = None) -> int:
        """Image of a level-n atom mask inside level k >= n, n+1 when k is
        not given: the ``lift_runs`` of its runs, as a mask, in one pass.
        A BuildError names n and k when k < n.

        Unattached nodes of levels n+1..k never appear: the embedding of
        the level-n ring misses everything they generate.
        """
        self.level(n)                   # raises for n out of range
        k = n + 1 if k is None else k
        if not mask and k >= n:
            return 0                    # also past the built levels
        return from_runs(self.lift_runs(n, runs(mask), k))

    def lift_runs(self, n: int, spans: list[tuple[int, int]],
                  k: int) -> list[tuple[int, int]]:
        """Where runs of atoms of level n lie on level k >= n, the runs
        themselves when k = n.  Each nonempty run (a, b), atoms a..b-1,
        lifts to one run, since the child blocks of consecutive nodes are
        adjacent, node p's block spanning the posts ``bounds[p]`` to
        ``bounds[p + 1]`` of the level lifted to; so the list keeps its
        length and its order."""
        if k < n:
            raise BuildError(f"cannot lift level {n} to level {k}, "
                             f"a shallower one")
        if k > len(self.levels):
            raise BuildError(f"level {k} not built (depth {self.depth})")
        for lvl in self.levels[n:k]:
            posts = lvl.bounds
            spans = [(posts[a], posts[b]) for a, b in spans]
        return spans

    # ------------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph skeleton {", "  rankdir=TB;"]
        for n in range(1, self.depth + 1):
            lvl = self.level(n)
            for i, (t, p) in enumerate(zip(lvl.types, lvl.parent)):
                name = f'"{n}.{i}"'
                label = f"{n}.{i}:{self.poset.id_at(t)}"
                style = ', style=dashed' if i >= lvl.u_start else ""
                lines.append(f'  {name} [label="{label}"{style}];')
                if p is not None:
                    lines.append(f'  "{n - 1}.{p}" -> {name};')
        lines.append("}")
        return "\n".join(lines)


def validated(config: BuildConfig, depth: int) -> BuildConfig:
    """The configuration, once ``validate`` finds no problem with it at
    depth; else a ConfigError naming every problem."""
    problems = config.validate(depth)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def build_levels(config: BuildConfig, depth: int) -> SkeletonTree:
    """Validate the configuration and build the skeleton."""
    return SkeletonTree(validated(config, depth), depth)


# ----------------------------------------------------------------------
# structural invariants

class StructureReport(Record):
    __slots__ = _compare = ("checks",)

    def __init__(self, checks: Optional[list[tuple[str, bool, str]]] = None):
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": n, "passed": ok, "detail": d}
                           for n, ok, d in self.checks]}


def _reference_blocks(tree: SkeletonTree,
                      spelled: list[str]) -> list[Optional[dict[str, str]]]:
    """For each level n = 1..depth-1, at n - 1, each type's child block at
    its first node on level n, if level n holds types 1..type_cap(n) only
    and each node's block on level n+1, between its posts (``bounds``), is
    its type's; else None.  spelled[n] is level n spelled.

    Two tests, each passed by the whole level: (a) per ``_CHUNK`` of
    nodes, the block lengths, ends less the ends before them, and the
    wanted ones, each read as one int of 32-bit lanes, are equal; the
    chunk's ends and the ends before them are two views of the posts, one
    post apart, each read as one int in the host's byte order; (b) the
    wanted blocks, joined, start level n+1: they are read as the pieces of
    ``_rewrite`` through the reference blocks of the levels above, which
    is the same string as long as each of those levels passed (a) and
    (b), so the chain of rules restarts past a level that failed.  (a) is
    exact: ends are below 2^32, and by (b) the wanted blocks lie in level
    n+1, shorter than 2^20, so where the lanes agree below lane k, lane
    k's block starts below 2^20 and its have less want lies strictly
    between -2^21 and 2^32, where no nonzero multiple of 2^32 lies: a
    borrow cannot fake equality.  The reference blocks are read off the
    tree itself, never off the substitutions the builder kept."""
    refs: list[Optional[dict[str, str]]] = []
    order = sys.byteorder
    for n in range(1, tree.depth):
        own, kids = spelled[n], spelled[n + 1]
        bounds = tree.levels[n].bounds
        ref = {c: kids[bounds[i]:bounds[i + 1]]
               for c in map(chr, range(1, tree.config.type_cap(n) + 1))
               if (i := own.find(c)) >= 0}
        refs.append(ref)
        lens = {ord(c): chr(len(block)) for c, block in ref.items()}
        if len(kids) >> 20 or own.translate(dict.fromkeys(lens)):
            refs[-1] = None
            continue
        view = memoryview(bounds)
        for lo in range(0, len(own), _CHUNK):
            hi = min(lo + _CHUNK, len(own))
            have = int.from_bytes(view[lo + 1:hi + 1], order)
            before = int.from_bytes(view[lo:hi], order)
            want = _encode(own[lo:lo + _CHUNK].translate(lens),
                           "surrogatepass")[0]
            if have - before != int.from_bytes(want, order):
                refs[-1] = None
                break
        else:
            at = 0
            for piece in _rewrite(tree.levels, refs, own):
                if not kids.startswith(piece, at):
                    refs[-1] = None
                    break
                at += len(piece)
    return refs


def verify_structure(tree: SkeletonTree,
                     q_lower: Optional[int] = None) -> StructureReport:
    """Check the counting consequences of the build rules: every enumerated
    type appears on its level; isolated minimal types keep a single node
    per level; isolated types continue through one child, others through
    exactly two; noncompact types get one unattached node per later level
    and unbounded types one at their entry level; and, given a lower subset
    of bounded types as an index mask q_lower, every node typed in it
    descends from the covering level of its foundation.

    Each level is read once as its spelling (``spell``), and every check is
    a count or a search over those strings with C-level ``str`` methods: no
    pass over a level costs more than its width, and none rebuilds a level.
    Continuation children are counted once per type where the next level
    is laid out by type (``_reference_blocks``), else once per node.
    """
    rep = StructureReport()
    poset = tree.poset
    depth = tree.depth
    spelled = [""] + [spell(lvl.types) for lvl in tree.levels]

    for n in range(1, depth + 1):
        missing = [t for t in range(1, tree.config.type_cap(n) + 1)
                   if chr(t) not in spelled[n]]
        rep.add(f"types-present@{n}", not missing,
                f"missing {missing}" if missing else "")

    iso, buckets = tree.config.masks(tree.config.type_cap(depth))
    minimal = poset.confirmed_minimal(tree.config.type_cap(depth))
    for t in bits(iso & minimal):
        bad = next((f"level {n} holds {c} nodes of type ix {t}"
                    for n in range(t, depth + 1)
                    if (c := spelled[n].count(chr(t))) != 1), "")
        rep.add(f"isolated-single-line:{poset.id_at(t)}", not bad, bad)

    refs = _reference_blocks(tree, spelled)
    for n in range(1, depth):
        own, kids = spelled[n], spelled[n + 1]
        bounds = tree.levels[n].bounds
        ref = refs[n - 1]
        want = {c: 1 if iso >> ord(c) & 1 else 2 for c in ref or set(own)}
        bad = ""
        if ref is None or any(ref[c].count(c) != k for c, k in want.items()):
            same = map(kids.count, own, bounds, bounds[1:])
            bad = next((f"node {n}.{i} of type {poset.id_at(ord(c))} has {k} "
                        f"continuation children, wanted {want[c]}"
                        for i, (c, k) in enumerate(zip(own, same))
                        if k != want[c]), "")
        rep.add(f"continuation-children@{n}", not bad, bad)

    noncompact, unbounded = buckets["noncompact"], buckets["unbounded"]
    for t in bits(noncompact | unbounded):
        if noncompact >> t & 1:
            bad = next((f"level {n} has no unattached node of type ix {t}"
                        for n in range(max(2, t + 1), depth + 1)
                        if spelled[n].find(chr(t), tree.level(n).u_start) < 0),
                       "")
            rep.add(f"noncompact-supply:{poset.id_at(t)}", not bad, bad)
        elif 2 <= t <= depth:
            ok = spelled[t].find(chr(t), tree.level(t).u_start) >= 0
            rep.add(f"unbounded-entry:{poset.id_at(t)}", ok,
                    "" if ok else f"no unattached entry node at level {t}")

    if q_lower is not None:
        res = poset.finite_foundation(q_lower, tree.config.type_cap(depth))
        if res.status != FOUND:
            rep.add("cover-foundation", False,
                    f"foundation search returned {res.status}")
        else:
            q_chars = set(map(chr, bits(q_lower)))
            n0 = res.foundation.bit_length() - 1
            bad = ""
            # nodes descending from level n0 fill a prefix of each level
            for n in range(n0, depth + 1):
                reach = tree.lift_runs(n0, [(0, len(tree.level(n0)))], n)[0][1]
                escaped = [i for i in map(spelled[n].find, q_chars,
                                          repeat(reach)) if i >= 0]
                if escaped:
                    bad = f"node {n}.{min(escaped)} of covered type escapes level {n0}"
                    break
            rep.add("covered-types-descend", not bad, bad)
    return rep
