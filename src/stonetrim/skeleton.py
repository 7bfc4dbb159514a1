"""Level-by-level skeleton of a trim partition.

Level 1 is a single node typed by the first enumerated element.  Each later
level refines the previous one: a node of type t gets one child for every
enumerated type above t, except that the continuation type t itself appears
twice unless t is isolated.  Unattached nodes (u_flag) seed types that no
existing node can reach: one for the newly enumerated type when needed or
when it is marked unbounded, and one per already-enumerated noncompact type.
"""
from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Iterable, Optional

from ._record import Frozen, Record
from .poset import FOUND, Poset, bits, from_runs, runs

MAX_LEVEL_SIZE = 1 << 16

_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def spell(types: array) -> str:
    """A level's ``types`` column read as a str, one code point per node:
    ``"".join(map(chr, types))``, decoded in one call from the array's
    4-byte items.  Types are enumeration indices no larger than the depth,
    far below the surrogates at U+D800, so every one of them decodes."""
    return types.tobytes().decode(_UTF32)


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
    """Level growth exceeded the configured bound, or a level is missing.

    A level-size failure carries the level it would have built, the nodes
    that level would hold and the bound as ``level``, ``would_hold`` and
    ``bound``; other build errors leave them None."""

    def __init__(self, message: str, *, level: Optional[int] = None,
                 would_hold: Optional[int] = None,
                 bound: Optional[int] = None):
        super().__init__(message)
        self.level, self.would_hold, self.bound = level, would_hold, bound


BUCKETS = ("bounded", "unbounded", "noncompact")


class BuildConfig(Record):
    """Poset plus the isolation and compactness data steering the build.

    bounded / unbounded / noncompact are explicit, disjoint element sets;
    anything unlisted falls into the default bucket.  The "auto" default
    sends elements with a confirmed finite foundation for their singleton to
    bounded and the rest to noncompact.
    """

    _compare = ("poset", "isolated", "bounded", "unbounded", "noncompact",
                "default_bucket", "horizon", "max_level_size")
    __slots__ = _compare + ("_resolved",)

    def __init__(self, poset: Poset, isolated: frozenset = frozenset(),
                 bounded: frozenset = frozenset(),
                 unbounded: frozenset = frozenset(),
                 noncompact: frozenset = frozenset(),
                 default_bucket: str = "auto",
                 horizon: Optional[int] = None,
                 max_level_size: int = MAX_LEVEL_SIZE):
        self.poset = poset
        self.isolated = frozenset(isolated)
        self.bounded = frozenset(bounded)
        self.unbounded = frozenset(unbounded)
        self.noncompact = frozenset(noncompact)
        if default_bucket not in BUCKETS + ("auto",):
            raise ConfigError(f"unknown default bucket {default_bucket!r}")
        self.default_bucket = default_bucket
        self.horizon = horizon
        self.max_level_size = max_level_size
        # indices resolved so far, then the isolated and bucket masks
        self._resolved: tuple[int, int, dict[str, int]] = (
            0, 0, dict.fromkeys(BUCKETS, 0))

    def scope(self, depth: int) -> int:
        """Enumeration reach used for validation and bucket resolution."""
        if self.poset.finite:
            return self.poset.size
        return max(self.horizon or 0, depth)

    def bucket_of(self, p: str, depth: int) -> str:
        if p in self.bounded:
            return "bounded"
        if p in self.unbounded:
            return "unbounded"
        if p in self.noncompact:
            return "noncompact"
        if self.default_bucket != "auto":
            return self.default_bucket
        res = self.poset.finite_foundation({p}, self.scope(depth))
        return "bounded" if res.status == FOUND else "noncompact"

    def masks(self, n: int) -> tuple[int, dict[str, int]]:
        """The configuration over enumeration indices 1..n: the mask of the
        isolated indices and one mask per bucket.  Each index is resolved
        once, through ``bucket_of(id_at(ix), n)`` by the first call that
        reaches it; a call with a smaller n reads the memo below bit n+1."""
        done, iso, buckets = self._resolved
        if n > done:
            buckets = dict(buckets)
            for ix in range(done + 1, n + 1):
                p = self.poset.id_at(ix)
                if p in self.isolated:
                    iso |= 1 << ix
                buckets[self.bucket_of(p, n)] |= 1 << ix
            self._resolved = n, iso, buckets
        keep = (1 << n + 1) - 1
        return iso & keep, {b: m & keep for b, m in buckets.items()}

    def validate(self, depth: int = 0) -> list[str]:
        """Check the existence hypotheses on the enumeration prefix.

        Named clauses: empty-poset, unknown-element, overlapping-buckets,
        isolated-minimal-noncompact, bounded-not-lower, bounded-outside-delta
        (and the same two for bounded+unbounded combined).
        """
        if self.poset.size == 0:
            return ["empty-poset: the poset has no elements to index a level"]
        n = self.scope(depth) or 1
        preset = set(self.poset.prefix(n))
        problems = []
        for label, group in (("isolated", self.isolated),
                             ("bounded", self.bounded),
                             ("unbounded", self.unbounded),
                             ("noncompact", self.noncompact)):
            for p in sorted(group):
                if p not in preset:
                    problems.append(f"unknown-element: {label} lists {p!r} "
                                    f"outside the enumeration prefix")
        for a, b in (("bounded", "unbounded"), ("bounded", "noncompact"),
                     ("unbounded", "noncompact")):
            overlap = getattr(self, a) & getattr(self, b)
            if overlap:
                problems.append(f"overlapping-buckets: {a} and {b} share "
                                f"{sorted(overlap)}")
        if problems:
            return problems

        poset = self.poset
        minimal, _ = poset.confirmed_minimal(n)
        iso, buckets = self.masks(n)
        bad = poset.ids_of(iso & buckets["noncompact"]) & minimal
        if bad:
            problems.append(f"isolated-minimal-noncompact: {sorted(bad)} are "
                            f"isolated, minimal and noncompact at once")
        delta = poset.mask_of(poset.p_delta(n)[0])
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
    stored column-wise in typed arrays: each node's type and where each
    child block of the level above ends here (``block_end``, empty on level
    1).  Block starts and parents are derived.  ``counts`` holds the number
    of nodes of each type (counted from ``types`` when not given)."""

    # the caches _masks, _type_bits and _blocks fill on first use, so
    # equality leaves them out
    _compare = ("number", "types", "u_start", "block_end")

    def __init__(self, number: int, types: array, u_start: int,
                 block_end: Optional[array] = None,
                 counts: Optional[dict[int, int]] = None):
        self.number = number
        self.types = types            # 'I': 1-based poset enumeration index
        self.u_start = u_start        # nodes from here on are unattached
        self.block_end = array("I") if block_end is None else block_end
        self.counts = dict(Counter(types)) if counts is None else counts
        self._masks: dict[int, int] = {}
        self._type_bits: list[tuple[int, int]] = []
        self._blocks: Optional[tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.types)

    def block_start(self, p: int) -> int:
        """Where the child block of node p of the level above begins here:
        the child blocks of consecutive nodes are adjacent."""
        return self.block_end[p - 1] if p else 0

    def parent_of(self, i: int) -> Optional[int]:
        """Parent of node i on the level above, the node whose child block
        holds i; None for an unattached node and for the root."""
        if i >= self.u_start or not self.block_end:
            return None
        return bisect_right(self.block_end, i)

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
            chars = list(dict.fromkeys(reversed(spelled)))
            self._masks.update(zip(map(ord, chars),
                                   char_masks(spelled, chars)))
            self._type_bits = [(1 << t, atoms)
                               for t, atoms in self._masks.items()]
        return self._masks

    def type_bits(self) -> list[tuple[int, int]]:
        """(1 << type, atom mask) for every type on the level; refilled
        with ``type_masks`` whenever ``_masks`` is emptied."""
        if not self._masks:
            self.type_masks()
        return self._type_bits

    def type_mask(self, type_ix: int) -> int:
        return self.type_masks().get(type_ix, 0)

    def block_masks(self) -> tuple[int, int]:
        """(starts, ends) over the level's atoms: bit i of starts is set
        iff a child block begins at atom i, bit i of ends iff one ends."""
        if self._blocks is None:
            block_end = self.block_end
            size = block_end[-1] if block_end else 0
            starts, ends = bytearray(b"0" * size), bytearray(b"0" * size)
            for a, b in zip(chain((0,), block_end), block_end):
                starts[a] = ends[b - 1] = 49                # ord("1")
            self._blocks = (int(b"0" + starts[::-1], 2),
                            int(b"0" + ends[::-1], 2))
        return self._blocks

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.types)) - 1

    @cached_property
    def u_mask(self) -> int:
        return self.full_mask & ~((1 << self.u_start) - 1)


class Parents(Sequence):
    """The parents of a level's nodes, None from ``u_start`` on and at the
    root, derived from the level's block ends.  Indexing looks one node
    up; a slice is a list of that span only, so reading the parents chunk
    by chunk never holds a list of the whole level."""

    __slots__ = ("_level",)

    def __init__(self, level: Level):
        self._level = level

    def __len__(self) -> int:
        return len(self._level.types)

    def __getitem__(self, i):
        span = range(len(self))[i]
        if not isinstance(i, slice):
            return self._level.parent_of(span)
        if span.step != 1:
            return list(map(self._level.parent_of, span))
        return list(self._span(span.start, span.stop))

    def __iter__(self) -> Iterator[Optional[int]]:
        return self._span(0, len(self))

    def _span(self, lo: int, hi: int) -> Iterator[Optional[int]]:
        """Parents of nodes lo..hi-1: the first attached node's parent, one
        more after every child block that ends inside the span, then
        None."""
        lvl = self._level
        ends = lvl.block_end
        top = min(hi, lvl.u_start) if ends else lo
        attached: Iterable[int] = ()
        if lo < top:
            p, q = bisect_right(ends, lo), bisect_right(ends, top - 1)
            # flag k is set iff a child block ends just before node lo+1+k
            flags = bytearray(top - lo - 1)
            for e in ends[p:q]:
                flags[e - lo - 1] = 1
            attached = accumulate(flags, initial=p)
        return chain(attached, repeat(None, hi - max(lo, top)))


class SkeletonNode(Frozen):
    """Read-only view of one skeleton node."""

    __slots__ = _compare = ("level", "index", "type_id", "type_ix", "parent",
                            "u_flag")

    def __init__(self, level: int, index: int, type_id: str, type_ix: int,
                 parent: Optional[int], u_flag: bool):
        self._fill(level, index, type_id, type_ix, parent, u_flag)


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

    def type_cap(self, n: int) -> int:
        """Number of types available at level n: the enumeration indices
        1..type_cap(n) are the types that may occur on levels 1..n (n, or
        fewer once a finite poset runs out of elements)."""
        if self.poset.finite:
            return min(n, self.poset.size)
        return n

    def extend_to(self, depth: int) -> "SkeletonTree":
        while self.depth < depth:
            self._build_next()
        return self

    def _build_next(self) -> None:
        """Append level n+1.  A node's child block depends only on its type,
        so one block is made per distinct type and laid out by type.  The
        new level's size and type counts follow from the previous level's
        counts and the blocks, so the size bound is checked before any pass
        over the previous level's nodes and before anything is written to
        the tree."""
        n = self.depth + 1
        cap = self.type_cap(n)
        iso, buckets = self.config.masks(cap)
        if n == 1:
            self.levels.append(Level(1, array("I", [1]), u_start=1))
            return
        prev = self.levels[-1]
        below_cap = (1 << cap + 1) - 2
        blocks: dict[int, array] = {}
        reach = 0
        for t in prev.counts:
            up = self.poset.up_mask(t)
            reach |= up
            blocks[t] = block = array("I", [t] * (1 if iso >> t & 1 else 2))
            block.extend(bits(up & below_cap & ~(1 << t)))
        unattached = []
        if cap >= n and (buckets["unbounded"] >> n & 1
                         or not reach >> n & 1):
            unattached.append(n)
        unattached += bits(buckets["noncompact"]
                           & (1 << self.type_cap(n - 1) + 1) - 1)
        u_start = sum(c * len(blocks[t]) for t, c in prev.counts.items())
        size = u_start + len(unattached)
        bound = self.config.max_level_size
        if size > bound:
            raise BuildError(
                f"level {n} would hold {size} nodes, over the bound {bound}",
                level=n, would_hold=size, bound=bound)
        counts: dict[int, int] = {}
        for t, c in prev.counts.items():
            for q in blocks[t]:
                counts[q] = counts.get(q, 0) + c
        for q in unattached:
            counts[q] = counts.get(q, 0) + 1
        block_of = blocks.__getitem__
        types = array("I")
        # appended block by block: a join over all blocks would hold a
        # buffer per node at once
        deque(map(types.extend, map(block_of, prev.types)), 0)
        types.extend(unattached)
        self.levels.append(Level(n, types, u_start, array(
            "I", accumulate(map(len, map(block_of, prev.types)))), counts))

    # ------------------------------------------------------------------

    def level(self, n: int) -> Level:
        if 0 < n <= len(self.levels):
            return self.levels[n - 1]
        raise BuildError(f"level {n} not built (depth {self.depth})")

    def _checked(self, n: int, i: int) -> Level:
        lvl = self.level(n)
        if 0 <= i < len(lvl):
            return lvl
        raise IndexError(f"level {n} has no node {i}, only 0..{len(lvl) - 1}")

    def node(self, n: int, i: int) -> SkeletonNode:
        """Node (n, i) as one record; it stays while tests pin SkeletonNode."""
        lvl = self._checked(n, i)
        t = lvl.types[i]
        return SkeletonNode(n, i, self.poset.id_at(t), t, lvl.parent_of(i),
                            i >= lvl.u_start)

    def children_span(self, n: int, i: int) -> tuple[int, int]:
        """Child index range of node (n, i) within level n+1."""
        self._checked(n, i)
        if n >= len(self.levels):
            raise BuildError(f"level {n + 1} not built")
        kids = self.levels[n]
        return kids.block_start(i), kids.block_end[i]

    def theta_image(self, n: int, mask: int) -> int:
        """Image of a level-n atom mask inside level n+1: the one-level
        ``lift_runs`` of its runs, as a mask.

        Unattached nodes of level n+1 never appear: the embedding of the
        level-n ring misses everything they generate.
        """
        self.level(n)                   # raises for n out of range
        if not mask:
            return 0
        return from_runs(self.lift_runs(n, list(runs(mask)), n + 1))

    def lift_runs(self, n: int, spans: list[tuple[int, int]],
                  k: int) -> list[tuple[int, int]]:
        """Where runs of atoms of level n lie on level k >= n.  Each
        nonempty run (a, b), atoms a..b-1, lifts to one run, since the child
        blocks of consecutive nodes are adjacent and a block starts where the
        one before it ends (``block_end`` of the level lifted to); so the
        list keeps its length and its order."""
        if k > len(self.levels):
            raise BuildError(f"level {k} not built (depth {self.depth})")
        for lvl in self.levels[n:k]:
            ends = lvl.block_end
            spans = [(ends[a - 1] if a else 0, ends[b - 1]) for a, b in spans]
        return spans

    # ------------------------------------------------------------------

    def to_dot(self, max_level: Optional[int] = None) -> str:
        top = min(self.depth, max_level or self.depth)
        lines = ["digraph skeleton {", "  rankdir=TB;"]
        for n in range(1, top + 1):
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


def build_levels(config: BuildConfig, depth: int) -> SkeletonTree:
    """Validate the configuration and build the skeleton."""
    problems = config.validate(depth)
    if problems:
        raise ConfigError("; ".join(problems))
    return SkeletonTree(config, depth)


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


def verify_structure(tree: SkeletonTree,
                     q_lower: Optional[Iterable[str]] = None) -> StructureReport:
    """Check the counting consequences of the build rules.

    Covers: every enumerated type appears on its level; isolated minimal
    types keep a single node per level; isolated types continue through one
    child, others through exactly two; noncompact types get one unattached
    node per later level and unbounded types one at their entry level; and,
    given a lower subset of bounded types, every node typed in it descends
    from the covering level of its foundation.

    Each level is read once as its spelling (``spell``; types are
    enumeration indices no larger than the depth, far below U+D800, so
    every one decodes), and every check is a count or a search over
    those strings with C-level ``str`` methods: no pass over a level
    costs more than its width, and none rebuilds a level to compare it
    with the tree.
    """
    rep = StructureReport()
    poset = tree.poset
    depth = tree.depth
    spelled = [""] + [spell(lvl.types) for lvl in tree.levels]

    for n in range(1, depth + 1):
        missing = [t for t in range(1, tree.type_cap(n) + 1)
                   if chr(t) not in spelled[n]]
        rep.add(f"types-present@{n}", not missing,
                f"missing {missing}" if missing else "")

    iso, buckets = tree.config.masks(tree.type_cap(depth))
    minimal, _ = poset.confirmed_minimal(tree.type_cap(depth))
    for t in bits(iso & poset.mask_of(minimal)):
        ok = True
        bad = ""
        for n in range(t, depth + 1):
            c = spelled[n].count(chr(t))
            if c != 1:
                ok, bad = False, f"level {n} holds {c} nodes of type ix {t}"
                break
        rep.add(f"isolated-single-line:{poset.id_at(t)}", ok, bad)

    for n in range(1, depth):
        own, kids = spelled[n], spelled[n + 1]
        want_of = {t: 1 if iso >> t & 1 else 2 for t in map(ord, set(own))}
        ends = tree.levels[n].block_end
        # node i's own character counted in its child block of level n+1,
        # a byte a node (a list sets a wide tree's peak memory); a count
        # past 255 fits no byte, and breaks the rule too
        try:
            ok = (bytes(map(kids.count, own, chain((0,), ends), ends))
                  == own.translate(want_of).encode("latin-1"))
        except ValueError:
            ok = False
        bad = ""
        if not ok:
            same = map(kids.count, own, chain((0,), ends), ends)
            i, k = next((i, k) for i, k in enumerate(same)
                        if k != want_of[ord(own[i])])
            t = ord(own[i])
            bad = (f"node {n}.{i} of type {poset.id_at(t)} has {k} "
                   f"continuation children, wanted {want_of[t]}")
        rep.add(f"continuation-children@{n}", ok, bad)

    noncompact, unbounded = buckets["noncompact"], buckets["unbounded"]
    for t in bits(noncompact | unbounded):
        if noncompact >> t & 1:
            ok = True
            bad = ""
            for n in range(max(2, t + 1), depth + 1):
                if spelled[n].find(chr(t), tree.level(n).u_start) < 0:
                    ok, bad = False, f"level {n} has no unattached node of type ix {t}"
                    break
            rep.add(f"noncompact-supply:{poset.id_at(t)}", ok, bad)
        elif 2 <= t <= depth:
            ok = spelled[t].find(chr(t), tree.level(t).u_start) >= 0
            rep.add(f"unbounded-entry:{poset.id_at(t)}", ok,
                    "" if ok else f"no unattached entry node at level {t}")

    if q_lower is not None:
        qset = frozenset(q_lower)
        res = poset.finite_foundation(qset, tree.type_cap(depth))
        if res.status != FOUND:
            rep.add("cover-foundation", False,
                    f"foundation search returned {res.status}")
        else:
            q_chars = {chr(poset.index(p)) for p in qset}
            n0 = max(poset.index(p) for p in res.foundation)
            ok = True
            bad = ""
            # nodes descending from level n0 fill a prefix of each level
            for n in range(n0, depth + 1):
                reach = tree.lift_runs(n0, [(0, len(tree.level(n0)))], n)[0][1]
                escaped = [i for i in map(spelled[n].find, q_chars,
                                          repeat(reach)) if i >= 0]
                if escaped:
                    i = min(escaped)
                    ok, bad = False, f"node {n}.{i} of covered type escapes level {n0}"
                    break
            rep.add("covered-types-descend", ok, bad)
    return rep
