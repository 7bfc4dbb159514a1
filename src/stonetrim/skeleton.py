"""Level-by-level skeleton of a trim partition.

Level 1 is a single node typed by the first enumerated element.  Each later
level refines the previous one: a node of type t gets one child for every
enumerated type above t, except that the continuation type t itself appears
twice unless t is isolated.  Unattached nodes (u_flag) seed types that no
existing node can reach: one for the newly enumerated type when needed or
when it is marked unbounded, and one per already-enumerated noncompact type.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .poset import FOUND, Poset, PosetError, bits, runs

MAX_LEVEL_SIZE = 1 << 16


class ConfigError(ValueError):
    """A build configuration violates its hypotheses."""


class BuildError(RuntimeError):
    """Level growth exceeded the configured bound."""


BUCKETS = ("bounded", "unbounded", "noncompact")


@dataclass
class BuildConfig:
    """Poset plus the isolation and compactness data steering the build.

    bounded / unbounded / noncompact are explicit, disjoint element sets;
    anything unlisted falls into the default bucket.  The "auto" default
    sends elements with a confirmed finite foundation for their singleton to
    bounded and the rest to noncompact.
    """

    poset: Poset
    isolated: frozenset = frozenset()
    bounded: frozenset = frozenset()
    unbounded: frozenset = frozenset()
    noncompact: frozenset = frozenset()
    default_bucket: str = "auto"
    horizon: Optional[int] = None
    max_level_size: int = MAX_LEVEL_SIZE

    def __post_init__(self):
        self.isolated = frozenset(self.isolated)
        self.bounded = frozenset(self.bounded)
        self.unbounded = frozenset(self.unbounded)
        self.noncompact = frozenset(self.noncompact)
        if self.default_bucket not in BUCKETS + ("auto",):
            raise ConfigError(f"unknown default bucket {self.default_bucket!r}")
        self._bucket_cache: dict[str, str] = {}

    def scope(self, depth: int) -> int:
        """Enumeration reach used for validation and bucket resolution."""
        if self.poset.finite:
            return self.poset.size
        return max(self.horizon or 0, depth)

    def bucket_of(self, p: str, depth: int) -> str:
        hit = self._bucket_cache.get(p)
        if hit:
            return hit
        if p in self.bounded:
            b = "bounded"
        elif p in self.unbounded:
            b = "unbounded"
        elif p in self.noncompact:
            b = "noncompact"
        elif self.default_bucket != "auto":
            b = self.default_bucket
        else:
            res = self.poset.finite_foundation({p}, self.scope(depth))
            b = "bounded" if res.status == FOUND else "noncompact"
        self._bucket_cache[p] = b
        return b

    def validate(self, depth: int = 0) -> list[str]:
        """Check the existence hypotheses on the enumeration prefix.

        Named clauses: unknown-element, overlapping-buckets,
        isolated-minimal-noncompact, bounded-not-lower, bounded-outside-delta
        (and the same two for bounded+unbounded combined).
        """
        n = self.scope(depth) or 1
        pre = self.poset.prefix(n)
        preset = set(pre)
        problems = []
        for label, group in (("isolated", self.isolated),
                             ("bounded", self.bounded),
                             ("unbounded", self.unbounded),
                             ("noncompact", self.noncompact)):
            for p in group:
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

        minimal, _ = self.poset.confirmed_minimal(n)
        bucket = {p: self.bucket_of(p, depth) for p in pre}
        noncompact = {p for p in pre if bucket[p] == "noncompact"}
        bounded = {p for p in pre if bucket[p] == "bounded"}
        unbounded = {p for p in pre if bucket[p] == "unbounded"}

        bad = self.isolated & minimal & noncompact
        if bad:
            problems.append(f"isolated-minimal-noncompact: {sorted(bad)} are "
                            f"isolated, minimal and noncompact at once")
        delta, _ = self.poset.p_delta(n)
        for label, group in (("bounded", bounded),
                             ("bounded+unbounded", bounded | unbounded)):
            if not self.poset.is_lower(group, n):
                problems.append(f"{label}-not-lower: not a lower set on the prefix")
            stray = group - delta
            if stray:
                problems.append(f"{label}-outside-delta: {sorted(stray)} lack "
                                f"a confirmed finite foundation")
        # Per-element finiteness of {q in unbounded | q <= p} holds on any
        # prefix; infinite violations would need analytic evidence.
        return problems


@dataclass
class Level:
    """One level of the skeleton, stored column-wise."""

    number: int
    types: list[int]                       # 1-based poset enumeration index
    parent: list[Optional[int]]
    u_start: int                           # nodes from here on are unattached
    child_start: list[int] = field(default_factory=list)
    child_end: list[int] = field(default_factory=list)
    _masks: dict[int, int] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.types)

    def type_masks(self) -> dict[int, int]:
        """Atom mask of every type on the level, filled in one pass."""
        if not self._masks:
            rows: dict[int, bytearray] = {}
            for i, t in enumerate(reversed(self.types)):
                row = rows.get(t)
                if row is None:
                    row = rows[t] = bytearray(b"0" * len(self.types))
                row[i] = ord("1")
            self._masks.update((t, int(row, 2)) for t, row in rows.items())
        return self._masks

    def type_mask(self, type_ix: int) -> int:
        return self.type_masks().get(type_ix, 0)

    def present_types(self) -> list[int]:
        return sorted(set(self.types))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.types)) - 1

    @property
    def u_mask(self) -> int:
        return self.full_mask & ~((1 << self.u_start) - 1)


@dataclass(frozen=True)
class SkeletonNode:
    """Read-only view of one skeleton node."""

    level: int
    index: int
    type_id: str
    type_ix: int
    parent: Optional[int]
    u_flag: bool


class SkeletonTree:
    """The skeleton built to some depth; deterministically extendable."""

    def __init__(self, config: BuildConfig, depth: int):
        if depth < 1:
            raise BuildError("depth must be at least 1")
        self.config = config
        self.poset = config.poset
        self.levels: list[Level] = []
        self._iso_ix: set[int] = set()
        self._bucket_ix: dict[int, str] = {}
        self.extend_to(depth)

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.levels)

    def _cap(self, n: int) -> int:
        """Number of enumerated types available at level n."""
        if self.poset.finite:
            return min(n, self.poset.size)
        return n

    def _type_ix_sets(self, n: int) -> None:
        """Refresh id-based config sets as index sets up to the cap."""
        cap = self._cap(n)
        self.poset.ensure(cap)
        for ix in range(1, cap + 1):
            if ix not in self._bucket_ix:
                p = self.poset.id_at(ix)
                if p in self.config.isolated:
                    self._iso_ix.add(ix)
                self._bucket_ix[ix] = self.config.bucket_of(p, n)

    def extend_to(self, depth: int) -> "SkeletonTree":
        while self.depth < depth:
            self._build_next()
        return self

    def _build_next(self) -> None:
        """Append level n+1.  A node's child block depends only on its type,
        so one block is made per distinct type; the size bound is checked
        before anything is written."""
        n = self.depth + 1
        self._type_ix_sets(n)
        cap = self._cap(n)
        if n == 1:
            self.levels.append(Level(1, [1], [None], u_start=1))
            return
        prev = self.levels[-1]
        below_cap = (1 << cap + 1) - 2
        blocks: dict[int, list[int]] = {}
        reach = 0
        for t in set(prev.types):
            up = self.poset.up_mask(t)
            reach |= up
            blocks[t] = ([t] * (1 if t in self._iso_ix else 2)
                         + list(bits(up & below_cap & ~(1 << t))))
        unattached = []
        if cap >= n and (self._bucket_ix.get(n) == "unbounded"
                         or not reach >> n & 1):
            unattached.append(n)
        unattached += [q for q in range(1, self._cap(n - 1) + 1)
                       if self._bucket_ix.get(q) == "noncompact"]
        u_start = sum(len(blocks[t]) for t in prev.types)
        size = u_start + len(unattached)
        if size > self.config.max_level_size:
            raise BuildError(
                f"level {n} would hold {size} nodes, over the bound "
                f"{self.config.max_level_size}")
        types: list[int] = []
        parents: list[Optional[int]] = []
        starts, ends = [], []
        for i, t in enumerate(prev.types):
            starts.append(len(types))
            types += blocks[t]
            parents += [i] * len(blocks[t])
            ends.append(len(types))
        types += unattached
        parents += [None] * len(unattached)
        prev.child_start, prev.child_end = starts, ends
        self.levels.append(Level(n, types, parents, u_start=u_start))

    # ------------------------------------------------------------------

    def level(self, n: int) -> Level:
        if not 1 <= n <= self.depth:
            raise BuildError(f"level {n} not built (depth {self.depth})")
        return self.levels[n - 1]

    def node(self, n: int, i: int) -> SkeletonNode:
        lvl = self.level(n)
        t = lvl.types[i]
        return SkeletonNode(n, i, self.poset.id_at(t), t, lvl.parent[i],
                            i >= lvl.u_start)

    def nodes(self, n: int) -> list[SkeletonNode]:
        return [self.node(n, i) for i in range(len(self.level(n)))]

    def children_span(self, n: int, i: int) -> tuple[int, int]:
        """Child index range of node (n, i) within level n+1."""
        lvl = self.level(n)
        if not lvl.child_start:
            raise BuildError(f"level {n + 1} not built")
        return lvl.child_start[i], lvl.child_end[i]

    def children(self, n: int, i: int) -> list[SkeletonNode]:
        s, e = self.children_span(n, i)
        return [self.node(n + 1, j) for j in range(s, e)]

    def theta_image(self, n: int, mask: int) -> int:
        """Image of a level-n atom mask inside level n+1.

        Unattached nodes of level n+1 never appear: the embedding of the
        level-n ring misses everything they generate.
        """
        out = 0
        for a, b in runs(mask):
            # the child blocks of consecutive nodes are adjacent
            s, _ = self.children_span(n, a)
            _, e = self.children_span(n, b - 1)
            out |= (1 << e) - (1 << s)
        return out

    def isolated_ix(self) -> frozenset:
        return frozenset(self._iso_ix)

    def bucket_ix(self, ix: int) -> str:
        return self._bucket_ix[ix]

    # ------------------------------------------------------------------

    def descends_to(self, n: int, i: int, target_level: int) -> bool:
        """Can (n, i) be traced back to a node at the target level?"""
        lvl, ix = n, i
        while lvl > target_level:
            p = self.level(lvl).parent[ix]
            if p is None:
                return False
            lvl, ix = lvl - 1, p
        return True

    def to_json(self) -> dict:
        return {
            "poset": self.poset.name,
            "depth": self.depth,
            "levels": [
                [{"t": self.poset.id_at(t), "parent": lvl.parent[i],
                  "u": i >= lvl.u_start}
                 for i, t in enumerate(lvl.types)]
                for lvl in self.levels
            ],
        }

    def to_dot(self, max_level: Optional[int] = None) -> str:
        top = min(self.depth, max_level or self.depth)
        lines = ["digraph skeleton {", "  rankdir=TB;"]
        for n in range(1, top + 1):
            lvl = self.level(n)
            for i, t in enumerate(lvl.types):
                name = f'"{n}.{i}"'
                label = f"{n}.{i}:{self.poset.id_at(t)}"
                style = ', style=dashed' if i >= lvl.u_start else ""
                lines.append(f'  {name} [label="{label}"{style}];')
                if lvl.parent[i] is not None:
                    lines.append(f'  "{n - 1}.{lvl.parent[i]}" -> {name};')
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

@dataclass
class StructureReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(n, d) for n, ok, d in self.checks if not ok]

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
    """
    rep = StructureReport()
    poset = tree.poset
    depth = tree.depth

    for n in range(1, depth + 1):
        lvl = tree.level(n)
        want = set(range(1, tree._cap(n) + 1))
        have = set(lvl.types)
        rep.add(f"types-present@{n}", want <= have,
                f"missing {sorted(want - have)}" if not want <= have else "")

    iso = tree.isolated_ix()
    minimal, _ = poset.confirmed_minimal(tree._cap(depth))
    min_ix = {poset.index(p) for p in minimal}
    for t in iso:
        if t in min_ix:
            ok = True
            bad = ""
            for n in range(t, depth + 1):
                c = bin(tree.level(n).type_mask(t)).count("1")
                if c != 1:
                    ok, bad = False, f"level {n} holds {c} nodes of type ix {t}"
                    break
            rep.add(f"isolated-single-line:{poset.id_at(t)}", ok, bad)

    for n in range(1, depth):
        lvl = tree.level(n)
        nxt = tree.level(n + 1)
        ok = True
        bad = ""
        for i, t in enumerate(lvl.types):
            s, e = tree.children_span(n, i)
            same = sum(1 for j in range(s, e) if nxt.types[j] == t)
            want = 1 if t in iso else 2
            if same != want:
                ok = False
                bad = (f"node {n}.{i} of type {poset.id_at(t)} has {same} "
                       f"continuation children, wanted {want}")
                break
        rep.add(f"continuation-children@{n}", ok, bad)

    buckets = {ix: tree.bucket_ix(ix) for ix in range(1, tree._cap(depth) + 1)}
    for t, b in sorted(buckets.items()):
        if b == "noncompact":
            ok = True
            bad = ""
            for n in range(max(2, t + 1), depth + 1):
                lvl = tree.level(n)
                c = sum(1 for i in range(lvl.u_start, len(lvl))
                        if lvl.types[i] == t)
                if c < 1:
                    ok, bad = False, f"level {n} has no unattached node of type ix {t}"
                    break
            rep.add(f"noncompact-supply:{poset.id_at(t)}", ok, bad)
        elif b == "unbounded" and 2 <= t <= depth:
            lvl = tree.level(t)
            c = sum(1 for i in range(lvl.u_start, len(lvl)) if lvl.types[i] == t)
            rep.add(f"unbounded-entry:{poset.id_at(t)}", c >= 1,
                    "" if c >= 1 else f"no unattached entry node at level {t}")

    if q_lower is not None:
        qset = frozenset(q_lower)
        res = poset.finite_foundation(qset, tree._cap(depth))
        if res.status != FOUND:
            rep.add("cover-foundation", False,
                    f"foundation search returned {res.status}")
        else:
            q_ix = {poset.index(p) for p in qset}
            n0 = max(poset.index(p) for p in res.foundation)
            ok = True
            bad = ""
            for n in range(n0, depth + 1):
                lvl = tree.level(n)
                for i, t in enumerate(lvl.types):
                    if t in q_ix and not tree.descends_to(n, i, n0):
                        ok = False
                        bad = f"node {n}.{i} of covered type escapes level {n0}"
                        break
                if not ok:
                    break
            rep.add("covered-types-descend", ok, bad)
    return rep
