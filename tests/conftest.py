"""Shared fixtures and brute-force oracles for the test suite."""
import contextlib
import io
import os
import random
from collections import Counter

import pytest

from stonetrim import (FOUND, ClosureElement, ClosureError, CompletedPoset,
                       CompletionElement, Poset, RNTrace, SymbolicSpace, cli,
                       token_name)
from stonetrim.backforth import (SIDES, DepthBudget, IsoError, MismatchFound,
                                 MismatchWitness, Pair, _facing,
                                 _fresh_counterpart, _grow)
from stonetrim.poset import _leq_rows, bits
from stonetrim.ring import RingElement, supertrim_split


def chain_ab_poset() -> Poset:
    return Poset.from_covers("chain", ["a", "b"], [("a", "b")])


def vee_poset() -> Poset:
    return Poset.from_covers("vee", ["a", "b", "c"], [("a", "b"), ("a", "c")])


def diamond_poset() -> Poset:
    return Poset.from_covers("diamond", ["a", "b", "c", "d"],
                             [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@pytest.fixture
def chain_ab():
    return chain_ab_poset()


@pytest.fixture
def vee():
    return vee_poset()


@pytest.fixture
def diamond():
    return diamond_poset()


def finite_from_order(name: str, elements, leq) -> Poset:
    """Finite poset from an order function on its ids, asked both ways
    about each pair; the order axioms are checked at construction."""
    return Poset(name, ids=list(elements), rows=_leq_rows(leq))


def descends_to(tree, n: int, i: int, target_level: int) -> bool:
    """Whether node (n, i) traces back through ``parent_of`` to a node of
    the target level; an unattached node on the way stops it."""
    while n > target_level:
        i = tree.level(n).parent_of(i)
        if i is None:
            return False
        n -= 1
    return True


def embed(c, p: str):
    """The base element of p in the completion c: the base elements come
    first, in enumeration order."""
    e = c.elements[c.poset.index(p) - 1]
    assert e.ref == p and not e.is_limit
    return e


def ring_key(x) -> tuple[int, int]:
    """A ring element's canonical (level, mask): two elements of one tree
    are the same clopen set exactly when their keys are equal."""
    return x.level, x.mask


def lt(poset: Poset, p: str, q: str) -> bool:
    """The strict order, asked of ``Poset.leq``."""
    return p != q and poset.leq(p, q)


def random_poset(rng: random.Random, max_size: int = 6,
                 name: str = "random") -> Poset:
    """Random finite poset: strict pairs sampled over a fixed topological order."""
    n = rng.randint(1, max_size)
    ids = [f"e{k}" for k in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return Poset.from_covers(name, ids, pairs)


def listed_in(bucket: str, ids) -> dict:
    """BuildConfig keywords that list ids in bucket; none for "auto", which
    leaves every id to P_Delta."""
    return {} if bucket == "auto" else {bucket: frozenset(ids)}


def all_chains(poset: Poset) -> list[tuple[str, ...]]:
    """Every nonempty chain of a finite poset, listed bottom to top."""
    ids = poset.prefix(poset.size)
    # sort by how much sits strictly below; a chain read upward is then a
    # subsequence of this listing, so each chain is produced exactly once
    topo = sorted(ids, key=lambda p: (sum(lt(poset, q, p) for q in ids),
                                      poset.index(p)))
    out: list[tuple[str, ...]] = []

    def grow(chain: list[str], rest: list[str]) -> None:
        out.append(tuple(chain))
        for k, y in enumerate(rest):
            if lt(poset, chain[-1], y):
                grow(chain + [y], rest[k + 1:])

    for k, x in enumerate(topo):
        grow([x], topo[k + 1:])
    return out


def two_chains_poset() -> Poset:
    """Two disjoint ascending chains x1 < x2 < ... and y1 < y2 < ..."""
    def gen(i: int) -> str:
        k = (i + 1) // 2
        return f"x{k}" if i % 2 else f"y{k}"

    def leq(a: str, b: str) -> bool:
        return a[0] == b[0] and int(a[1:]) <= int(b[1:])

    return Poset.generated("two-chains", gen, leq)


def children(tree, n: int, i: int) -> list[tuple[int, str]]:
    """The children of node (n, i) as (index on level n+1, type id) pairs,
    in index order, read off the level's types column."""
    start, end = tree.children_span(n, i)
    types = tree.level(n + 1).types
    return [(j, tree.poset.id_at(types[j])) for j in range(start, end)]


def run_main(argv: list[str], closed_stdout: bool = False):
    """Exit code of ``cli.main(argv)`` run in process, or the raised
    exception's type and message, then its stdout and stderr.  With
    closed_stdout the run sees ``sys.stdout`` set to None, as under a
    closed fd 1.  argparse wraps usage and help to ``COLUMNS``, so the run
    reads the width a stdout that is no terminal gets."""
    out, err = (None if closed_stdout else io.StringIO()), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:
        code = f"{type(e).__name__}: {e}"
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue() if out else "", err.getvalue()


# ----------------------------------------------------------------------
# Run readers and the one-level lift as they were first written.  The
# library reads every mask's runs with ``poset.runs``, which spells a mask
# from its lowest set bit, and lifts them with ``SkeletonTree.lift_runs``;
# the tests compare it with these.

def ref_runs(mask: int):
    """Maximal runs of set bits as (start, end) pairs, spelling the mask
    from bit 0."""
    digits = bin(mask)[:1:-1] + "0"
    start = digits.find("1")
    while start >= 0:
        end = digits.find("0", start)
        yield start, end
        start = digits.find("1", end)


def ref_spans_of(mask: int) -> list[tuple[int, int]]:
    """The same runs by carry arithmetic: adding the lowest set bit carries
    through the lowest run and leaves set the bit where it ends."""
    out = []
    while mask:
        low = mask & -mask
        carried = mask + low
        past = carried & -carried
        out.append((low.bit_length() - 1, past.bit_length() - 1))
        mask &= carried
    return out


def ref_theta_image(tree, n: int, mask: int) -> int:
    """``theta_image`` with its own lift: a run of level n maps to the run
    from the start of its first node's child block to the end of its last
    node's, since the blocks of consecutive nodes are adjacent."""
    bounds = tree.level(n + 1).bounds
    out = 0
    for a, b in ref_runs(mask):
        out |= (1 << bounds[b]) - (1 << bounds[a])
    return out


def ref_persist_rows(tree, n: int) -> list[tuple[int, int, int]]:
    """The types-persist table as first written: each node of level n
    lifted alone with ``theta_image(n, 1 << i)`` and its block typed
    through level n+1's ``type_masks``; one row per distinct (own type bit,
    child types), with the mask of the nodes that have it."""
    kid_masks = tree.levels[n].type_masks()
    rows: dict[tuple[int, int], int] = {}
    for t, atoms in tree.levels[n - 1].type_masks().items():
        for i in bits(atoms):
            block = tree.theta_image(n, 1 << i)
            kids = 0
            for kid, kid_atoms in kid_masks.items():
                if kid_atoms & block:
                    kids |= 1 << kid
            rows[1 << t, kids] = rows.get((1 << t, kids), 0) | 1 << i
    return [(own, kids, nodes) for (own, kids), nodes in rows.items()]


# ----------------------------------------------------------------------
# Pairwise references: the order queries as they were first written, asking
# the order id by id.  The library answers the same questions from its
# up-set rows; the tests compare the two.

def ref_down_closure(poset: Poset, members, horizon: int) -> frozenset:
    ms = list(members)
    for p in ms:
        poset.index(p)
    return frozenset(q for q in poset.prefix(horizon)
                     if any(poset.leq(q, p) for p in ms))


def ref_up_closure(poset: Poset, members, horizon: int) -> frozenset:
    ms = list(members)
    for p in ms:
        poset.index(p)
    return frozenset(q for q in poset.prefix(horizon)
                     if any(poset.leq(p, q) for p in ms))


def ref_minimal_of(poset: Poset, members) -> frozenset:
    ms = list(members)
    return frozenset(p for p in ms if not any(lt(poset, q, p) for q in ms))


def ref_maximal_of(poset: Poset, members) -> frozenset:
    ms = list(members)
    return frozenset(p for p in ms if not any(lt(poset, p, q) for q in ms))


def ref_is_lower(poset: Poset, members, horizon: int) -> bool:
    ms = set(members)
    return ref_down_closure(poset, ms, horizon) <= ms


def ref_is_upper(poset: Poset, members, horizon: int) -> bool:
    ms = set(members)
    return ref_up_closure(poset, ms, horizon) <= ms


def ref_down_mask(poset: Poset, members, horizon: int) -> int:
    """``ref_down_closure`` as a mask over enumeration indices."""
    return poset.mask_of(ref_down_closure(poset, members, horizon))


def ref_p_delta(poset: Poset, horizon: int) -> int:
    """P_Delta as the mask of the prefix elements whose singleton
    ``finite_foundation`` finds a foundation for, one element at a time; on
    a finite poset each foundation is checked against both conditions, id by
    id."""
    out = 0
    for i, q in enumerate(poset.prefix(horizon), 1):
        res = poset.finite_foundation(1 << i, horizon)
        if res.status != FOUND:
            continue
        if poset.finite:
            found = poset.ids_of(res.foundation)
            assert all(any(poset.leq(f, r) for f in found)
                       for r in ref_down_closure(poset, [q], poset.size))
            assert all(poset.leq(f, q) for f in found)
        out |= 1 << i
    return out


def ref_bucket_of(config, p: str, n: int) -> str:
    """The bucket of id p in a config resolved at n, id by id: the first
    bucket that lists p, else bounded when p's singleton has a confirmed
    finite foundation at ``config.scope(n)`` and noncompact when not."""
    for bucket in ("bounded", "unbounded", "noncompact"):
        if p in getattr(config, bucket):
            return bucket
    poset = config.poset
    res = poset.finite_foundation(1 << poset.index(p), config.scope(n))
    return "bounded" if res.status == FOUND else "noncompact"


def ref_longest_chain_from(poset: Poset, pre: list) -> dict:
    memo: dict = {}

    def lc(x):
        if x not in memo:
            memo[x] = 1
            memo[x] = 1 + max((lc(y) for y in pre if lt(poset, x, y)),
                              default=0)
        return memo[x]

    for p in pre:
        lc(p)
    return memo


def ref_find_chain(poset: Poset, pre: list, length: int):
    memo = ref_longest_chain_from(poset, pre)

    def dfs(path):
        if len(path) == length:
            return tuple(path)
        for y in pre:
            if lt(poset, path[-1], y) and memo[y] >= length - len(path):
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


def ref_check_acc(poset: Poset, horizon: int, bound: int):
    """(status, witness, note) of ``Poset.check_acc``."""
    if poset.finite:
        return "holds", (), "finite poset"
    pre = poset.prefix(horizon)
    chain = ref_find_chain(poset, pre, bound + 1)
    a = poset.analytics
    if a.acc is True:
        note = a.acc_note or "every ascending chain in the prefix terminates"
        if chain:
            longest = max(ref_longest_chain_from(poset, pre).values())
            note += f"; longest prefix chain has {longest} elements"
        return "holds-on-prefix", (), note
    if chain:
        return ("refuted", chain,
                f"strictly increasing chain longer than bound {bound}")
    return ("holds-on-prefix", (),
            f"no chain longer than {bound} within the prefix")


def ref_maximal_chains(poset: Poset, members: list) -> list:
    out = []

    def extend(chain, rest):
        ups = [y for y in rest if lt(poset, chain[-1], y)]
        if not ups:
            out.append(tuple(chain))
            return
        for y in ups:
            if not any(lt(poset, z, y) for z in ups):
                extend(chain + [y], ups)

    for x in members:
        if not any(lt(poset, y, x) for y in members):
            extend([x], members)
    return out


def ref_first_chain(chains: list, k: int, top=None):
    """The first of chains, listed depth first, with at least k members (and
    ending at top, if one is given), or None."""
    return next((c for c in chains
                 if len(c) >= k and top in (None, c[-1])), None)


def ref_is_chain_unique_over(poset: Poset, members, horizon: int,
                             min_chain: int = 3):
    """(status, witness, note) of ``Poset.is_chain_unique_over``."""
    qset = frozenset(members)
    for p in qset:
        poset.index(p)
    if poset.finite:
        return "holds", (), "ascending sequences stabilize at their suprema"
    pre = poset.prefix(horizon)
    qpre = [x for x in pre if x in qset]
    for s in pre:
        below = [x for x in qpre if lt(poset, x, s)]
        if len(below) < min_chain:
            continue
        for chain in ref_maximal_chains(poset, below):
            if len(chain) < min_chain:
                continue
            ubs = [u for u in pre if all(lt(poset, c, u) for c in chain)]
            if s not in ubs or not all(poset.leq(s, u) for u in ubs):
                continue
            for r in below:
                if not any(poset.leq(r, c) for c in chain):
                    return ("refuted", chain + (s, r),
                            f"sup candidate {s!r} has {r!r} below it "
                            f"but below no chain member")
    return ("holds-on-prefix", (),
            f"no violating chain of length >= {min_chain} at the horizon")


def ref_carrier_leq(x, y) -> bool:
    """The order on a completion's carrier: descriptor inclusion, except
    that tokens never sit below bases.  Base-base inclusion is the poset's
    order; a token's descriptor is its chain top's down-set, so a base
    sits below a token exactly when the token's generating chain dominates
    it."""
    return (not (x.is_limit and not y.is_limit)
            and not x.descriptor & ~y.descriptor)


def ref_completion_verify(c, leq=ref_carrier_leq) -> list[str]:
    """The bounded checks of a chain completion over every pair and triple
    of carrier elements, ordered by leq: order axioms on the carrier,
    unique suprema for token-generating chains, and no base element below
    a token but below no member of its chain."""
    problems = []
    els = c.elements
    for x in els:
        if not leq(x, x):
            problems.append(f"not reflexive at {x.ref}")
    for x in els:
        for y in els:
            if x is not y and leq(x, y) and leq(y, x):
                problems.append(f"antisymmetry fails on {x.ref}, {y.ref}")
            for z in els:
                if leq(x, y) and leq(y, z) and not leq(x, z):
                    problems.append(
                        f"transitivity fails on {x.ref}, {y.ref}, {z.ref}")
    by_ref = {e.ref: e for e in els}
    for tok in c.tokens():
        below = c.poset.ids_of(tok.descriptor)
        ubs = [u for u in els
               if (u.is_limit or u.ref not in below)
               and all(leq(by_ref[d], u) for d in below if d in by_ref)]
        least = [u for u in ubs if all(leq(u, v) for v in ubs)]
        if len(least) != 1 or least[0] is not tok:
            problems.append(
                f"token {tok.ref} is not the unique sup of its chain")
        for r in els:
            if not r.is_limit and leq(r, tok) and r is not tok:
                if r.ref not in below:
                    problems.append(f"{r.ref} below token {tok.ref} but "
                                    f"below no chain member")
    return problems


def ref_complete_over(poset: Poset, members, horizon: int):
    """``complete_over`` by enumerating every maximal chain of the subset
    (``ref_maximal_chains`` over its members in index order) and keeping
    one token per distinct chain closure; descriptors are the down-sets
    ``ref_down_mask`` asks of the order id by id."""
    pre, members = poset.prefix(horizon), set(members)
    sub = [p for p in pre if p in members]
    els = [CompletionElement("base", p, ref_down_mask(poset, [p], horizon))
           for p in pre]
    if poset.finite:
        return CompletedPoset(poset, horizon, els)

    confirmed_max = frozenset()
    if poset.analytics.maximal is not None:
        confirmed_max = poset.ids_of(poset.analytics.maximal(poset, horizon))

    seen = {}
    for chain in ref_maximal_chains(poset, sub):
        top = chain[-1]
        if len(chain) < 2 or top in confirmed_max:
            continue
        if len(ref_up_closure(poset, [top], horizon)) > 1:
            continue
        desc = ref_down_closure(poset, chain, horizon)
        if desc in seen:
            continue
        display = ""
        if poset.analytics.limit_display is not None:
            display = poset.analytics.limit_display(
                tuple(map(poset.index, chain))) or ""
        seen[desc] = CompletionElement("limit", token_name(chain),
                                       poset.mask_of(desc), display)
    els.extend(seen[d] for d in sorted(seen, key=sorted))
    return CompletedPoset(poset, horizon, els)


def holds(x, p: str) -> bool:
    """Whether the closure-algebra element x holds the id p: p is among
    the ids of its mask, or x is cofinite and p is not."""
    return (p in x.ids) != (x.signed < 0)


def ref_closure_of(space, x, window: list) -> tuple[frozenset, bool]:
    """The down-closure of x on a symbolic space, id by id: the ids of the
    window below some member of x (``poset.leq``), and whether it holds
    every element past the window.  The window must hold all that x
    leaves out.  Past the window a ladder has infinitely many elements,
    each below every non-bottom element before it (later elements lie
    below) and above the bottom (the bottom lies below everything)."""
    poset, bottom = space.poset, space.bottom
    inside = [p for p in window if holds(x, p)]
    below = {q for q in window if any(poset.leq(q, p) for p in inside)}
    ladder, cofinite = not space.finite, x.signed < 0
    if ladder and cofinite and bottom is not None:
        below.add(bottom)
    past = ladder and (cofinite or any(p != bottom for p in inside))
    return frozenset(below), past


def ref_trace_dot_edges(trace) -> list[str]:
    """The edge lines of ``render_trace_dot``, pair by pair of layers."""
    poset = trace.space.poset
    layers = [x.sole_id() for x in trace.b]
    bit = {p: 1 << poset.index(p) for p in layers if p is not None}
    up = {p: poset.up_mask(poset.index(p)) for p in bit}
    edges = []
    for a in bit:
        below = sum(bit[c] for c in bit if c != a and up[c] & bit[a])
        for b in bit:
            if below & bit[b] and up[b] & below == bit[b]:
                edges.append(f'  "{a}" -> "{b}";')
    return edges


def ref_rieger_nishimura_run(space, a, max_n: int = 30):
    """``rieger_nishimura_run`` element by element: every set operation
    of the peeling and of settling A_inf builds a ``ClosureElement``."""
    if not space.is_open(a):
        raise ClosureError("the generator must be an open (up-closed) set")
    w = space.whole()
    u, v, b = [a], [space.empty()], [a]
    for n in range(1, max_n + 1):
        u.append(w.intersect(space.closure_of(b[n - 1]).complement()))
        v.append(u[n - 1].union(v[n - 1]))
        b.append(u[n].intersect(v[n - 1].complement()))
        if not b[n] and v[n] == w:
            break
    t = RNTrace(space, u, v, b)
    rest = w
    for x in b:
        rest = rest.intersect(x.complement())
    if len(b) > 1 and not b[-1] and v[-1] == w:
        t.a_inf, t.a_inf_exact = rest, True
        return t
    tail = [x._single() for x in b[-3:]]
    marching = (not space.finite and len(tail) == 3 and 0 not in tail
                and not (tail[0] | tail[1] | tail[2]) & space._bot
                and tail[1:] == [tail[0] << 1, tail[0] << 2])
    if marching:
        t.a_inf = ClosureElement(space, space._bot).intersect(rest)
        t.note = (f"singleton layers march up the ladder; tail projected "
                  f"from step {t.n_ran}")
    else:
        t.note = "cut off before the layer pattern settled"
    return t


def ref_check_identities(trace) -> list[str]:
    """``check_identities`` element by element, comparing elements."""
    sp = trace.space
    w = sp.whole()
    u, v, b = trace.u, trace.v, trace.b
    last = trace.n_ran
    closed = [sp.closure_of(b[n]) for n in range(last)]
    problems = []
    for n in range(1, last + 1):
        if u[n] != w.intersect(closed[n - 1].complement()):
            problems.append(f"U_{n} is not the complement of the closed "
                            f"layer below")
        if v[n] != u[n - 1].union(v[n - 1]):
            problems.append(f"V_{n} does not accumulate U_{n - 1}")
        if b[n] != u[n].intersect(v[n - 1].complement()):
            problems.append(f"B_{n} is not the new part of U_{n}")
    for n in range(0, last):
        if b[n] != v[n + 1].intersect(v[n].complement()):
            problems.append(f"B_{n} != V_{n + 1} - V_{n}")
        if closed[n] != w.intersect(u[n + 1].complement()):
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


def ref_e_of_p(poset: Poset, horizon: int = 12) -> dict:
    """``e_of_p`` element by element, from ``up_of`` and ``down_of``."""
    space = SymbolicSpace(poset, horizon)
    rungs, w = space._rungs, space.whole()
    failures, before = [], 0
    for k, (i, j) in enumerate(zip(rungs, rungs[1:])):
        got = (w.intersect(space.up_of(i).complement())
               .intersect(space.down_of(i).complement())
               .intersect(ClosureElement(space, before).complement()))
        if got != ClosureElement(space, 1 << j):
            failures.append({"k": k, "got": got.serialize()})
        before |= 1 << i
    return {"family": poset.name, "horizon": horizon,
            "checked": max(len(rungs) - 1, 0), "holds": not failures,
            "failures": failures}


def ref_theta_break(left: Poset, right: Poset, image: dict, span: int):
    """First pair of the left prefix whose order the bijection breaks, as
    ``_theta_over`` reports it pair by pair, or None."""
    a = left.prefix(span)
    for p in a:
        for q in a:
            if left.leq(p, q) != right.leq(image[p], image[q]):
                return p, q
    return None


# ----------------------------------------------------------------------
# The matcher's step and coverage test as they were first written, visiting
# every pair with masks.  The library finds the parts a step meets through
# a part index; the tests drive both and compare.

def ref_match_split(state, dst_side: int, dst_part, gens: list,
                    max_depth: int) -> list:
    """``_match_split`` spreading the unclaimed atoms one atom at a time:
    each atom reads its type and goes to the next of the pieces that
    tolerate that type, counted per type."""
    tree = state.trees[dst_side]
    iso = state.iso[dst_side]
    poset = tree.poset
    want = Counter(gens)
    level = dst_part.level
    while True:
        if level > tree.depth:
            if level > max_depth:
                raise DepthBudget(f"{SIDES[dst_side]} side needs level "
                                  f"{level}")
            _grow(tree, level)
        mask = dst_part.mask_at(level)
        masks = tree.level(level).type_masks()
        have = {h: (mask & masks.get(h, 0)).bit_count() for h in want}
        short = [h for h, n in want.items() if have[h] < n]
        if not short:
            break
        realized = [t for t, atoms in masks.items() if atoms & mask]
        for h in short:
            growable = any(t != h and poset.leq_ix(t, h) for t in realized)
            if iso >> h & 1 and not growable:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], poset.id_at(h), want[h], have[h],
                    "isolated type cannot multiply inside a part typed "
                    "exactly by it"))
            if not growable and not have[h]:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], poset.id_at(h), want[h], 0,
                    "needed type is not realized in the counterpart part"))
        level += 1

    taken = {h: bits(mask & masks[h]) for h in want}
    piece_masks = [1 << next(taken[h]) for h in gens]
    claimed = sum(piece_masks)
    eligible_of: dict = {}
    fills: dict = {}
    types = tree.level(level).types
    for i in bits(mask & ~claimed):
        s = types[i]
        eligible = eligible_of.get(s)
        if eligible is None:
            eligible = eligible_of[s] = [
                k for k, g in enumerate(gens)
                if poset.leq_ix(g, s) and not (g == s and iso >> g & 1)]
        if not eligible:
            raise IsoError(f"atom of type {poset.id_at(s)!r} fits no piece; "
                           f"pairing invariant broken")
        turn = fills.get(s, 0)
        piece_masks[eligible[turn % len(eligible)]] |= 1 << i
        fills[s] = turn + 1
    return [RingElement(tree, level, pm) for pm in piece_masks]


def ref_extend_iso(state, side: int, element, max_depth: int,
                   transcript=None) -> None:
    """``extend_iso`` as a scan: every pair is lifted to the element's level
    or its own and compared with the element as masks, and the pairs are
    rebuilt as a new list."""
    if not element:
        return
    dst_side = 1 - side
    theta = state.theta
    iso_src = state.iso[side]
    tree = state.trees[side]
    lifted = {element.level: element.mask}

    def element_at(level: int) -> int:
        for k in range(max(lifted), level):
            lifted[k + 1] = tree.theta_image(k, lifted[k])
        return lifted[level]

    new_pairs = []
    for pair in state.pairs:
        src = pair.parts[side]
        n = max(element.level, src.level)
        s = src.mask_at(n)
        inter = element_at(n) & s
        if not inter or inter == s:
            new_pairs.append(pair)
            continue
        halves = [RingElement(tree, n, inter),
                  RingElement(tree, n, s & ~inter)]
        src_pieces = []
        for half in halves:
            src_pieces.extend(supertrim_split(half, iso_src))
        needs = []
        for g, _ in src_pieces:
            h = theta.image(side, g)
            if h is None:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], tree.poset.id_at(g),
                    sum(1 for gg, _ in src_pieces if gg == g), 0,
                    "type has no counterpart in the other alphabet"))
            needs.append(h)
        dst_pieces = ref_match_split(state, dst_side, pair.parts[dst_side],
                                     needs, max_depth)
        for h, (g, src_piece), dst_piece in zip(needs, src_pieces,
                                                dst_pieces):
            new_pairs.append(Pair(_facing(side, src_piece, dst_piece),
                                  _facing(side, g, h)))
        if transcript is not None:
            transcript.append({"action": "split", "side": side,
                               "pieces": len(src_pieces)})
    state.pairs = new_pairs

    held = state.held[side]
    n = max(element.level, held.level)
    rest = element_at(n) & ~held.mask_at(n)
    if rest:
        pieces = supertrim_split(RingElement(tree, n, rest), iso_src)
        for g, piece in pieces:
            h = theta.image(side, g)
            if h is None:
                raise MismatchFound(MismatchWitness(
                    SIDES[dst_side], tree.poset.id_at(g), 1, 0,
                    "type has no counterpart in the other alphabet"))
            mate = _fresh_counterpart(state, dst_side, h, max_depth)
            state.add_fresh(Pair(_facing(side, piece, mate),
                                 _facing(side, g, h)))
        if transcript is not None:
            transcript.append({"action": "fresh", "side": side,
                               "pieces": len(pieces)})


def ref_covered(state, schedule) -> bool:
    """``_covered`` by lifting every part to a level no part or scheduled
    atom lies below and testing it against each atom as masks; an atom is
    covered iff the parts inside it fill it.  Lifting keeps inclusion both
    ways, since every node has children."""
    for side, tree in enumerate(state.trees):
        parts = [pair.parts[side] for pair in state.pairs]
        atoms = [(n, i) for s, n, i in schedule if s == side]
        top = max([p.level for p in parts] + [n for n, _ in atoms],
                  default=1)
        lifted = [p.mask_at(top) for p in parts]
        for n, i in atoms:
            # the child blocks of consecutive nodes are adjacent, so an
            # atom lifts to one run of bits
            a, b = i, i + 1
            for k in range(n, top):
                kids = tree.level(k + 1)
                a, b = kids.bounds[a], kids.bounds[b]
            atom = (1 << b) - (1 << a)
            inside = 0
            for m in lifted:
                if not m & ~atom:
                    inside |= m
            if inside != atom:
                return False
    return True
