"""Every order query read off the up-set rows against its pairwise reference.

The references in ``conftest`` ask the order id by id, as the queries did
before they read the rows.  Each comparison runs on a random finite poset
and on the same order grown one element at a time as a generated poset, at
every horizon.
"""
import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (random_poset, ref_check_acc, ref_completion_covers,
                      ref_complete_over, ref_completion_verify,
                      ref_down_closure, ref_first_chain,
                      ref_is_chain_unique_over,
                      ref_is_lower, ref_is_upper, ref_maximal_chains,
                      ref_maximal_of, ref_minimal_of, ref_theta_break,
                      ref_trace_dot_edges, ref_up_closure, two_chains_poset)
from stonetrim import (FOUND, INCONCLUSIVE, CompletedPoset,
                       CompletionElement, Poset, PosetError, SymbolicSpace,
                       TypeSet, complete_finite, complete_over, family,
                       render_trace_dot, rieger_nishimura_run)
from stonetrim.backforth import IsoError, _check_theta
from test_completion import weave_poset


def both_sides(rng: random.Random, max_size: int = 8):
    """A random finite poset, enumerated along a linear extension, and the
    same order as a generated poset enumerated in a shuffled order."""
    order = random_poset(rng, max_size=max_size)
    ids = rng.sample(order.prefix(order.size), order.size)
    return order, Poset.generated("grown", lambda i: ids[i - 1], order.leq)


def subsets(rng: random.Random, pre: list, count: int = 4) -> list:
    out = [set(pre), {pre[0]}, set()]
    out += [{x for x in pre if rng.random() < 0.5} for _ in range(count)]
    return out


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_set_queries_match_the_pairwise_reference(seed):
    rng = random.Random(seed)
    order, grown = both_sides(rng)
    for h in range(1, order.size + 1):
        for p in (order, grown):
            pre = p.prefix(h)
            for ms in subsets(rng, pre):
                for horizon in (h, order.size):
                    assert p.down_closure(ms, horizon) == ref_down_closure(
                        p, ms, horizon)
                    assert p.up_closure(ms, horizon) == ref_up_closure(
                        p, ms, horizon)
                    assert p.is_lower(ms, horizon) == ref_is_lower(
                        p, ms, horizon)
                    assert p.is_upper(ms, horizon) == ref_is_upper(
                        p, ms, horizon)
                assert p.minimal_of(ms) == ref_minimal_of(p, ms)
                assert p.maximal_of(ms) == ref_maximal_of(p, ms)
                if not ms:
                    continue
                got = p.finite_foundation(ms, h)
                n = order.size if p.finite else h
                assert got.status == (FOUND if p.finite else INCONCLUSIVE)
                assert got.foundation == ref_minimal_of(
                    p, ref_down_closure(p, ms, n))
            ext = p.extremal_elements(h)
            assert ext.minimal == ref_minimal_of(p, pre)
            assert ext.maximal == ref_maximal_of(p, pre)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_acc_witnesses_and_notes_match_the_reference(seed):
    rng = random.Random(seed)
    order, grown = both_sides(rng, max_size=9)
    for h in range(1, order.size + 1):
        for bound in (1, 2, 3):
            for p in (order, grown):
                v = p.check_acc(h, bound)
                assert (v.status, v.witness, v.note) == ref_check_acc(
                    p, h, bound)


@pytest.mark.parametrize("make", [
    lambda: family("omega-chain"), lambda: family("dyadic"),
    lambda: family("rn-infinity"), lambda: family("omega-antichain"),
    two_chains_poset, weave_poset])
def test_acc_on_families_matches_the_reference(make):
    p = make()
    for h in range(1, 15):
        for bound in (2, 4, 8):
            v = p.check_acc(h, bound)
            assert (v.status, v.witness, v.note) == ref_check_acc(p, h, bound)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_maximal_chains_match_the_reference(seed):
    rng = random.Random(seed)
    order, grown = both_sides(rng)
    for h in range(1, order.size + 1):
        for p in (order, grown):
            pre = p.prefix(h)
            for ms in subsets(rng, pre):
                members = [x for x in pre if x in ms]
                chains = ref_maximal_chains(p, members)
                mask = p.mask_of(members)
                for k in range(1, 5):
                    for t in p.maximal_of(members):
                        got = p._first_chain(
                            mask & p.lower_of(1 << p.index(t), h), k)
                        assert (got and tuple(map(p.id_at, got))) == \
                            ref_first_chain(chains, k, t)


@pytest.mark.parametrize("make", [two_chains_poset, weave_poset,
                                  lambda: family("dyadic")])
def test_chain_uniqueness_matches_the_reference(make):
    p = make()
    rng = random.Random(7)
    for h in range(1, 14):
        pre = p.prefix(h)
        for ms in subsets(rng, pre, count=3):
            for min_chain in (2, 3):
                v = p.is_chain_unique_over(ms, h, min_chain)
                assert (v.status, v.witness, v.note) == \
                    ref_is_chain_unique_over(p, ms, h, min_chain)


def chain_verdicts(p, n: int, rng: random.Random) -> list:
    """Every (verdict, reference) of ``is_chain_unique_over`` on p at each
    horizon up to n, on subsets of the prefix, with min_chain 1-4."""
    out = []
    for h in range(1, n + 1):
        for ms in subsets(rng, p.prefix(h), count=3):
            for min_chain in range(1, 5):
                v = p.is_chain_unique_over(ms, h, min_chain)
                out.append(((v.status, v.witness, v.note),
                            ref_is_chain_unique_over(p, ms, h, min_chain)))
    return out


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_chain_uniqueness_on_grown_posets_matches_the_reference(seed):
    rng = random.Random(seed)
    order, grown = both_sides(rng)
    for p in (order, grown):
        for got, ref in chain_verdicts(p, order.size, rng):
            assert got == ref


def test_chain_uniqueness_reference_sees_a_refutation():
    # the comparisons above are only as good as the verdicts they meet
    seen = {ref_is_chain_unique_over(p, p.prefix(h), h)[0]
            for p in (two_chains_poset(), weave_poset(), family("dyadic"))
            for h in range(1, 14)}
    assert seen == {"refuted", "holds-on-prefix"}
    seen = set()
    for seed in range(40):
        order, grown = both_sides(random.Random(seed))
        seen |= {got[0] for got, _ in chain_verdicts(grown, order.size,
                                                      random.Random(seed))}
    assert seen == {"refuted", "holds-on-prefix"}


INFINITE_FAMILIES = ["omega-chain", "omega-antichain", "rn-infinity",
                     "rn-infinity-bot", "dyadic", "ziegler-fan"]


def assert_same_completion(c, ref) -> None:
    assert c.to_json() == ref.to_json()
    assert c.tokens() == ref.tokens()
    assert c.verify() == ref.verify()


@pytest.mark.parametrize("make", [
    *(partial(family, tag) for tag in INFINITE_FAMILIES),
    two_chains_poset, weave_poset], ids=[*INFINITE_FAMILIES, "two-chains",
                                         "weave"])
def test_family_completions_match_the_enumeration(make):
    # one token per top, named by its first maximal chain, against the
    # completion that enumerates every maximal chain of the subset; of the
    # families only omega-chain has tokens, the two test posets have more
    rng = random.Random(7)
    for h in range(1, 27):
        p = make()
        pre = p.prefix(h)
        for ms in (pre, *({x for x in pre if rng.random() < q}
                          for q in (0.3, 0.6, 0.9))):
            assert_same_completion(complete_over(p, ms, h),
                                   ref_complete_over(p, ms, h))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_grown_completions_match_the_enumeration(seed):
    rng = random.Random(seed)
    order, grown = both_sides(rng)
    assert_same_completion(complete_finite(order),
                           ref_complete_over(order, (), order.size))
    for h in range(1, order.size + 1):
        for ms in subsets(rng, grown.prefix(h)):
            assert_same_completion(complete_over(grown, ms, h),
                                   ref_complete_over(grown, ms, h))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_completions_match_the_reference(seed):
    rng = random.Random(seed)
    order, grown = both_sides(rng, max_size=7)
    carriers = [complete_finite(order)]
    for h in range(1, order.size + 1):
        carriers.append(complete_over(grown, grown.prefix(h), h))
    for c in carriers:
        assert c.verify() == ref_completion_verify(c)
        assert c.to_json()["covers"] == ref_completion_covers(c)


@pytest.mark.parametrize("make", [two_chains_poset, weave_poset,
                                  lambda: family("omega-chain"),
                                  lambda: family("dyadic")])
def test_family_completions_match_the_reference(make):
    p = make()
    for h in (4, 8, 10):
        c = complete_over(p, p.prefix(h), h)
        assert c.verify() == ref_completion_verify(c) == []
        assert c.to_json()["covers"] == ref_completion_covers(c)


@pytest.mark.parametrize("make, tokens", [(lambda: family("dyadic"), 0),
                                          (two_chains_poset, 2)])
def test_completion_rows_ask_the_base_order_nothing(make, tokens,
                                                    monkeypatch):
    # base against base is read off the poset's rows; only the pairs with a
    # token go through CompletedPoset.leq, which never asks Poset.leq then
    p = make()
    c = complete_over(p, p.prefix(12), 12)
    assert len(c.tokens()) == tokens
    asked = {"poset": 0, "carrier": 0}

    def counted(name, leq):
        def wrapper(*args):
            asked[name] += 1
            return leq(*args)
        return wrapper

    monkeypatch.setattr(Poset, "leq", counted("poset", Poset.leq))
    monkeypatch.setattr(CompletedPoset, "leq",
                        counted("carrier", CompletedPoset.leq))
    doc, problems = c.to_json(), c.verify()
    # each of the two calls asks every row of a token, and every token
    # column of a base row
    assert asked == {"poset": 0,
                     "carrier": 2 * (tokens * 12 + 12 * tokens + tokens ** 2)}
    monkeypatch.undo()
    assert doc["covers"] == ref_completion_covers(c)
    assert problems == ref_completion_verify(c) == []


def test_a_broken_completion_fails_verify():
    p = two_chains_poset()
    c = complete_over(p, p.prefix(8), 8)
    tok = c.tokens()[0]
    # a second token with the same descriptor sits above and below the first
    twin = CompletionElement("limit", "lim(twin)", tok.descriptor)
    broken = CompletedPoset(p, 8, c.elements + [twin])
    problems = broken.verify()
    assert f"antisymmetry fails on {tok.ref}, lim(twin)" in problems
    assert f"token {tok.ref} is not the unique sup of its chain" in problems
    assert problems == ref_completion_verify(broken)
    assert broken.to_json()["covers"] == ref_completion_covers(broken)


def test_a_base_below_a_token_outside_its_chain_fails_verify():
    class Loose(CompletedPoset):
        def leq(self, x, y):
            # y1 also sits below every token
            return super().leq(x, y) or (x.ref == "y1" and y.is_limit)

    p = two_chains_poset()
    c = complete_over(p, p.prefix(8), 8)
    loose = Loose(p, 8, c.elements)
    problems = loose.verify()
    assert "y1 below token lim(x1,x2,x3,x4) but below no chain member" \
        in problems
    assert problems == ref_completion_verify(loose)


@pytest.mark.parametrize("tag", ["rn(2,0)", "rn(2,2)", "rn(4,2)",
                                 "rn-infinity", "rn-infinity-bot"])
def test_trace_dot_edges_match_the_reference(tag):
    for horizon, max_n in ((12, 30), (6, 8)):
        space = SymbolicSpace(family(tag), horizon)
        trace = rieger_nishimura_run(space, space.fin({"p0"}), max_n)
        lines = render_trace_dot(trace).splitlines()
        assert [s for s in lines if "->" in s] == ref_trace_dot_edges(trace)


def theta_outcome(left, right, image, span):
    sides = (SimpleNamespace(poset=left), SimpleNamespace(poset=right))
    try:
        _check_theta(*sides, image.__getitem__, span)
    except IsoError as e:
        return str(e)
    return None


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_theta_check_reports_the_reference_pair(seed):
    rng = random.Random(seed)
    left, grown_left = both_sides(rng)
    ids = left.prefix(left.size)
    # the right side has the same ids under an order of its own
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
             if rng.random() < 0.4]
    right = (left if rng.random() < 0.3
             else Poset.from_covers("right", ids, pairs))
    shuffled = rng.sample(ids, len(ids))
    for image in (dict(zip(ids, ids)), dict(zip(ids, shuffled))):
        for a in (left, grown_left):
            broken = ref_theta_break(a, right, image, len(ids))
            want = broken and (f"the bijection breaks order at "
                               f"({broken[0]!r}, {broken[1]!r})")
            assert theta_outcome(a, right, image, len(ids)) == want

PROBES = {
    "mask_of": lambda p, ms: p.mask_of(ms),
    "down_closure": lambda p, ms: p.down_closure(ms, 4),
    "up_closure": lambda p, ms: p.up_closure(ms, 4),
    "minimal_of": lambda p, ms: p.minimal_of(ms),
    "maximal_of": lambda p, ms: p.maximal_of(ms),
    "is_lower": lambda p, ms: p.is_lower(ms, 4),
    "is_upper": lambda p, ms: p.is_upper(ms, 4),
    "finite_foundation": lambda p, ms: p.finite_foundation(ms, 4),
    "is_chain_unique_over": lambda p, ms: p.is_chain_unique_over(ms, 4),
    "typeset_of": lambda p, ms: TypeSet.of(p, ms),
}


@pytest.mark.parametrize("members", [{"zz"}, {"zz", "a"}])
@pytest.mark.parametrize("query", sorted(PROBES))
def test_an_unknown_id_is_rejected_by_every_query(diamond, query, members):
    with pytest.raises(PosetError, match="unknown element id 'zz'"):
        PROBES[query](diamond, members)
