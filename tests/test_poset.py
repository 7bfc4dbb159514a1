"""Order queries, bounded verdicts and foundation searches."""
import random
import sys
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from stonetrim import (DEFAULT_CHAIN_BOUND, FOUND, HOLDS, HOLDS_ON_PREFIX,
                       INCONCLUSIVE, REFUTED, Poset, PosetError, TypeSet,
                       family)
from stonetrim.poset import bits, from_runs, runs

from conftest import (all_chains, finite_from_order, lt, random_poset,
                      ref_first_chain, ref_is_lower, ref_p_delta, ref_runs,
                      ref_spans_of, ref_up_closure)


def cover_pairs(p, horizon):
    """The transitive reduction of ``p.prefix(horizon)`` read off the
    poset's up-set rows: pairs (a, b) with b covering a, ordered by the
    index of a, then of b."""
    pre = p.prefix(horizon)
    keep = p.prefix_mask(horizon)
    strict = {i: p.up_mask(i) & keep & ~(1 << i)
              for i in range(1, len(pre) + 1)}
    out = []
    for i, row in strict.items():
        beyond = reduce(or_, map(strict.__getitem__, bits(row)), 0)
        out.extend((pre[i - 1], pre[j - 1]) for j in bits(row & ~beyond))
    return out


class TestConstruction:
    def test_covers_close_transitively(self, diamond):
        assert diamond.leq("a", "d")
        assert lt(diamond, "a", "d")
        assert not diamond.leq("b", "c") and not diamond.leq("c", "b")

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            Poset.from_covers("bad", ["x", "y"], [("x", "y"), ("y", "x")])

    def test_reflexive_cover_rejected(self):
        with pytest.raises(PosetError, match="reflexive"):
            Poset.from_covers("bad", ["x"], [("x", "x")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PosetError, match="duplicate"):
            Poset.from_covers("bad", ["x", "x"], [])
        with pytest.raises(PosetError, match="^duplicate element ids$"):
            Poset("d", ids=["a", "a"], rows=lambda ids, k: (0, 0))

    def test_unknown_cover_element_rejected(self):
        with pytest.raises(PosetError, match="unknown"):
            Poset.from_covers("bad", ["x"], [("x", "y")])

    def test_cover_pairs_give_the_reduction(self, diamond):
        assert set(cover_pairs(diamond, 4)) == {("a", "b"), ("a", "c"),
                                               ("b", "d"), ("c", "d")}

    def test_exactly_one_element_source(self):
        with pytest.raises(PosetError, match="either"):
            Poset("bad", ids=["a"], gen=lambda i: "b",
                  rows=lambda ids, k: (0, 0))
        with pytest.raises(PosetError, match="either"):
            Poset("bad", rows=lambda ids, k: (0, 0))

    def test_order_oracle_required(self):
        with pytest.raises(PosetError, match="oracle"):
            Poset("bad", ids=["a"], rows=None)

    def test_finite_axioms_enforced_up_front(self):
        with pytest.raises(PosetError, match="antisymmetry"):
            finite_from_order("bad", ["x", "y"], lambda a, b: True)

    def test_clean_order_has_no_axiom_findings(self, diamond):
        assert diamond.check_order_axioms(4) == []


class TestJson:
    def test_roundtrip(self, diamond):
        again = Poset.from_json({
            "name": "diamond", "elements": ["a", "b", "c", "d"],
            "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]})
        ids = diamond.prefix(4)
        assert again.prefix(4) == ids
        for p in ids:
            for q in ids:
                assert again.leq(p, q) == diamond.leq(p, q)

    def test_string_source(self):
        p = Poset.from_json(
            '{"name": "c", "elements": ["a", "b"], "covers": [["a", "b"]]}')
        assert p.leq("a", "b")

    def test_bad_json_text(self):
        with pytest.raises(PosetError, match="bad JSON"):
            Poset.from_json("{nope")

    def test_non_object_source(self):
        with pytest.raises(PosetError, match="object"):
            Poset.from_json("[1, 2]")

    def test_missing_key(self):
        with pytest.raises(PosetError, match="missing key"):
            Poset.from_json({"name": "x", "elements": []})

    def test_non_string_elements(self):
        with pytest.raises(PosetError, match="list of strings"):
            Poset.from_json({"name": "x", "elements": [1], "covers": []})

    def test_bad_cover_entry(self):
        with pytest.raises(PosetError, match="cover entry"):
            Poset.from_json({"name": "x", "elements": ["a"], "covers": ["a"]})

    @pytest.mark.parametrize("entry", [[["a"], "b"], [{"k": 1}, "b"],
                                       ["a", 2], ["a", None]])
    def test_cover_endpoints_must_be_strings(self, entry):
        with pytest.raises(PosetError, match="bad cover entry"):
            Poset.from_json({"name": "x", "elements": ["a", "b"],
                             "covers": [entry]})

    @pytest.mark.parametrize("covers", [5, None, "ab", {"a": "b"}])
    def test_covers_must_be_a_list(self, covers):
        with pytest.raises(PosetError, match="covers must be a list"):
            Poset.from_json({"name": "x", "elements": ["a", "b"],
                             "covers": covers})

    @pytest.mark.parametrize("name", [5, None, ["x"]])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(PosetError, match="name must be a string"):
            Poset.from_json({"name": name, "elements": [], "covers": []})

    def test_generated_serialization_with_horizon(self):
        # a generated prefix written out as poset JSON reads back as the
        # same order
        p = family("omega-chain")
        covers = [list(c) for c in cover_pairs(p, 4)]
        assert covers == [["p1", "p2"], ["p2", "p3"], ["p3", "p4"]]
        again = Poset.from_json({"name": "omega-chain",
                                 "elements": p.prefix(4), "covers": covers})
        assert [again.up_mask(i) for i in range(1, 5)] == [
            p.up_mask(i) & 0b11110 for i in range(1, 5)]


class TestOrderQueries:
    def test_up_and_down_sets(self, vee):
        assert vee.ids_of(vee.upper_of(TypeSet.of(vee, {"a"}).mask)) == {
            "a", "b", "c"}
        assert vee.lower_of(0b100, 3) == 0b110
        assert vee.up_mask(1) == 0b1110

    def test_closures(self, vee):
        assert vee.lower_of(0b1100, 3) == 0b1110
        assert vee.upper_of(0b10) == 0b1110

    @pytest.mark.parametrize("make", [
        lambda: family("dyadic"), lambda: family("rn-infinity-bot"),
        lambda: family("omega-antichain"), lambda: family("rn(4,2)"),
        lambda: random_poset(random.Random(36), max_size=9)])
    def test_down_closures_ignore_bits_past_the_table(self, make):
        # between interleaved ensure calls, bits past the enumerated table
        # are ignored and nothing past the horizon is enumerated, while an
        # enumerated index past the horizon still pulls in the prefix
        # elements below it: the answer is read off the up-set rows one
        # prefix element at a time
        p = make()
        rng = random.Random(36)
        for horizon in (3, 1, 6, 2, 11, 5, 15, 8):
            p.ensure(horizon - 2)
            seen = len(p._ids)
            for _ in range(20):
                mask = rng.getrandbits(24) & ~1
                got = p.lower_of(mask, horizon)
                assert got == sum(1 << j for j in bits(p.prefix_mask(horizon))
                                  if p.up_mask(j) & mask)
                assert p.lower_of(1 << 40 | mask, horizon) == got
            assert len(p._ids) == (seen if p.finite else max(seen, horizon))
        # the down-set rows are the transpose of the up-set rows
        n = len(p.prefix(15))
        assert [p.lower_of(1 << i, n) for i in range(1, n + 1)] == [
            sum(1 << j for j in range(1, n + 1) if p.up_mask(j) >> i & 1)
            for i in range(1, n + 1)]

    @pytest.mark.parametrize("mask", [0b1, 0b11, 0b10000, 0b10110])
    def test_closures_of_bits_outside_the_poset(self, vee, mask):
        # bit 0 and bit 4 name no element of the three-element vee: every
        # query that reads up-set rows rejects them alike, and the
        # down-closure drops them
        for query in (vee.upper_of, vee.minimal_in, vee.maximal_in,
                      vee.ids_of):
            with pytest.raises(PosetError, match="out of range"):
                query(mask)
        assert vee.lower_of(mask, 3) == vee.lower_of(mask & 0b1110, 3)

    def test_rows_past_the_prefix_of_a_generated_poset(self):
        # a generated poset enumerates a mask's top index before reading
        p = family("omega-chain")
        assert p.maximal_in(1 << 20) == 1 << 20
        assert len(p._ids) == 20

    def test_closure_rejects_unknown_member(self, vee):
        with pytest.raises(PosetError, match="unknown"):
            vee.lower_of(vee.mask_of({"zz"}), 3)

    def test_extremes_of_subsets(self, diamond):
        m = diamond.mask_of
        assert diamond.minimal_in(m({"b", "c", "d"})) == m({"b", "c"})
        assert diamond.maximal_in(m({"a", "b", "c"})) == m({"b", "c"})

    def test_lower_and_upper_predicates(self, vee):
        # a mask is a lower set iff its down-closure adds nothing, and an
        # upper set iff its up-closure adds nothing
        for ids, lower, upper in (({"a"}, True, False),
                                  ({"b"}, False, True),
                                  ({"b", "c"}, False, True),
                                  ({"a", "b", "c"}, True, True)):
            m = vee.mask_of(ids)
            assert (not vee.lower_of(m, 3) & ~m) == lower
            assert (not vee.upper_of(m) & ~m) == upper

    def test_index_and_id_at(self, vee):
        assert vee.index("b") == 2
        assert vee.id_at(2) == "b"
        with pytest.raises(PosetError, match="unknown"):
            vee.index("zz")
        with pytest.raises(PosetError, match="out of range"):
            vee.id_at(9)

    def test_leq_rejects_unknown_ids(self, vee):
        with pytest.raises(PosetError, match="unknown"):
            vee.leq("a", "zz")

    def test_leq_names_the_first_unknown_id(self, vee):
        for p, q, named in (("yy", "zz", "yy"), ("yy", "a", "yy"),
                            ("a", "zz", "zz")):
            with pytest.raises(PosetError,
                               match=f"^unknown element id '{named}'$"):
                vee.leq(p, q)

    def test_leq_ix_matches_ids(self, diamond):
        assert diamond.leq_ix(1, 4)
        assert not diamond.leq_ix(2, 3)


class TestEnumeration:
    def test_prefix_grows_on_demand(self):
        p = family("omega-chain")
        assert p.prefix(3) == ["p1", "p2", "p3"]
        assert p.prefix(5) == ["p1", "p2", "p3", "p4", "p5"]
        assert not p.finite
        assert p.size is None

    def test_negative_prefix_raises(self, vee):
        # a negative length is an error, not a slice from the end
        for p in (vee, family("omega-chain")):
            p.prefix(3)
            with pytest.raises(PosetError, match="negative"):
                p.prefix(-1)
        assert vee.prefix(0) == []

    def test_zero_horizon_serializes_no_covers(self):
        # a zero horizon is the empty prefix, not the whole enumerated one
        p = family("omega-chain")
        p.prefix(4)
        assert cover_pairs(p, 0) == []
        assert cover_pairs(p, 4) == [("p1", "p2"), ("p2", "p3"), ("p3", "p4")]

    def test_generator_must_not_repeat(self):
        p = Poset.generated("const", lambda i: "x", lambda a, b: a == b)
        assert p.id_at(1) == "x"
        with pytest.raises(PosetError, match="repeated"):
            p.ensure(2)

    def test_contains_only_sees_enumerated_ids(self):
        p = family("omega-chain")
        p.prefix(2)
        assert "p2" in p
        assert "p9" not in p


class TestVerdicts:
    def test_finite_acc_holds(self, chain_ab):
        v = chain_ab.check_acc(2)
        assert v.status == HOLDS

    def test_omega_chain_acc_refuted_with_witness(self):
        v = family("omega-chain").check_acc(12)
        assert v.status == REFUTED
        assert len(v.witness) == DEFAULT_CHAIN_BOUND + 1
        assert v.witness[0] == "p1"
        assert "bound 8" in v.note

    def test_short_prefix_cannot_refute_acc(self):
        v = family("omega-chain").check_acc(4)
        assert v.status == HOLDS_ON_PREFIX

    def test_custom_chain_bound(self):
        v = family("omega-chain").check_acc(12, bound=3)
        assert v.status == REFUTED
        assert len(v.witness) == 4

    def test_chain_tables_past_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        p = family("omega-chain")
        inside = p.mask_of(p.prefix(n))
        memo = p._longest_chain_from(inside)
        assert memo == {i: n + 1 - i for i in range(1, n + 1)}
        assert p._find_chain(inside, n, memo) == tuple(range(1, n + 1))
        assert p._first_chain(inside, n) == tuple(range(1, n + 1))
        assert p._first_chain(inside, n + 1) is None
        v = p.check_acc(n)
        assert (v.status, v.witness) == (REFUTED, tuple(p.prefix(9)))

    def test_ladder_acc_analytic(self):
        v = family("rn-infinity").check_acc(30)
        assert v.status == HOLDS_ON_PREFIX
        assert "decreasing indices" in v.note

    def test_omega_complete_verdicts(self, chain_ab):
        assert chain_ab.check_omega_complete(2).status == HOLDS
        oc = family("omega-chain").check_omega_complete(6)
        assert oc.status == REFUTED
        assert oc.witness == ("p1", "p2", "p3", "p4", "p5", "p6")
        assert family("omega-antichain").check_omega_complete(6).status == HOLDS

    def test_plain_generated_poset_answers_on_prefix_only(self):
        p = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        assert p.check_omega_complete(5).status == HOLDS_ON_PREFIX


class TestChainUniqueness:
    @staticmethod
    def _cone() -> Poset:
        ids = ["c1", "c2", "c3", "r", "s"]

        def gen(i: int) -> str:
            return ids[i - 1] if i <= 5 else f"j{i}"

        def leq(a: str, b: str) -> bool:
            if a == b:
                return True
            if a[0] == "c" and b[0] == "c":
                return a <= b
            return b == "s"

        return Poset.generated("cone", gen, leq)

    def test_finite_posets_hold(self, chain_ab):
        assert chain_ab.is_chain_unique_over({"a", "b"}, 2).status == HOLDS

    def test_omega_chain_scan_finds_nothing(self):
        p = family("omega-chain")
        p.prefix(8)
        v = p.is_chain_unique_over({"p1", "p2", "p3", "p4"}, 8)
        assert v.status == HOLDS_ON_PREFIX

    def test_side_element_below_a_sup_refutes(self):
        p = self._cone()
        p.prefix(8)
        v = p.is_chain_unique_over({"c1", "c2", "c3", "r"}, 8)
        assert v.status == REFUTED
        assert v.witness == ("c1", "c2", "c3", "s", "r")
        assert "below no chain member" in v.note


class TestExtremal:
    def test_finite_exact(self, diamond):
        ex = diamond.extremal_elements(4)
        assert ex.minimal == diamond.mask_of({"a"})
        assert ex.maximal == diamond.mask_of({"d"})
        assert ex.exact

    def test_family_confirmed(self):
        p = family("dyadic")
        ex = p.extremal_elements(8)
        assert ex.minimal == p.mask_of({"0"})
        assert ex.maximal == p.mask_of({"1"})
        assert not ex.exact
        assert ex.note == "family-confirmed"

    def test_family_answers_past_the_prefix_are_named(self):
        # the bottom p1 is confirmed minimal before anything is enumerated
        p = family("omega-chain")
        ex = p.extremal_elements(0)
        assert p.ids_of(ex.minimal) == {"p1"} and ex.maximal == 0

    def test_plain_generated_is_prefix_relative(self):
        p = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        ex = p.extremal_elements(4)
        assert p.ids_of(ex.minimal) == {"n1", "n2", "n3", "n4"}
        assert "prefix" in ex.note

    def test_confirmed_minimal(self, diamond):
        assert diamond.confirmed_minimal(4) == diamond.mask_of({"a"})
        # p1, at index 1
        assert family("omega-chain").confirmed_minimal(6) == 0b10
        plain = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        assert plain.confirmed_minimal(4) == 0


class TestFoundations:
    def test_finite_is_decided_exactly(self, diamond):
        res = diamond.finite_foundation(diamond.mask_of({"d"}), 4)
        assert res.status == FOUND
        assert res.foundation == diamond.mask_of({"a"})

    def test_vee_pair(self, vee):
        res = vee.finite_foundation(vee.mask_of({"b", "c"}), 3)
        assert res.status == FOUND
        assert res.foundation == vee.mask_of({"a"})

    def test_omega_chain_bottom_founds_everything(self):
        p = family("omega-chain")
        p.prefix(8)
        res = p.finite_foundation(p.mask_of({"p3", "p5"}), 8)
        assert res.status == FOUND
        assert res.foundation == p.mask_of({"p1"})

    def test_ladder_has_no_foundations(self):
        p = family("rn-infinity")
        p.prefix(8)
        res = p.finite_foundation(p.mask_of({"p0"}), 8)
        assert res.status == REFUTED and res.foundation == 0

    def test_plain_generated_is_inconclusive(self):
        p = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        p.prefix(4)
        res = p.finite_foundation(p.mask_of({"n2"}), 4)
        assert res.status == INCONCLUSIVE
        assert res.foundation == p.mask_of({"n2"})

    def test_empty_query_rejected(self, diamond):
        with pytest.raises(PosetError, match="nonempty"):
            diamond.finite_foundation(0, 4)

    def test_p_delta(self, diamond):
        assert diamond.ids_of(diamond.p_delta(4)) == {"a", "b", "c", "d"}
        p = family("omega-chain")
        assert p.ids_of(p.p_delta(6)) == {f"p{k}" for k in range(1, 7)}
        assert family("rn-infinity").p_delta(6) == 0


def assert_p_delta_memo_matches(make, seed):
    """One poset's ``p_delta`` at horizons 1..12 in a seeded shuffle, then
    in reverse, each against ``ref_p_delta`` on a fresh poset at that
    horizon: the answers the poset keeps never go stale."""
    poset, order = make(), list(range(1, 13))
    random.Random(seed).shuffle(order)
    for h in order + order[::-1]:
        assert poset.p_delta(h) == ref_p_delta(make(), h), h


class TestPDeltaMemo:
    @pytest.mark.parametrize("tag", [
        "omega-chain", "omega-antichain", "rn-infinity", "rn-infinity-bot",
        "rn(2,0)", "rn(3,2)", "dyadic", "ziegler-fan"])
    def test_families(self, tag):
        assert_p_delta_memo_matches(lambda: family(tag), tag)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_finite_posets(self, seed):
        assert_p_delta_memo_matches(
            lambda: random_poset(random.Random(seed), max_size=12), seed)

    def test_plain_generated(self):
        assert_p_delta_memo_matches(
            lambda: Poset.generated("plain", lambda i: f"n{i}",
                                    lambda a, b: a == b), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_posets_satisfy_the_order_axioms(seed):
    p = random_poset(random.Random(seed))
    assert p.check_order_axioms(p.size) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_down_closures_are_lower_sets(seed, data):
    p = random_poset(random.Random(seed))
    ids = p.prefix(p.size)
    members = data.draw(st.sets(st.sampled_from(ids), min_size=1))
    down = p.lower_of(p.mask_of(members), p.size)
    assert not p.lower_of(down, p.size) & ~down
    assert ref_is_lower(p, p.ids_of(down), p.size)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_up_sets_are_upper_sets(seed, data):
    p = random_poset(random.Random(seed))
    ids = p.prefix(p.size)
    x = data.draw(st.sampled_from(ids))
    up = p.mask_of(ref_up_closure(p, [x], p.size))
    assert up == p.up_mask(p.index(x))
    assert not p.upper_of(up) & ~up


def random_relation(rng: random.Random, n: int):
    """Ids and a string order for a random reflexive relation on them; its
    strict pairs are drawn freely, so antisymmetry and transitivity may
    fail."""
    ids = [f"r{k}" for k in range(n)]
    density = rng.choice([0.1, 0.3, 0.6])
    pairs = {(a, b) for a in ids for b in ids
             if a == b or rng.random() < density}
    return ids, lambda a, b: (a, b) in pairs


def triple_loop_axioms(p, pre):
    problems = []
    for a in pre:
        for b in pre:
            if a != b and p.leq(a, b) and p.leq(b, a):
                problems.append(f"antisymmetry fails on {a!r}, {b!r}")
    for a in pre:
        for b in pre:
            if not p.leq(a, b):
                continue
            for c in pre:
                if p.leq(b, c) and not p.leq(a, c):
                    problems.append(f"transitivity fails on {a!r}, {b!r}, {c!r}")
    return problems


def triple_loop_covers(p, pre):
    return [(a, b) for a in pre for b in pre
            if lt(p, a, b)
            and not any(lt(p, a, c) and lt(p, c, b) for c in pre)]


@pytest.mark.parametrize("seed", range(80))
def test_axioms_and_covers_match_the_triple_loops(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    ids, leq = random_relation(rng, n)
    # a generated poset keeps any relation; a finite one checks it
    p = Poset.generated("rel", lambda i: ids[i - 1], leq)
    for h in range(1, n + 1):
        pre = p.prefix(h)
        assert p.check_order_axioms(h) == triple_loop_axioms(p, pre)
        assert cover_pairs(p, h) == triple_loop_covers(p, pre)
    problems = triple_loop_axioms(p, ids)
    if problems:
        with pytest.raises(PosetError) as err:
            finite_from_order("rel", ids, leq)
        assert str(err.value) == "; ".join(problems[:3])
    order = random_poset(rng, max_size=9)
    pre = order.prefix(order.size)
    assert order.check_order_axioms(order.size) == []
    assert cover_pairs(order, order.size) == triple_loop_covers(order, pre)


def test_random_relations_break_both_axioms():
    found = set()
    for seed in range(80):
        rng = random.Random(seed)
        ids, leq = random_relation(rng, rng.randint(1, 9))
        p = Poset.generated("rel", lambda i: ids[i - 1], leq)
        found.update(s.split()[0] for s in p.check_order_axioms(len(ids)))
    assert found == {"antisymmetry", "transitivity"}


def test_rows_are_asked_once_per_element():
    asked, compared = [], []

    def rows(ids, k):
        asked.append(k)
        return 0, (1 << k) - 2

    def leq(a, b):
        compared.append((a, b))
        return int(a) <= int(b)

    Poset("chain", gen=str, rows=rows).ensure(30)
    assert asked == list(range(1, 31))
    Poset.generated("chain", str, leq).ensure(30)
    assert len(compared) == 30 * 29


def divides(a: str, b: str) -> bool:
    return int(b) % int(a) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
def test_up_set_table_matches_the_order_function(values):
    names = [str(v) for v in values]
    finite = finite_from_order("div", names, divides)
    grown = Poset.generated("div", lambda i: names[i - 1], divides)
    for n in range(1, len(names) + 1):
        grown.ensure(n)
        for i in range(1, n + 1):
            want = [j for j in range(1, n + 1)
                    if divides(names[i - 1], names[j - 1])]
            assert list(bits(grown.up_mask(i))) == want
            if n == len(names):
                assert list(bits(finite.up_mask(i))) == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 60), max_size=11, unique=True), st.data())
def test_up_closure_memo_follows_a_growing_prefix(values, data):
    # "1" comes first and divides everything, so its up-closure grows with
    # every new element; the answers minimal_in keeps stay valid as it does
    names = ["1"] + [str(v) for v in values]
    grown = Poset.generated("div", lambda i: names[i - 1], divides)
    one = TypeSet.from_mask(grown, 0b10)
    for n in range(1, len(names) + 1):
        grown.ensure(n)
        masks = [1 << i for i in range(1, n + 1)]
        masks += [data.draw(st.integers(0, (1 << n) - 1)) << 1
                  for _ in range(3)]
        for mask in masks:
            want = 0
            for i in bits(mask):
                want |= grown.up_mask(i)
            assert grown.upper_of(mask) == want
            # the kept generators of mask are read again after growth
            ts = TypeSet.from_mask(grown, mask)
            for h in range(1, n + 1):
                assert grown.ids_of(grown.upper_of(ts.mask)
                                     & grown.prefix_mask(h)) == \
                    ref_up_closure(grown, ts.min_antichain, h)
        assert grown.ids_of(grown.upper_of(one.mask)) == frozenset(names[:n])


@given(st.integers(0, 2 ** 130))
def test_bits_and_runs_read_the_binary_expansion(mask):
    want = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert list(bits(mask)) == want
    spans = list(runs(mask))
    assert [i for a, b in spans for i in range(a, b)] == want
    assert all(b < c for (_, b), (c, _) in zip(spans, spans[1:]))


WIDE_MASKS = st.one_of(
    st.just(0),
    st.integers(0, 5000).map(lambda k: 1 << k),
    st.integers(1, 5000).map(lambda w: (1 << w) - 1),
    st.tuples(st.integers(1, 2 ** 70), st.integers(0, 5000)).map(
        lambda t: t[0] << t[1]))


@given(WIDE_MASKS)
@settings(max_examples=300)
def test_runs_agree_with_both_references_on_wide_masks(mask):
    spans = runs(mask)
    assert type(spans) is list
    assert spans == list(ref_runs(mask)) == ref_spans_of(mask)
    assert list(bits(mask)) == [i for a, b in ref_spans_of(mask)
                                for i in range(a, b)]


@given(st.one_of(WIDE_MASKS, st.integers(0, 2 ** 300)))
@settings(max_examples=300)
def test_from_runs_inverts_runs(mask):
    assert from_runs(runs(mask)) == mask
    assert from_runs(ref_spans_of(mask)) == mask


def test_runs_of_single_bits_and_all_ones():
    # runs returns a list, and answers a one-bit mask without spelling it
    assert runs(0) == list(bits(0)) == ref_spans_of(0) == []
    for k in range(5001):
        got = runs(1 << k)
        assert type(got) is list
        assert got == [(k, k + 1)] == ref_spans_of(1 << k) == list(
            ref_runs(1 << k))
        assert list(bits(1 << k)) == [k]
    for w in (1, 2, 63, 64, 65, 4999, 5000):
        ones = (1 << w) - 1
        assert list(runs(ones)) == [(0, w)] == list(ref_runs(ones))
        assert list(runs(ones << 3000)) == [(3000, 3000 + w)]
        assert list(bits(ones << 3000)) == list(range(3000, 3000 + w))


def increasing_paths(poset, members):
    """Every strictly increasing path from a minimal to a maximal member,
    depth first in the members' order; the maximal chains are among them."""
    out = []

    def extend(chain, rest):
        ups = [y for y in rest if lt(poset, chain[-1], y)]
        if not ups:
            out.append(tuple(chain))
        for y in ups:
            extend(chain + [y], ups)

    for x in members:
        if not any(lt(poset, y, x) for y in members):
            extend([x], members)
    return out


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_maximal_chains_against_brute_force(seed):
    # the first maximal chain of the members below each maximal member, with
    # at least k members, is the first such chain among all maximal chains
    rng = random.Random(seed)
    p = random_poset(rng, max_size=7)
    members = [x for x in p.prefix(p.size) if rng.random() < 0.7]
    inside = [c for c in all_chains(p) if set(c) <= set(members)]
    brute = {c for c in inside
             if not any(set(c) < set(d) for d in inside)}
    ordered = [c for c in increasing_paths(p, members) if c in brute]
    assert set(ordered) == brute and len(ordered) == len(brute)
    mask = p.mask_of(members)
    tops = p.ids_of(p.maximal_in(mask))
    for k in range(1, 5):
        got = {}
        for t in tops:
            chain = p._first_chain(
                mask & p.lower_of(1 << p.index(t), p.size), k)
            got[t] = chain and tuple(map(p.id_at, chain))
        assert got == {t: ref_first_chain(ordered, k, t) for t in tops}
        first = p._first_chain(mask, k)
        assert (first and tuple(map(p.id_at, first))) == ref_first_chain(
            ordered, k)


def test_maximal_chains_of_a_long_chain_are_one():
    p = family("omega-chain")
    mask = p.mask_of(p.prefix(22))
    for k in range(1, 23):
        assert p._first_chain(mask, k) == tuple(range(1, 23))
    assert p._first_chain(mask, 23) is None
    assert p._first_chain(0, 1) is None
