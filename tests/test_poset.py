"""Order queries, bounded verdicts and foundation searches."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from stonetrim import (DEFAULT_CHAIN_BOUND, FOUND, HOLDS, HOLDS_ON_PREFIX,
                       INCONCLUSIVE, REFUTED, Poset, PosetError, SubsetSpec,
                       family)
from stonetrim.poset import bits, runs

from conftest import random_poset


class TestConstruction:
    def test_covers_close_transitively(self, diamond):
        assert diamond.leq("a", "d")
        assert diamond.lt("a", "d")
        assert not diamond.comparable("b", "c")

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            Poset.from_covers("bad", ["x", "y"], [("x", "y"), ("y", "x")])

    def test_reflexive_cover_rejected(self):
        with pytest.raises(PosetError, match="reflexive"):
            Poset.from_covers("bad", ["x"], [("x", "x")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PosetError, match="duplicate"):
            Poset.from_covers("bad", ["x", "x"], [])

    def test_unknown_cover_element_rejected(self):
        with pytest.raises(PosetError, match="unknown"):
            Poset.from_covers("bad", ["x"], [("x", "y")])

    def test_cover_pairs_give_the_reduction(self, diamond):
        assert set(diamond.cover_pairs()) == {("a", "b"), ("a", "c"),
                                             ("b", "d"), ("c", "d")}

    def test_exactly_one_element_source(self):
        with pytest.raises(PosetError, match="either"):
            Poset("bad", ids=["a"], gen=lambda i: "b",
                  leq_fn=lambda a, b: a == b)
        with pytest.raises(PosetError, match="either"):
            Poset("bad", leq_fn=lambda a, b: a == b)

    def test_order_oracle_required(self):
        with pytest.raises(PosetError, match="oracle"):
            Poset("bad", ids=["a"], leq_fn=None)

    def test_finite_axioms_enforced_up_front(self):
        with pytest.raises(PosetError, match="antisymmetry"):
            Poset.finite_from_order("bad", ["x", "y"], lambda a, b: True)

    def test_clean_order_has_no_axiom_findings(self, diamond):
        assert diamond.check_order_axioms(4) == []


class TestJson:
    def test_roundtrip(self, diamond):
        again = Poset.from_json(diamond.to_json())
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

    def test_generated_serialization_needs_horizon(self):
        with pytest.raises(PosetError, match="horizon"):
            family("omega-chain").to_json()

    def test_generated_serialization_with_horizon(self):
        obj = family("omega-chain").to_json(4)
        assert obj["elements"] == ["p1", "p2", "p3", "p4"]
        assert obj["covers"] == [["p1", "p2"], ["p2", "p3"], ["p3", "p4"]]
        assert obj["family"] == "omega-chain"


class TestOrderQueries:
    def test_up_and_down_sets(self, vee):
        assert vee.up_set("a", 3) == {"a", "b", "c"}
        assert vee.down_set("b", 3) == {"a", "b"}

    def test_closures(self, vee):
        assert vee.down_closure({"b", "c"}, 3) == {"a", "b", "c"}
        assert vee.up_closure({"a"}, 3) == {"a", "b", "c"}

    def test_closure_rejects_unknown_member(self, vee):
        with pytest.raises(PosetError, match="unknown"):
            vee.down_closure({"zz"}, 3)

    def test_extremes_of_subsets(self, diamond):
        assert diamond.minimal_of({"b", "c", "d"}) == {"b", "c"}
        assert diamond.maximal_of({"a", "b", "c"}) == {"b", "c"}

    def test_antichain_predicate(self, diamond):
        assert diamond.is_antichain({"b", "c"})
        assert not diamond.is_antichain({"a", "b"})

    def test_lower_and_upper_predicates(self, vee):
        assert vee.is_lower({"a"}, 3)
        assert not vee.is_lower({"b"}, 3)
        assert vee.is_upper({"b", "c"}, 3)
        assert not vee.is_upper({"a"}, 3)

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
        assert ex.minimal == {"a"}
        assert ex.maximal == {"d"}
        assert ex.exact

    def test_family_confirmed(self):
        ex = family("dyadic").extremal_elements(8)
        assert ex.minimal == {"0"}
        assert ex.maximal == {"1"}
        assert not ex.exact
        assert ex.note == "family-confirmed"

    def test_plain_generated_is_prefix_relative(self):
        p = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        ex = p.extremal_elements(4)
        assert ex.minimal == {"n1", "n2", "n3", "n4"}
        assert "prefix" in ex.note

    def test_confirmed_minimal(self, diamond):
        mins, exact = diamond.confirmed_minimal(4)
        assert mins == {"a"} and exact
        mins, exact = family("omega-chain").confirmed_minimal(6)
        assert mins == {"p1"} and exact
        plain = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        mins, exact = plain.confirmed_minimal(4)
        assert mins == frozenset() and not exact


class TestFoundations:
    def test_finite_is_decided_exactly(self, diamond):
        res = diamond.finite_foundation({"d"}, 4)
        assert res.status == FOUND
        assert res.foundation == {"a"}

    def test_vee_pair(self, vee):
        res = vee.finite_foundation({"b", "c"}, 3)
        assert res.status == FOUND
        assert res.foundation == {"a"}

    def test_omega_chain_bottom_founds_everything(self):
        p = family("omega-chain")
        p.prefix(8)
        res = p.finite_foundation({"p3", "p5"}, 8)
        assert res.status == FOUND
        assert res.foundation == {"p1"}

    def test_ladder_has_no_foundations(self):
        p = family("rn-infinity")
        p.prefix(8)
        assert p.finite_foundation({"p0"}, 8).status == REFUTED

    def test_plain_generated_is_inconclusive(self):
        p = Poset.generated("plain", lambda i: f"n{i}", lambda a, b: a == b)
        p.prefix(4)
        res = p.finite_foundation({"n2"}, 4)
        assert res.status == INCONCLUSIVE
        assert res.foundation == {"n2"}

    def test_empty_query_rejected(self, diamond):
        with pytest.raises(PosetError, match="nonempty"):
            diamond.finite_foundation(frozenset(), 4)

    def test_subset_spec_is_accepted(self, diamond):
        spec = SubsetSpec(frozenset({"d"}))
        assert diamond.finite_foundation(spec, 4).status == FOUND

    def test_p_delta(self, diamond):
        delta, exact = diamond.p_delta(4)
        assert delta == {"a", "b", "c", "d"} and exact
        delta, exact = family("omega-chain").p_delta(6)
        assert delta == {f"p{k}" for k in range(1, 7)} and not exact
        p = family("rn-infinity")
        delta, _ = p.p_delta(6)
        assert delta == frozenset()


class TestSubsetSpec:
    def test_members_outside_prefix_flagged(self):
        p = family("omega-chain")
        p.prefix(8)
        p.ensure(12)
        spec = SubsetSpec(frozenset({"p12"}))
        probs = spec.validate(p, 8)
        assert probs and "outside" in probs[0]

    def test_declared_lower_checked(self):
        p = family("omega-chain")
        spec = SubsetSpec(frozenset({"p2"}), declared_lower=True)
        probs = spec.validate(p, 6)
        assert any("lower" in s for s in probs)

    def test_clean_spec_passes(self):
        p = family("omega-chain")
        spec = SubsetSpec(frozenset({"p1", "p2"}), declared_lower=True)
        assert spec.validate(p, 6) == []


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
    assert p.is_lower(p.down_closure(members, p.size), p.size)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_up_sets_are_upper_sets(seed, data):
    p = random_poset(random.Random(seed))
    ids = p.prefix(p.size)
    x = data.draw(st.sampled_from(ids))
    assert p.is_upper(p.up_set(x, p.size), p.size)


def divides(a: str, b: str) -> bool:
    return int(b) % int(a) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
def test_up_set_table_matches_the_order_function(values):
    names = [str(v) for v in values]
    finite = Poset.finite_from_order("div", names, divides)
    grown = Poset.generated("div", lambda i: names[i - 1], divides)
    for n in range(1, len(names) + 1):
        grown.ensure(n)
        for i in range(1, n + 1):
            want = [j for j in range(1, n + 1)
                    if divides(names[i - 1], names[j - 1])]
            assert list(bits(grown.up_mask(i))) == want
            if n == len(names):
                assert list(bits(finite.up_mask(i))) == want


@given(st.integers(0, 2 ** 130))
def test_bits_and_runs_read_the_binary_expansion(mask):
    want = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert list(bits(mask)) == want
    spans = list(runs(mask))
    assert [i for a, b in spans for i in range(a, b)] == want
    assert all(b < c for (_, b), (c, _) in zip(spans, spans[1:]))
