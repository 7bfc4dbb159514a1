"""Upper sets and their minimal-antichain normal form."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset
from stonetrim import Poset, PosetError, TypeSet


class TestNormalization:
    def test_collapses_to_minimal_antichain(self, diamond):
        t = TypeSet.of(diamond, {"a", "b", "c", "d"})
        assert t.min_antichain == ("a",)

    def test_sorted_by_enumeration_index(self, diamond):
        t = TypeSet.of(diamond, {"d", "c", "b"})
        assert t.min_antichain == ("b", "c")

    def test_idempotent(self, vee):
        t = TypeSet.of(vee, {"b", "c"})
        assert TypeSet.of(vee, t.members(3)) == t

    def test_unknown_member_rejected(self, diamond):
        with pytest.raises(PosetError, match="zz"):
            TypeSet.of(diamond, {"a", "zz"})

    def test_empty(self, diamond):
        e = TypeSet.empty(diamond)
        assert e.is_empty() and not e
        assert repr(e) == "TypeSet(∅)"
        assert e.members(4) == frozenset()


class TestQueries:
    def test_contains(self, diamond):
        t = TypeSet.of(diamond, {"b"})
        assert t.contains("b") and t.contains("d")
        assert not t.contains("a") and not t.contains("c")

    def test_contains_checks_the_id(self, diamond):
        with pytest.raises(PosetError):
            TypeSet.of(diamond, {"b"}).contains("zz")

    def test_trim_generator(self, diamond):
        assert TypeSet.of(diamond, {"b"}).trim_generator() == "b"
        assert TypeSet.of(diamond, {"b", "c"}).trim_generator() is None
        assert TypeSet.empty(diamond).trim_generator() is None

    def test_members_is_the_up_closure(self, diamond):
        t = TypeSet.of(diamond, {"b", "c"})
        assert t.members(4) == {"b", "c", "d"}

    def test_serialize(self, diamond):
        assert TypeSet.of(diamond, {"d", "b"}).serialize() == ["b"]


class TestAlgebra:
    def test_union_normalizes(self, diamond):
        b = TypeSet.of(diamond, {"b"})
        c = TypeSet.of(diamond, {"c"})
        assert b.union(c).min_antichain == ("b", "c")
        a = TypeSet.of(diamond, {"a"})
        assert b.union(a).min_antichain == ("a",)

    def test_union_rejects_foreign_poset(self, diamond, vee):
        with pytest.raises(ValueError, match="different posets"):
            TypeSet.of(diamond, {"b"}).union(TypeSet.of(vee, {"b"}))

    def test_inclusion(self, diamond):
        d = TypeSet.of(diamond, {"d"})
        b = TypeSet.of(diamond, {"b"})
        assert d <= b
        assert not b <= d
        assert TypeSet.empty(diamond) <= d


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_members_union_inclusion_agree_with_sets(seed):
    rng = random.Random(seed)
    p = random_poset(rng)
    ids = p.prefix(p.size)
    h = p.size
    a = {x for x in ids if rng.random() < 0.5}
    b = {x for x in ids if rng.random() < 0.5}
    ta, tb = TypeSet.of(p, a), TypeSet.of(p, b)
    assert ta.min_antichain == tuple(
        x for x in ids if x in a and not any(p.lt(y, x) for y in a))
    brute = {x for x in ids if any(p.leq(g, x) for g in a)}
    assert ta.members(h) == brute
    assert ta.union(tb).members(h) == ta.members(h) | tb.members(h)
    assert (ta <= tb) == (ta.members(h) <= tb.members(h))
