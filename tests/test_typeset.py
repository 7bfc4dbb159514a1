"""Upper sets and their minimal-antichain normal form."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset, ref_up_closure
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

    def test_direct_construction_normalizes(self, vee):
        direct = TypeSet(vee, ("c", "b"))
        assert direct == TypeSet.of(vee, {"b", "c"})
        assert hash(direct) == hash(TypeSet.of(vee, {"b", "c"}))
        assert direct.min_antichain == ("b", "c")
        above = TypeSet(vee, ("a", "b"))
        assert above == TypeSet.of(vee, {"a"})
        assert above.serialize() == ["a"] and above.mask == 0b10

    def test_unknown_member_rejected(self, diamond):
        with pytest.raises(PosetError, match="zz"):
            TypeSet.of(diamond, {"a", "zz"})

    def test_empty(self, diamond):
        e = TypeSet.from_mask(diamond, 0)
        assert e.mask == 0 and not e
        assert repr(e) == "TypeSet(∅)"
        assert e.members(4) == frozenset()


class TestQueries:
    def test_contains(self, diamond):
        up = TypeSet.of(diamond, {"b"})._upper()
        assert [i for i in range(1, 5) if up >> i & 1] == [
            diamond.index("b"), diamond.index("d")]

    def test_trim_generator(self, diamond):
        """A principal upper set has one minimal element, its generator."""
        b = diamond.index("b")
        assert TypeSet.of(diamond, {"b"}).mask == 1 << b
        assert TypeSet.of(diamond, {"b", "d"}).mask == 1 << b
        assert TypeSet.of(diamond, {"b", "c"}).mask.bit_count() == 2
        assert TypeSet.from_mask(diamond, 0).mask == 0

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
        """An upper set lies inside another iff their union is the other."""
        d = TypeSet.of(diamond, {"d"})
        b = TypeSet.of(diamond, {"b"})
        assert d.union(b) is b
        assert b.union(d) is not d
        assert TypeSet.from_mask(diamond, 0).union(d) is d


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
    assert (ta.union(tb) is tb) == (ta.members(h) <= tb.members(h))


# ----------------------------------------------------------------------
# interned, mask-backed type sets against a model of plain id sets

def model_min(p, gens):
    """Minimal members of gens, in enumeration order."""
    return tuple(sorted((x for x in gens
                         if not any(p.lt(y, x) for y in gens)),
                        key=p.index))


def model_upper(p, gens, ids):
    return {x for x in ids if any(p.leq(g, x) for g in gens)}


def id_mask(p, members):
    return sum(1 << p.index(x) for x in set(members))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_interned_operations_agree_with_id_sets(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_size=7)
    ids = p.prefix(p.size)
    a = {x for x in ids if rng.random() < 0.5}
    b = {x for x in ids if rng.random() < 0.5}
    ta = TypeSet.from_mask(p, id_mask(p, a))
    tb = TypeSet.of(p, b)
    assert ta.min_antichain == model_min(p, a)
    assert tb.min_antichain == model_min(p, b)
    assert ta.mask == id_mask(p, ta.min_antichain)
    assert TypeSet.of(p, a) is ta
    assert TypeSet.of(p, ta.min_antichain) is ta
    u = ta.union(tb)
    assert u.min_antichain == model_min(p, a | b)
    assert u is TypeSet.of(p, a | b)
    up_a, up_b = model_upper(p, a, ids), model_upper(p, b, ids)
    assert ta._upper() == id_mask(p, up_a)
    assert u._upper() == id_mask(p, up_a | up_b)
    assert (ta.union(tb) is tb) == (up_a <= up_b)
    assert (tb.union(ta) is ta) == (up_b <= up_a)
    assert bool(ta) == bool(a) and (ta.mask == 0) == (not a)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_direct_construction_carries_the_interned_mask(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_size=7)
    ids = p.prefix(p.size)
    a = {x for x in ids if rng.random() < 0.5}
    interned = TypeSet.of(p, a)
    # the drawn members unnormalized, in a shuffled order
    shuffled = sorted(a)
    rng.shuffle(shuffled)
    for given_ids in (interned.min_antichain, tuple(shuffled)):
        direct = TypeSet(p, given_ids)
        assert direct is not interned
        assert direct == interned and hash(direct) == hash(interned)
        assert direct.mask == interned.mask
        assert repr(direct) == repr(interned)
        assert direct.serialize() == interned.serialize()
    assert TypeSet(p, ()).mask == TypeSet.from_mask(p, 0).mask == 0


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_cached_entries_stay_valid_as_the_prefix_grows(seed):
    """Query a lazily enumerated poset between growth steps; each cached
    answer must still match the model once the whole order is seen."""
    rng = random.Random(seed)
    order = random_poset(rng, max_size=8)
    ids = order.prefix(order.size)
    grown = Poset.generated("grown", lambda i: ids[i - 1], order.leq)
    asked = []
    for k in range(1, len(ids) + 1):
        grown.ensure(k)
        seen = ids[:k]
        gens = {x for x in seen if rng.random() < 0.5}
        t = TypeSet.of(grown, gens)
        assert t.min_antichain == model_min(order, gens)
        asked.append((gens, t))
        for old_gens, old in asked:
            assert TypeSet.of(grown, old_gens) is old
            up = model_upper(order, old_gens, seen)
            assert old._upper() == id_mask(grown, up)
    for (ga, ta), (gb, tb) in zip(asked, asked[1:]):
        assert ta.union(tb).min_antichain == model_min(order, ga | gb)
        assert (ta.union(tb) is tb) == (model_upper(order, ga, ids)
                                        <= model_upper(order, gb, ids))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_members_is_the_up_closure_of_the_antichain(seed):
    """members(h) reads the up-set masks; the reference asks the order
    pair by pair.  Checked on a finite poset and on the same order grown
    one element at a time, at every horizon up to the one enumerated."""
    rng = random.Random(seed)
    order = random_poset(rng, max_size=8)
    ids = order.prefix(order.size)
    gens = {x for x in ids if rng.random() < 0.5}
    t = TypeSet.of(order, gens)
    for h in range(order.size + 2):
        assert t.members(h) == ref_up_closure(order, t.min_antichain, h)
    grown = Poset.generated("grown", lambda i: ids[i - 1], order.leq)
    made = []
    for k in range(1, len(ids) + 1):
        grown.ensure(k)
        made.append(TypeSet.of(grown, {x for x in ids[:k]
                                       if rng.random() < 0.5}))
        for old in made:
            for h in range(k + 1):
                assert old.members(h) == ref_up_closure(
                    grown, old.min_antichain, h)
