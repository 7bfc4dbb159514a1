"""Upper sets and their minimal-antichain normal form."""
import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lt, random_poset, ref_up_closure
from stonetrim import Poset, PosetError, TypeSet


def members(t: TypeSet, h: int) -> frozenset:
    """Ids of the upper set t denotes, within the first h elements."""
    return t.poset.ids_of(t.poset.upper_of(t.mask) & t.poset.prefix_mask(h))


class TestNormalization:
    def test_collapses_to_minimal_antichain(self, diamond):
        t = TypeSet.of(diamond, {"a", "b", "c", "d"})
        assert t.min_antichain == ("a",)

    def test_sorted_by_enumeration_index(self, diamond):
        t = TypeSet.of(diamond, {"d", "c", "b"})
        assert t.min_antichain == ("b", "c")

    def test_idempotent(self, vee):
        t = TypeSet.of(vee, {"b", "c"})
        assert TypeSet.of(vee, members(t, 3)) == t

    def test_direct_construction_normalizes(self, vee):
        direct = TypeSet(vee, ("c", "b"))
        assert direct == TypeSet.of(vee, {"b", "c"})
        assert hash(direct) == hash(TypeSet.of(vee, {"b", "c"}))
        assert direct.min_antichain == ("b", "c")
        above = TypeSet(vee, ("a", "b"))
        assert above == TypeSet.of(vee, {"a"})
        assert above.serialize() == ["a"] and above.mask == 0b10

    def test_copies_re_intern(self, vee):
        # a type set is its poset and generator mask, and nothing else
        assert TypeSet.__slots__ == ("poset", "mask")
        t = TypeSet.of(vee, {"b", "c"})
        assert copy.copy(t) == t
        assert copy.copy(TypeSet(vee, ("c", "b"))) == t
        # a deep copy of the poset gives equal masks over the copy
        twin = copy.deepcopy(vee)
        copied = TypeSet.of(twin, {"b", "c"})
        assert copied.poset is twin
        assert copied.mask == t.mask and copied != t
        assert copy.deepcopy(t).mask == t.mask

    def test_unknown_member_rejected(self, diamond):
        with pytest.raises(PosetError, match="zz"):
            TypeSet.of(diamond, {"a", "zz"})

    def test_empty(self, diamond):
        e = TypeSet.from_mask(diamond, 0)
        assert e.mask == 0 and not e
        assert repr(e) == "TypeSet(∅)"
        assert members(e, 4) == frozenset()


class TestQueries:
    def test_contains(self, diamond):
        up = diamond.upper_of(TypeSet.of(diamond, {"b"}).mask)
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
        assert members(t, 4) == {"b", "c", "d"}

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
        assert d.union(b) == b
        assert b.union(d) != d
        assert TypeSet.from_mask(diamond, 0).union(d) == d


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
        x for x in ids if x in a and not any(lt(p, y, x) for y in a))
    brute = {x for x in ids if any(p.leq(g, x) for g in a)}
    assert members(ta, h) == brute
    assert members(ta.union(tb), h) == members(ta, h) | members(tb, h)
    assert (ta.union(tb) == tb) == (members(ta, h) <= members(tb, h))


# ----------------------------------------------------------------------
# mask-backed type sets against a model of plain id sets

def model_min(p, gens):
    """Minimal members of gens, in enumeration order."""
    return tuple(sorted((x for x in gens
                         if not any(lt(p, y, x) for y in gens)),
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
    assert TypeSet.of(p, a) == ta
    assert TypeSet.of(p, ta.min_antichain) == ta
    u = ta.union(tb)
    assert u.min_antichain == model_min(p, a | b)
    assert u == TypeSet.of(p, a | b)
    up_a, up_b = model_upper(p, a, ids), model_upper(p, b, ids)
    assert p.upper_of(ta.mask) == id_mask(p, up_a)
    assert p.upper_of(u.mask) == id_mask(p, up_a | up_b)
    assert (ta.union(tb) == tb) == (up_a <= up_b)
    assert (tb.union(ta) == ta) == (up_b <= up_a)
    assert bool(ta) == bool(a) and (ta.mask == 0) == (not a)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_direct_construction_carries_the_interned_mask(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_size=7)
    ids = p.prefix(p.size)
    a = {x for x in ids if rng.random() < 0.5}
    t = TypeSet.of(p, a)
    # the drawn members unnormalized, in a shuffled order
    shuffled = sorted(a)
    rng.shuffle(shuffled)
    for given_ids in (t.min_antichain, tuple(shuffled)):
        direct = TypeSet(p, given_ids)
        assert direct is not t
        assert direct == t and hash(direct) == hash(t)
        assert direct.mask == t.mask
        assert repr(direct) == repr(t)
        assert direct.serialize() == t.serialize()
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
            assert TypeSet.of(grown, old_gens) == old
            up = model_upper(order, old_gens, seen)
            assert grown.upper_of(old.mask) == id_mask(grown, up)
    for (ga, ta), (gb, tb) in zip(asked, asked[1:]):
        assert ta.union(tb).min_antichain == model_min(order, ga | gb)
        assert (ta.union(tb) == tb) == (model_upper(order, ga, ids)
                                        <= model_upper(order, gb, ids))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_members_is_the_up_closure_of_the_antichain(seed):
    """The up-closure mask reads the up-set rows; the reference asks the order
    pair by pair.  Checked on a finite poset and on the same order grown
    one element at a time, at every horizon up to the one enumerated."""
    rng = random.Random(seed)
    order = random_poset(rng, max_size=8)
    ids = order.prefix(order.size)
    gens = {x for x in ids if rng.random() < 0.5}
    t = TypeSet.of(order, gens)
    for h in range(order.size + 2):
        assert members(t, h) == ref_up_closure(order, t.min_antichain, h)
    grown = Poset.generated("grown", lambda i: ids[i - 1], order.leq)
    made = []
    for k in range(1, len(ids) + 1):
        grown.ensure(k)
        made.append(TypeSet.of(grown, {x for x in ids[:k]
                                       if rng.random() < 0.5}))
        for old in made:
            for h in range(k + 1):
                assert members(old, h) == ref_up_closure(
                    grown, old.min_antichain, h)
