"""Clopen-set ring: canonical form, set algebra, trim splits, axioms."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_ab_poset, diamond_poset, random_poset
from stonetrim import (BuildConfig, RingElement, RingError, TypeSet,
                       build_levels, is_trim_for, split_by_scarce_atoms,
                       supertrim_split, trim_split, verify_type_axioms)


@pytest.fixture(scope="module")
def chain_tree():
    return build_levels(BuildConfig(chain_ab_poset()), 5)


@pytest.fixture(scope="module")
def diamond_tree():
    return build_levels(BuildConfig(diamond_poset()), 4)


@pytest.fixture(scope="module")
def pinf_tree():
    cfg = BuildConfig(chain_ab_poset(), bounded={"a"}, noncompact={"b"})
    return build_levels(cfg, 4)


def atom_of_type(tree, level, type_ix, skip=0):
    lvl = tree.level(level)
    hits = [i for i, t in enumerate(lvl.types) if t == type_ix]
    return hits[skip]


class TestCanonicalForm:
    def test_full_level_is_the_whole(self, chain_tree):
        full = chain_tree.level(3).full_mask
        assert RingElement(chain_tree, 3, full) == RingElement.whole(chain_tree)
        assert RingElement(chain_tree, 2, 0b111).level == 1

    def test_partial_sibling_block_stays_put(self, chain_tree):
        x = RingElement(chain_tree, 2, 0b011)
        assert x.level == 2 and x.mask == 0b011

    def test_zero_mask_is_the_empty_element(self, chain_tree):
        assert RingElement(chain_tree, 3, 0) == RingElement.empty(chain_tree)
        assert not RingElement.empty(chain_tree)

    def test_unattached_atoms_block_lowering(self, pinf_tree):
        full3 = pinf_tree.level(3).full_mask
        x = RingElement(pinf_tree, 3, full3)
        assert x.level == 3 and x.mask == full3
        assert x != RingElement.whole(pinf_tree)
        assert RingElement.whole(pinf_tree).mask_at(3) == full3 & ~(1 << 8)

    def test_constructor_bounds(self, chain_tree):
        with pytest.raises(RingError, match="outside built depth"):
            RingElement(chain_tree, 0, 0)
        with pytest.raises(RingError, match="outside built depth"):
            RingElement(chain_tree, 6, 0)
        with pytest.raises(RingError, match="outside the level"):
            RingElement(chain_tree, 1, 0b10)

    def test_atom_views(self, chain_tree):
        x = RingElement(chain_tree, 2, 0b101)
        assert x.atom_count() == 2
        assert x.atom_indices() == [0, 2]
        assert x.atom_type_ids() == ["a", "b"]


class TestLifting:
    def test_mask_at_spans_child_blocks(self, chain_tree):
        root = RingElement.atom(chain_tree, 1, 0)
        assert root.mask_at(2) == 0b111
        assert root.mask_at(3) == chain_tree.level(3).full_mask

    def test_mask_at_rejects_higher_level(self, chain_tree):
        x = RingElement(chain_tree, 3, 0b1)
        with pytest.raises(RingError, match="above its level"):
            x.mask_at(2)
        with pytest.raises(RingError, match="not built"):
            x.mask_at(9)

    def test_lift_skips_unattached_atoms(self, pinf_tree):
        b_atom = RingElement.atom(pinf_tree, 2, 2)
        assert b_atom.mask_at(3) == 0b11000000


class TestSetAlgebra:
    def test_matches_set_semantics(self, chain_tree):
        rng = random.Random(7)
        deep = 4
        size3 = len(chain_tree.level(3))
        size4 = len(chain_tree.level(deep))

        def bits(mask):
            return {i for i in range(size4) if mask >> i & 1}

        for _ in range(200):
            a = RingElement(chain_tree, 3, rng.getrandbits(size3))
            b = RingElement(chain_tree, deep, rng.getrandbits(size4))
            sa, sb = bits(a.mask_at(deep)), bits(b.mask_at(deep))
            assert bits(a.union(b).mask_at(deep)) == sa | sb
            assert bits(a.intersect(b).mask_at(deep)) == sa & sb
            assert bits(a.difference(b).mask_at(deep)) == sa - sb
            assert bits(a.symmetric_difference(b).mask_at(deep)) == sa ^ sb
            assert a.contains(b) == (sb <= sa)
            assert a.disjoint_from(b) == (not sa & sb)

    def test_complement_is_relative_to_the_full_level(self, pinf_tree):
        whole = RingElement.whole(pinf_tree)
        rest = whole.complement(at_level=3)
        assert rest.level == 3 and rest.mask == 1 << 8
        assert rest.atom_type_ids() == ["b"]

    def test_complement_default_level(self, chain_tree):
        x = RingElement(chain_tree, 2, 0b001)
        assert x.complement().mask == 0b110

    def test_foreign_tree_rejected(self, chain_tree, diamond_tree):
        with pytest.raises(RingError, match="different skeletons"):
            RingElement.whole(chain_tree).union(RingElement.whole(diamond_tree))


class TestTypes:
    def test_type_counts_frozen(self, chain_tree):
        lvl3 = chain_tree.level(3)
        b_all = RingElement(chain_tree, 3, lvl3.type_mask(2))
        assert b_all.mask == 0b11100100
        assert b_all.type_counts() == {"b": 4}
        assert b_all.trim_generator() == "b"
        mixed = RingElement(chain_tree, 3, 0b011)
        assert mixed.type_counts() == {"a": 2}
        assert mixed.type_of().min_antichain == ("a",)

    def test_empty_types(self, chain_tree):
        assert RingElement.empty(chain_tree).type_of().is_empty()
        assert RingElement.empty(chain_tree).trim_generator() is None

    def test_whole_realizes_everything(self, diamond_tree):
        t = RingElement.whole(diamond_tree).at(4).type_of()
        assert t.min_antichain == ("a",)


class TestTrimSplit:
    def build_mixed(self, diamond_tree):
        bits = (atom_of_type(diamond_tree, 4, 2),
                atom_of_type(diamond_tree, 4, 3),
                atom_of_type(diamond_tree, 4, 4))
        mask = sum(1 << i for i in bits)
        return bits, RingElement(diamond_tree, 4, mask)

    def test_first_generator_takes_shared_atoms(self, diamond_tree):
        (b_i, c_i, d_i), x = self.build_mixed(diamond_tree)
        parts = dict(trim_split(x))
        assert sorted(parts) == ["b", "c"]
        assert parts["b"].atom_indices() == sorted([b_i, d_i])
        assert parts["c"].atom_indices() == [c_i]

    def test_parts_partition_and_are_trim(self, diamond_tree):
        _, x = self.build_mixed(diamond_tree)
        parts = trim_split(x)
        union = RingElement.empty(diamond_tree)
        for g, part in parts:
            assert is_trim_for(part, g)
            assert x.contains(part)
            union = union.union(part)
        assert union == x
        for i, (_, p) in enumerate(parts):
            for _, q in parts[i + 1:]:
                assert p.disjoint_from(q)

    def test_empty_splits_to_nothing(self, diamond_tree):
        assert trim_split(RingElement.empty(diamond_tree)) == []


class TestScarceSplit:
    def test_one_generator_atom_per_piece(self, chain_tree):
        lvl = chain_tree.level(4)
        a_bits = [i for i, t in enumerate(lvl.types) if t == 1][:3]
        b_bits = [i for i, t in enumerate(lvl.types) if t == 2][:2]
        x = RingElement(chain_tree, 4, sum(1 << i for i in a_bits + b_bits))
        pieces = split_by_scarce_atoms(x, "a")
        assert len(pieces) == 3
        assert pieces[0].atom_indices() == sorted([a_bits[0]] + b_bits)
        assert [p.atom_indices() for p in pieces[1:]] == [[a_bits[1]],
                                                          [a_bits[2]]]
        whole = RingElement.empty(chain_tree)
        for p in pieces:
            whole = whole.union(p)
        assert whole == x

    def test_single_atom_part_stays_whole(self, chain_tree):
        x = RingElement.atom(chain_tree, 3, 0)
        assert split_by_scarce_atoms(x, "a") == [x]

    def test_supertrim_refines_isolated_generators_only(self, chain_tree):
        lvl = chain_tree.level(4)
        a_bits = [i for i, t in enumerate(lvl.types) if t == 1][:2]
        b_bits = [i for i, t in enumerate(lvl.types) if t == 2][:2]
        x = RingElement(chain_tree, 4, sum(1 << i for i in a_bits + b_bits))
        plain = supertrim_split(x, isolated=frozenset())
        assert [g for g, _ in plain] == ["a"]
        refined = supertrim_split(x, isolated=frozenset({"a"}))
        assert [g for g, _ in refined] == ["a", "a"]
        for g, piece in refined:
            assert is_trim_for(piece, g)
            assert piece.type_counts()[g] == 1


class TestAxioms:
    def test_chain_passes(self, chain_tree):
        report = verify_type_axioms(chain_tree, 4, draws=2000, seed=0)
        assert report["passed"] is True
        assert sorted(report["axioms"]) == ["empty-detection",
                                            "types-persist",
                                            "types-realized",
                                            "union-additive",
                                            "upward-closed"]
        for axiom in report["axioms"].values():
            assert axiom["status"] == "pass"
            assert axiom["violations"] == 0
            assert axiom["checked"] > 0

    def test_depth_guard(self, chain_tree):
        with pytest.raises(RingError, match="level_bound"):
            verify_type_axioms(chain_tree, 5)

    def test_tampered_skeleton_is_caught(self):
        tree = build_levels(BuildConfig(chain_ab_poset()), 4)
        lvl3 = tree.level(3)
        lvl3.types = [2 if t == 1 else t for t in lvl3.types]
        lvl3._masks.clear()
        report = verify_type_axioms(tree, 3, draws=500, seed=0)
        assert report["passed"] is False
        assert report["axioms"]["types-realized"]["status"] == "fail"
        assert "absent at level 3" in report["axioms"]["types-realized"]["witness"]
        assert report["axioms"]["types-persist"]["status"] == "fail"



def bit_set(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def leaf_set(tree, level, mask, depth):
    """Leaves at depth whose ancestor on the given level is in mask, found
    by walking parent pointers."""
    out = set()
    for j in range(len(tree.level(depth))):
        n, i = depth, j
        while n > level and i is not None:
            n, i = n - 1, tree.level(n).parent[i]
        if i is not None and mask >> i & 1:
            out.add(j)
    return out


@given(seed=st.integers(0, 10 ** 6), isolate=st.booleans(),
       depth=st.integers(4, 5))
@settings(max_examples=40, deadline=None)
def test_ring_agrees_with_leaf_sets(seed, isolate, depth):
    rng = random.Random(seed)
    poset = random_poset(rng)
    ids = poset.prefix(poset.size)
    isolated = {rng.choice(ids)} if isolate else set()
    tree = build_levels(BuildConfig(poset, isolated=isolated), depth)
    leaves = tree.level(depth)

    def draw():
        n = rng.randint(1, depth)
        mask = rng.getrandbits(len(tree.level(n)))
        x = RingElement(tree, n, mask)
        want = leaf_set(tree, n, mask, depth)
        assert bit_set(x.mask_at(depth)) == want
        return x, want

    for _ in range(8):
        (x, a), (y, b) = draw(), draw()
        for got, want in ((x.union(y), a | b), (x.intersect(y), a & b),
                          (x.difference(y), a - b)):
            assert bit_set(got.mask_at(depth)) == want
            assert got == RingElement(tree, depth, sum(1 << j for j in want))
            types = {poset.id_at(leaves.types[j]) for j in want}
            assert got.type_of() == TypeSet.of(poset, types)
            assert got.type_of().members(len(ids)) == {
                q for q in ids if any(poset.leq(t, q) for t in types)}
