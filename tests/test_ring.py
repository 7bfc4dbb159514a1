"""Clopen-set ring: canonical form, set algebra, trim splits, axioms."""
import hashlib
import json
import os
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chain_ab_poset, diamond_poset, listed_in,
                      random_poset, ref_persist_rows, ref_up_closure,
                      ring_key, run_main, vee_poset)
from stonetrim import (BuildConfig, Poset, RingElement, RingError, TypeSet,
                       build_levels, family, is_trim_for,
                       split_by_scarce_atoms, supertrim_split, trim_split,
                       verify_structure, verify_type_axioms)
from stonetrim import ring, skeleton
from stonetrim.poset import bits, runs
from stonetrim.ring import _lower, _types_in
from stonetrim.skeleton import SkeletonTree
from test_acceptance import CONFIGS as CRITERION_1


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
        assert ring_key(RingElement(chain_tree, 3, full)) == (1, 1)
        assert RingElement(chain_tree, 2, 0b111).level == 1

    def test_partial_sibling_block_stays_put(self, chain_tree):
        x = RingElement(chain_tree, 2, 0b011)
        assert x.level == 2 and x.mask == 0b011

    def test_zero_mask_is_the_empty_element(self, chain_tree):
        assert ring_key(RingElement(chain_tree, 3, 0)) == ring_key(
            RingElement.empty(chain_tree))
        assert not RingElement.empty(chain_tree)

    def test_unattached_atoms_block_lowering(self, pinf_tree):
        full3 = pinf_tree.level(3).full_mask
        x = RingElement(pinf_tree, 3, full3)
        assert x.level == 3 and x.mask == full3
        assert ring_key(x) != (1, 1)
        assert RingElement(pinf_tree, 1, 1).mask_at(3) == full3 & ~(1 << 8)

    def test_constructor_bounds(self, chain_tree):
        with pytest.raises(RingError, match="outside built depth"):
            RingElement(chain_tree, 0, 0)
        with pytest.raises(RingError, match="outside built depth"):
            RingElement(chain_tree, 6, 0)
        with pytest.raises(RingError, match="outside the level"):
            RingElement(chain_tree, 1, 0b10)

    def test_atom_views(self, chain_tree):
        x = RingElement(chain_tree, 2, 0b101)
        assert x.level == 2 and list(bits(x.mask)) == [0, 2]
        types = chain_tree.level(2).types
        assert [types[i] for i in bits(x.mask)] == [1, 2]    # a, b


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
        whole = RingElement(pinf_tree, 1, 1)
        rest = whole.complement(at_level=3)
        assert rest.level == 3 and rest.mask == 1 << 8
        types = pinf_tree.level(3).types
        assert [types[i] for i in bits(rest.mask)] == [2]    # b

    def test_complement_default_level(self, chain_tree):
        x = RingElement(chain_tree, 2, 0b001)
        assert x.complement().mask == 0b110
        # level 0 is given, not defaulted, and lies above every element
        for y in (x, RingElement(chain_tree, 1, 1)):
            for n in (0, -1):
                with pytest.raises(RingError, match="above its level"):
                    y.complement(at_level=n)

    def test_foreign_tree_rejected(self, chain_tree, diamond_tree):
        with pytest.raises(RingError, match="different skeletons"):
            RingElement(chain_tree, 1, 1).union(
                RingElement(diamond_tree, 1, 1))


class TestTypes:
    def test_type_counts_frozen(self, chain_tree):
        lvl3 = chain_tree.level(3)
        b_all = RingElement(chain_tree, 3, lvl3.type_mask(2))
        assert b_all.mask == 0b11100100
        assert [lvl3.types[i] for i in bits(b_all.mask)] == [2] * 4
        assert b_all.type_of() == 1 << 2
        mixed = RingElement(chain_tree, 3, 0b011)
        assert [lvl3.types[i] for i in bits(mixed.mask)] == [1] * 2
        assert mixed.type_of() == 1 << chain_tree.poset.index("a")

    def test_empty_types(self, chain_tree):
        assert RingElement.empty(chain_tree).type_of() == 0

    def test_whole_realizes_everything(self, diamond_tree):
        whole = RingElement(diamond_tree, 1, 1)
        t = RingElement(diamond_tree, 4, whole.mask_at(4)).type_of()
        assert t == 1 << diamond_tree.poset.index("a")


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
        assert sorted(parts) == [2, 3]
        assert list(bits(parts[2].mask)) == sorted([b_i, d_i])
        assert list(bits(parts[3].mask)) == [c_i]

    def test_parts_partition_and_are_trim(self, diamond_tree):
        _, x = self.build_mixed(diamond_tree)
        parts = trim_split(x)
        union = RingElement.empty(diamond_tree)
        for g, part in parts:
            assert is_trim_for(part, g)
            assert x.contains(part)
            union = union.union(part)
        assert ring_key(union) == ring_key(x)
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
        pieces = split_by_scarce_atoms(x, 1)
        assert len(pieces) == 3
        assert list(bits(pieces[0].mask)) == sorted([a_bits[0]] + b_bits)
        assert [list(bits(p.mask)) for p in pieces[1:]] == [[a_bits[1]],
                                                          [a_bits[2]]]
        whole = RingElement.empty(chain_tree)
        for p in pieces:
            whole = whole.union(p)
        assert ring_key(whole) == ring_key(x)

    def test_single_atom_part_stays_whole(self, chain_tree):
        x = RingElement.atom(chain_tree, 3, 0)
        assert split_by_scarce_atoms(x, 1) == [x]

    def test_supertrim_refines_isolated_generators_only(self, chain_tree):
        lvl = chain_tree.level(4)
        a_bits = [i for i, t in enumerate(lvl.types) if t == 1][:2]
        b_bits = [i for i, t in enumerate(lvl.types) if t == 2][:2]
        x = RingElement(chain_tree, 4, sum(1 << i for i in a_bits + b_bits))
        plain = supertrim_split(x, isolated=0)
        assert [g for g, _ in plain] == [1]
        refined = supertrim_split(x, isolated=1 << 1)
        assert [g for g, _ in refined] == [1, 1]
        for g, piece in refined:
            assert is_trim_for(piece, g)
            own = chain_tree.level(piece.level).type_mask(g)
            assert (piece.mask & own).bit_count() == 1


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
        lvl3.types = array("I", [2 if t == 1 else t for t in lvl3.types])
        lvl3._masks.clear()
        report = verify_type_axioms(tree, 3, draws=500, seed=0)
        assert report["passed"] is False
        assert report["axioms"]["types-realized"]["status"] == "fail"
        assert "absent at level 3" in report["axioms"]["types-realized"]["witness"]
        assert report["axioms"]["types-persist"]["status"] == "fail"

    @staticmethod
    def record_members(tree, level_bound, draws, seed, drop=None):
        """The laws' report with Poset.upper_of passed through drop when
        given, and the member id set of each upward-law draw, read by the
        element-by-element oracle from the brute-force up-closure passed
        through the same drop."""
        poset = tree.poset
        seen = []

        def members(ts, horizon):
            ms = ref_up_closure(poset, ts.min_antichain, horizon)
            if drop is not None:
                ms = poset.ids_of(drop(poset.mask_of(ms)))
            seen.append(ms)
            return ms
        with pytest.MonkeyPatch.context() as mp:
            if drop is not None:
                upper = Poset.upper_of
                mp.setattr(Poset, "upper_of",
                           lambda self, mask: drop(upper(self, mask)))
            report = verify_type_axioms(tree, level_bound, draws=draws,
                                        seed=seed)
        want = verify_type_axioms_oracle(tree, level_bound, draws=draws,
                                         seed=seed, members=members)
        assert report["axioms"]["upward-closed"] == \
            want["axioms"]["upward-closed"]
        return report, seen

    @staticmethod
    def brute_upward_closed(poset, horizon, seen):
        """(checked, violations): one check per member q and prefix r with
        q <= r, a violation when r is not a member."""
        prefix = poset.prefix(horizon)
        pairs = [(q, r) for ms in seen for q in ms for r in prefix
                 if poset.leq(q, r)]
        return len(pairs), sum(r not in ms for ms in seen
                               for q in ms for r in prefix
                               if poset.leq(q, r))

    @given(seed=st.integers(0, 10 ** 6), isolate=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_upward_closed_counts_match_brute_force(self, seed, isolate):
        rng = random.Random(seed)
        poset = random_poset(rng)
        ids = poset.prefix(poset.size)
        isolated = {rng.choice(ids)} if isolate else set()
        tree = build_levels(BuildConfig(poset, isolated=isolated), 5)
        report, seen = self.record_members(tree, 4, 200, seed)
        law = report["axioms"]["upward-closed"]
        assert len(seen) == 200
        assert (law["checked"], law["violations"]) == \
            self.brute_upward_closed(poset, tree.config.type_cap(4), seen)
        assert law["violations"] == 0 and law["witness"] == ""

    def test_upward_closed_witness_is_lowest_index(self):
        tree = build_levels(BuildConfig(diamond_poset()), 5)
        a, d = (1 << tree.poset.index(p) for p in "ad")

        def drop_top(up):
            return up & ~d if up & a else up
        report, seen = self.record_members(tree, 4, 300, 0, drop_top)
        law = report["axioms"]["upward-closed"]
        cut = sum(ms == {"a", "b", "c"} for ms in seen)
        assert cut > 0
        # a, b and c each miss d; the witness names the lowest of them
        assert law["violations"] == 3 * cut
        assert (law["checked"], law["violations"]) == \
            self.brute_upward_closed(tree.poset, 4, seen)
        assert law["status"] == "fail"
        assert law["witness"] == "d missing above a"


def bit_set(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def leaf_set(tree, level, mask, depth):
    """Leaves at depth whose ancestor on the given level is in mask, found
    by walking parent pointers."""
    out = set()
    for j in range(len(tree.level(depth))):
        n, i = depth, j
        while n > level and i is not None:
            n, i = n - 1, tree.level(n).parent_of(i)
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
            assert ring_key(got) == ring_key(
                RingElement(tree, depth, sum(1 << j for j in want)))
            types = {poset.id_at(leaves.types[j]) for j in want}
            got_type = TypeSet.from_mask(poset, got.type_of())
            assert got_type == TypeSet.of(poset, types)
            assert poset.ids_of(poset.upper_of(got_type.mask)) == {
                q for q in ids if any(poset.leq(t, q) for t in types)}


# ----------------------------------------------------------------------
# the mask-level laws against the element-by-element check they replaced

def random_mask(rng, size):
    return rng.getrandbits(size) if size else 0


def verify_type_axioms_oracle(tree, level_bound, draws=10_000, seed=0,
                              members=None):
    """The type function laws checked element by element: every draw
    builds canonical RingElements, types them and compares TypeSets.  The
    upward law reads each draw's members as ids, from members(type set,
    horizon) when given and from the brute-force up-closure otherwise."""
    if level_bound < 1 or level_bound + 1 > tree.depth:
        raise RingError("need depth at least level_bound + 1")
    rng = random.Random(seed)
    poset = tree.poset
    axioms = {}

    def type_set(x):
        return TypeSet.from_mask(poset, x.type_of())

    def record(name, checked, violations, witness=""):
        axioms[name] = {
            "status": "pass" if violations == 0 else "fail",
            "checked": checked, "violations": violations,
            "witness": witness,
        }

    # union additivity: T(x | y) == T(x) | T(y)
    checked = bad = 0
    witness = ""
    for n in range(1, level_bound + 1):
        lvl = tree.level(n)
        if len(lvl) <= 12:
            for i in range(len(lvl)):
                for j in range(len(lvl)):
                    a = RingElement.atom(tree, n, i)
                    b = RingElement.atom(tree, n, j)
                    checked += 1
                    if type_set(a.union(b)) != type_set(a).union(
                            type_set(b)):
                        bad += 1
                        witness = witness or f"atoms {n}.{i} and {n}.{j}"
    per_level = max(1, draws // (2 * level_bound))
    for n in range(1, level_bound + 1):
        size = len(tree.level(n))
        for _ in range(per_level):
            a = RingElement(tree, n, random_mask(rng, size))
            b = RingElement(tree, n, random_mask(rng, size))
            checked += 1
            if type_set(a.union(b)) != type_set(a).union(type_set(b)):
                bad += 1
                witness = witness or f"masks at level {n}"
    record("union-additive", checked, bad, witness)

    # realization: type with index m has an atom on every level from m on
    checked = bad = 0
    witness = ""
    cap = tree.config.type_cap(level_bound)
    for m in range(1, cap + 1):
        for n in range(m, level_bound + 1):
            checked += 1
            if tree.level(n).type_mask(m) == 0:
                bad += 1
                witness = witness or f"type {poset.id_at(m)} absent at level {n}"
    record("types-realized", checked, bad, witness)

    # emptiness: T(x) empty exactly when x is
    checked = bad = 0
    witness = ""
    if RingElement.empty(tree).type_of():
        bad += 1
        witness = "empty element got a nonempty type set"
    checked += 1
    for _ in range(min(draws, 500)):
        n = rng.randint(1, level_bound)
        m = random_mask(rng, len(tree.level(n)))
        if not m:
            continue
        checked += 1
        if not RingElement(tree, n, m).type_of():
            bad += 1
            witness = witness or f"nonempty mask at level {n} typed empty"
    record("empty-detection", checked, bad, witness)

    # persistence: realized types survive one refinement, recomputed from
    # the raw child atoms so a tampered level cannot hide behind lowering
    checked = bad = 0
    witness = ""

    for _ in range(min(draws, 2000)):
        n = rng.randint(1, level_bound)
        m = random_mask(rng, len(tree.level(n)))
        if not m:
            continue
        lifted = poset.upper_of(_types_in(tree, n + 1,
                                          tree.theta_image(n, m)))
        for g in bits(_types_in(tree, n, m)):
            checked += 1
            if not lifted >> g & 1:
                bad += 1
                witness = witness or (f"type {poset.id_at(g)} lost lifting "
                                      f"level {n} to {n + 1}")
    record("types-persist", checked, bad, witness)

    # upward closure: every computed type set is an upper set of the prefix
    checked = bad = 0
    witness = ""
    # one check per (q, r) with q a member and q <= r on the prefix; the
    # witness names the lowest-index q and r
    horizon = tree.config.type_cap(level_bound)
    prefix_mask = (1 << horizon + 1) - 2
    if members is None:
        def members(ts, horizon):
            return ref_up_closure(poset, ts.min_antichain, horizon)
    for _ in range(min(draws, 1000)):
        n = rng.randint(1, level_bound)
        m = random_mask(rng, len(tree.level(n)))
        member_mask = 0
        for q in members(type_set(RingElement(tree, n, m)), horizon):
            member_mask |= 1 << poset.index(q)
        for q in bits(member_mask):
            above = poset.up_mask(q) & prefix_mask
            checked += above.bit_count()
            missing = above & ~member_mask
            if missing:
                bad += missing.bit_count()
                if not witness:
                    r = next(bits(missing))
                    witness = (f"{poset.id_at(r)} missing above "
                               f"{poset.id_at(q)}")
    record("upward-closed", checked, bad, witness)

    return {"passed": all(a["status"] == "pass" for a in axioms.values()),
            "axioms": axioms}


def lower_oracle(tree, level, mask):
    """Canonical lowering by walking every run of the mask."""
    if not mask:
        return 1, 0
    while level > 1:
        lvl = tree.level(level)
        if mask & lvl.u_mask:
            break
        parent_mask = 0
        for a, b in runs(mask):
            p, q = lvl.parent_of(a), lvl.parent_of(b - 1)
            if lvl.bounds[p] != a or lvl.bounds[q + 1] != b:
                return level, mask
            parent_mask |= (1 << q + 1) - (1 << p)
        level, mask = level - 1, parent_mask
    return level, mask


def assert_same_laws(tree, level_bound, draws, seed):
    got = verify_type_axioms(tree, level_bound, draws=draws, seed=seed)
    assert got == verify_type_axioms_oracle(tree, level_bound, draws=draws,
                                            seed=seed)
    return got


def retype_level_3(tree):
    """Give every type-1 node of level 3 type 2."""
    lvl3 = tree.level(3)
    lvl3.types = array("I", [2 if t == 1 else t for t in lvl3.types])
    lvl3._masks.clear()


def tampered_chain_tree():
    """The chain tree of test_tampered_skeleton_is_caught."""
    tree = build_levels(BuildConfig(chain_ab_poset()), 4)
    retype_level_3(tree)
    return tree


class TestLawsMatchTheElementOracle:
    @given(seed=st.integers(0, 10 ** 6), isolate=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_posets(self, seed, isolate):
        rng = random.Random(seed)
        poset = random_poset(rng)
        ids = poset.prefix(poset.size)
        isolated = {rng.choice(ids)} if isolate else set()
        tree = build_levels(BuildConfig(poset, isolated=isolated), 5)
        assert_same_laws(tree, 4, draws=400, seed=seed)

    @pytest.mark.parametrize("name,maker,kw,single", CRITERION_1)
    def test_criterion_1_posets(self, name, maker, kw, single):
        for iso in (frozenset(), frozenset({single})):
            tree = build_levels(BuildConfig(maker(), isolated=iso, **kw), 6)
            assert assert_same_laws(tree, 5, draws=1500, seed=3)["passed"]

    def test_tampered_chain_tree(self):
        report = assert_same_laws(tampered_chain_tree(), 3, draws=500, seed=0)
        assert report["axioms"]["types-persist"]["status"] == "fail"

    def test_tree_with_persistence_violations(self):
        # every b of level 4 retyped d: b is lost whenever it generates
        tree = build_levels(BuildConfig(diamond_poset()), 5)
        lvl4 = tree.level(4)
        lvl4.types = array("I", [4 if t == 2 else t for t in lvl4.types])
        lvl4._masks.clear()
        report = assert_same_laws(tree, 4, draws=2000, seed=5)
        law = report["axioms"]["types-persist"]
        assert law["violations"] > 1
        assert law["witness"] == "type b lost lifting level 3 to 4"

    @given(seed=st.integers(0, 10 ** 6), isolate=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_lowering_matches_the_run_walk(self, seed, isolate):
        rng = random.Random(seed)
        poset = random_poset(rng)
        ids = poset.prefix(poset.size)
        isolated = {rng.choice(ids)} if isolate else set()
        tree = build_levels(BuildConfig(poset, isolated=isolated), 5)
        for n in range(1, 6):
            size = len(tree.level(n))
            masks = [random_mask(rng, size) for _ in range(40)]
            # unions of whole child blocks of random level n-1 masks
            if n > 1:
                masks += [tree.theta_image(n - 1, random_mask(
                    rng, len(tree.level(n - 1)))) for _ in range(40)]
            for m in masks:
                assert _lower(tree, n, m) == lower_oracle(tree, n, m)


def test_lowering_matches_the_run_walk_on_a_wide_level():
    """Lifts of many-run masks onto omega-chain's level 8 (20 793 nodes)
    lower as the run walk lowers them, and as the masks themselves lower;
    so do the same lifts short of their last atom, which stay on level 8."""
    tree = build_levels(BuildConfig(family("omega-chain")), 8)
    rng = random.Random(24)
    widest = 0
    for n in (6, 7):
        lvl = tree.level(n)
        masks = list(lvl.type_masks().values())
        masks += [rng.getrandbits(len(lvl)) for _ in range(3)]
        for mask in masks:
            lifted = mask
            for k in range(n, 8):
                lifted = tree.theta_image(k, lifted)
            widest = max(widest, sum(1 for _ in runs(lifted)))
            got = _lower(tree, 8, lifted)
            assert got == lower_oracle(tree, 8, lifted)
            assert got == _lower(tree, n, mask)
            cut = lifted & ~(1 << lifted.bit_length() - 1)
            assert _lower(tree, 8, cut) == lower_oracle(tree, 8, cut) \
                == (8, cut)
    assert widest > 1000


@given(seed=st.integers(0, 10 ** 6), isolate=st.booleans())
@settings(max_examples=30, deadline=None)
def test_unions_that_stay_on_their_level_realize_the_or(seed, isolate):
    """The ground for counting same-level union draws without typing them:
    where _lower keeps a, b and a | b on level n, the types the atoms of
    a | b carry are those of a ORed with those of b."""
    rng = random.Random(seed)
    poset = random_poset(rng)
    ids = poset.prefix(poset.size)
    isolated = {rng.choice(ids)} if isolate else set()
    tree = build_levels(BuildConfig(poset, isolated=isolated), 5)
    for n in range(1, 6):
        lvl = tree.level(n)

        def realized(mask):
            return sum({1 << lvl.types[i] for i in bits(mask)})

        masks = [random_mask(rng, len(lvl)) for _ in range(30)]
        if n > 1:
            # unions of whole child blocks, which drop a level
            masks += [tree.theta_image(n - 1, random_mask(
                rng, len(tree.level(n - 1)))) for _ in range(10)]
        rng.shuffle(masks)
        for ma, mb in zip(masks[::2], masks[1::2]):
            if all(_lower(tree, n, m)[0] == n for m in (ma, mb, ma | mb)):
                assert realized(ma | mb) == realized(ma) | realized(mb)


def assert_persist_rows_match(tree):
    """_persist_rows on every level with a level below it gives the rows
    of the node-by-node lift."""
    for n in range(1, tree.depth):
        assert (sorted(ring._persist_rows(tree, n))
                == sorted(ref_persist_rows(tree, n)))


class TestPersistRows:
    @pytest.mark.parametrize("name,maker,kw,single", CRITERION_1)
    def test_criterion_1_builds(self, name, maker, kw, single):
        for iso in (frozenset(), frozenset({single})):
            tree = build_levels(BuildConfig(maker(), isolated=iso, **kw), 7)
            assert_persist_rows_match(tree)

    def test_dyadic_build(self):
        assert_persist_rows_match(build_levels(BuildConfig(family("dyadic")),
                                               7))

    @given(seed=st.integers(0, 10 ** 6), isolate=st.booleans(),
           bucket=st.sampled_from(["auto", "noncompact", "unbounded"]))
    @settings(max_examples=40, deadline=None)
    def test_random_posets(self, seed, isolate, bucket):
        rng = random.Random(seed)
        poset = random_poset(rng)
        isolated = ({rng.choice(poset.prefix(poset.size))} if isolate
                    else set())
        # built without validation, as some of these configs break the
        # existence hypotheses
        assert_persist_rows_match(SkeletonTree(
            BuildConfig(poset, isolated=isolated,
                        **listed_in(bucket, poset.prefix(poset.size))), 5))

    def test_tampered_levels(self):
        tree = tampered_chain_tree()
        assert_persist_rows_match(tree)
        lvl = tree.level(4)
        lvl.types[-1] = 1
        lvl._masks.clear()
        assert_persist_rows_match(tree)

    def test_laws_past_the_level_bound(self, monkeypatch):
        """omega-chain's level 9 holds 103 049 nodes and level 10 518 859:
        the rows of level 9 are read in time linear in the two widths,
        where a node-by-node lift is quadratic."""
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", 1 << 20)
        tree = build_levels(BuildConfig(family("omega-chain")), 10)
        report = verify_type_axioms(tree, 9)
        assert report["passed"]
        assert report["axioms"]["types-persist"]["checked"] > 0


def tampered_dyadic_tree():
    """dyadic to depth 7 with the two 1/2 children of node 5.3 retyped 1,
    at index 2: its child block 1/2, 1/2, 1, 3/4, 7/8 becomes 1, 1, 1,
    3/4, 7/8, so 1/2 there has no continuation child, and the retyped
    nodes keep the child blocks of a 1/2."""
    tree = SkeletonTree(BuildConfig(family("dyadic")), 7)
    poset, lvl = tree.poset, tree.level(6)
    start, end = tree.children_span(5, 3)
    assert list(map(poset.id_at, lvl.types[start:end])) == [
        "1/2", "1/2", "1", "3/4", "7/8"]
    half = poset.index("1/2")
    for i in range(start, end):
        if lvl.types[i] == half:
            lvl.types[i] = 2
    lvl._masks.clear()
    return tree


class TestLostContinuation:
    """A one-node tamper that the structure check and the rows of
    ``_persist_rows`` show, and the sampled laws miss (ROADMAP item 27)."""

    def test_the_structure_check_fails_at_levels_5_and_6(self):
        report = verify_structure(tampered_dyadic_tree())
        assert [name for name, ok, _ in report.checks if not ok] == [
            "continuation-children@5", "continuation-children@6"]

    def test_a_row_of_levels_5_and_6_has_another_minimal_child_type(self):
        tree = tampered_dyadic_tree()
        fresh = SkeletonTree(BuildConfig(family("dyadic")), 7)
        for n in range(1, 7):
            for t, want in ((tree, n in (5, 6)), (fresh, False)):
                minimal_in = t.poset.minimal_in
                assert any(minimal_in(kids) != own for own, kids, _
                           in ring._persist_rows(t, n)) is want, n

    @pytest.mark.xfail(strict=True, reason=(
        "the sampled laws pass this tamper at every seed; ROADMAP item 27 "
        "decides them on every row"))
    @pytest.mark.parametrize("seed", range(5))
    def test_the_sampled_laws_fail(self, seed):
        report = verify_type_axioms(tampered_dyadic_tree(), 6, 10_000, seed)
        assert report["passed"] is False


def drop_last_lowered_parent(lower):
    def mutated(tree, level, mask):
        got_level, got = lower(tree, level, mask)
        if got_level < level and got:
            got &= ~(1 << got.bit_length() - 1)
        return got_level, got
    return mutated


def drop_last_child_block(theta_image):
    """The lift to level k, n + 1 when not given, made truly to level
    k - 1 and then short of the last child block on level k."""
    def mutated(self, n, mask, k=None):
        k = k or n + 1
        out = theta_image(self, n, mask, k - 1)
        if out:
            kids, i = self.level(k), out.bit_length() - 1
            out = theta_image(self, k - 1, out, k) & ~(
                (1 << kids.bounds[i + 1]) - (1 << kids.bounds[i]))
        return out
    return mutated


def skip_last_type(types_in):
    def mutated(tree, level, mask):
        realized = 0
        for t, atoms in list(tree.level(level).type_masks().items())[:-1]:
            if atoms & mask:
                realized |= 1 << t
        return tree.poset.minimal_in(realized)
    return mutated


MUTATIONS = [(ring, "_lower", drop_last_lowered_parent),
             (SkeletonTree, "theta_image", drop_last_child_block),
             (ring, "_types_in", skip_last_type)]


@pytest.mark.parametrize("owner,name,mutate", MUTATIONS)
@pytest.mark.parametrize("maker", [diamond_poset, chain_ab_poset])
def test_a_failing_draw_counts_every_time_it_repeats(owner, name, mutate,
                                                      maker):
    """Union draws repeat, mostly on small levels; the law decides each
    distinct draw once per call, but must count it at every repeat, as
    the element-by-element oracle does."""
    tree = build_levels(BuildConfig(maker()), 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, mutate(getattr(owner, name)))
        got = verify_type_axioms(tree, 4, draws=1000, seed=0)["axioms"]
        want = verify_type_axioms_oracle(tree, 4, draws=1000,
                                         seed=0)["axioms"]
    assert got["union-additive"]["violations"] > 0
    for law in ("union-additive", "upward-closed"):
        assert got[law] == want[law]


def test_an_empty_element_typed_nonempty_fails_emptiness():
    tree = build_levels(BuildConfig(diamond_poset()), 5)
    types_in = ring._types_in
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_types_in", lambda tree, level, mask: types_in(
            tree, *((1, 1) if mask == 0 else (level, mask))))
        law = verify_type_axioms(tree, 4, draws=200)["axioms"][
            "empty-detection"]
    assert (law["status"], law["violations"]) == ("fail", 1)
    assert law["witness"] == "empty element got a nonempty type set"


def test_draw_memos_live_per_call():
    """A level tampered between two calls on one tree shows in the second
    report: the draw memos live per call, not on the tree, a level or the
    poset."""
    tree = build_levels(BuildConfig(chain_ab_poset()), 4)
    assert verify_type_axioms(tree, 3, draws=500, seed=0)["passed"]
    retype_level_3(tree)
    after = verify_type_axioms(tree, 3, draws=500, seed=0)
    assert after["axioms"]["union-additive"]["violations"] > 0
    assert after == verify_type_axioms(tampered_chain_tree(), 3, draws=500,
                                       seed=0)


def test_each_level_mask_is_lowered_once_per_call():
    """The union law's canonical path and the upward law read each
    (level, mask) from one table per call: every pair they ask for is
    lowered once, a mask int drawn on two levels once on each, and the
    report is the element-by-element oracle's."""
    tree = build_levels(BuildConfig(diamond_poset()), 5)
    lowered = []

    def counted(tree, level, mask):
        lowered.append((level, mask))
        return _lower(tree, level, mask)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_lower", counted)
        got = verify_type_axioms(tree, 4, draws=1000, seed=0)
        asked = lowered.copy()
        lowered.clear()
        want = verify_type_axioms_oracle(tree, 4, draws=1000, seed=0)
    assert got == want
    # the oracle lowers every operand, union and draw it makes; its last
    # 1000 elements are the upward law's draws
    upward = set(lowered[-1000:])
    assert len(asked) == len(set(asked)) < len(lowered)
    assert upward <= set(asked) <= set(lowered)
    levels_of = {}
    for level, mask in asked:
        levels_of.setdefault(mask, set()).add(level)
    assert max(map(len, levels_of.values())) > 1


def assert_raises_before_any_law(tree, match, level_bound, **kw):
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_lower", "_types_in", "_persist_rows"):
            def logged(*args, name=name, f=getattr(ring, name)):
                calls.append(name)
                return f(*args)
            mp.setattr(ring, name, logged)
        with pytest.raises(RingError, match=match):
            verify_type_axioms(tree, level_bound, **kw)
    assert calls == []


@pytest.mark.parametrize("draws", [-1, 2.5])
def test_bad_draws_raise_before_any_law(chain_tree, draws):
    assert_raises_before_any_law(chain_tree, "draws", 4, draws=draws)


@pytest.mark.parametrize("level_bound", [2.5, "3"])
def test_bad_level_bound_raises_before_any_law(chain_tree, level_bound):
    assert_raises_before_any_law(chain_tree, "level_bound", level_bound)


def test_the_laws_read_no_ids():
    """On the criterion-1 builds and dyadic, every law passes without one
    call that reads or makes an element id: ids are made only for a
    failing law's witness."""
    trees = [build_levels(BuildConfig(maker(), isolated=iso, **kw), 7)
             for _, maker, kw, single in CRITERION_1
             for iso in (frozenset(), frozenset({single}))]
    trees.append(build_levels(BuildConfig(family("dyadic")), 7))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("prefix", "id_at", "index", "mask_of", "ids_of"):
            def logged(*args, name=name, f=getattr(Poset, name)):
                calls.append(name)
                return f(*args)
            mp.setattr(Poset, name, logged)
        reports = [verify_type_axioms(tree, 6, draws=2000, seed=0)
                   for tree in trees]
    assert all(report["passed"] for report in reports)
    assert calls == []


def test_a_generated_order_that_is_not_transitive():
    """x1 < x2 < x3 without x1 < x3: validate names the broken order, and
    the upward law, on a tree built without validation, names the missing
    pair."""
    less = {("x1", "x2"), ("x2", "x3")}
    poset = Poset.generated("bad", lambda i: f"x{i}",
                            lambda p, q: p == q or (p, q) in less)
    config = BuildConfig(poset)
    assert config.validate(5) == [
        "order-axioms: transitivity fails on 'x1', 'x2', 'x3'"]
    report = verify_type_axioms(SkeletonTree(config, 5), 4, draws=1000)
    law = report["axioms"]["upward-closed"]
    assert law["status"] == "fail"
    assert law["witness"] == "x3 missing above x2"


def test_zero_draws_takes_one_union_draw_per_level(chain_tree):
    report = verify_type_axioms(chain_tree, 4, draws=0, seed=0)
    assert report == verify_type_axioms_oracle(chain_tree, 4, draws=0,
                                               seed=0)
    atom_pairs = sum(len(lvl) ** 2 for lvl in chain_tree.levels[:4]
                     if len(lvl) <= 12)
    assert report["axioms"]["union-additive"]["checked"] == atom_pairs + 4
    assert report["axioms"]["empty-detection"]["checked"] == 1
    assert report["axioms"]["upward-closed"]["checked"] == 0


# configs whose levels hold unattached atoms: the nodes that continue a
# noncompact type
UNATTACHED = {
    "chain": lambda: BuildConfig(chain_ab_poset(), bounded={"a"},
                                 noncompact={"b"}),
    "vee": lambda: BuildConfig(vee_poset(), noncompact={"b"}),
    "diamond": lambda: BuildConfig(diamond_poset(),
                                   noncompact={"b", "c", "d"}),
    "rn-infinity": lambda: BuildConfig(family("rn-infinity"), horizon=8),
}


@pytest.mark.parametrize("owner,name,mutate", MUTATIONS)
@pytest.mark.parametrize("config", UNATTACHED)
def test_a_mutated_ring_with_unattached_atoms_reports_as_the_oracle(
        owner, name, mutate, config):
    """The union law reads unattached atoms first when it decides that a
    draw stays on its level; a draw with an unattached atom in one operand
    only still has the other operand and the union tested, so a wrong
    lowering, lift or typing counts as the oracle counts it."""
    tree = build_levels(UNATTACHED[config](), 5)
    assert any(lvl.u_mask for lvl in tree.levels[1:4])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, mutate(getattr(owner, name)))
        got = verify_type_axioms(tree, 4, draws=1000, seed=0)["axioms"]
        want = verify_type_axioms_oracle(tree, 4, draws=1000,
                                         seed=0)["axioms"]
    assert got["union-additive"]["violations"] > 0
    for law in ("union-additive", "upward-closed"):
        assert got[law] == want[law]


@pytest.mark.parametrize("owner,name,mutate,law", [
    (ring, "_lower", drop_last_lowered_parent, "union-additive"),
    (SkeletonTree, "theta_image", drop_last_child_block, "types-persist"),
    (SkeletonTree, "theta_image", drop_last_child_block, "union-additive"),
    (ring, "_types_in", skip_last_type, "empty-detection"),
    (ring, "_types_in", skip_last_type, "union-additive"),
])
def test_laws_catch_a_mutated_ring(owner, name, mutate, law):
    tree = build_levels(BuildConfig(diamond_poset()), 5)
    assert verify_type_axioms(tree, 4, draws=1000, seed=0)["passed"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, mutate(getattr(owner, name)))
        report = verify_type_axioms(tree, 4, draws=1000, seed=0)
    assert report["passed"] is False
    assert report["axioms"][law]["status"] == "fail"


@pytest.mark.parametrize("bound", range(1, 17))
def test_level_draws_are_randint(bound):
    """The laws draw levels with _level_draws; its stream, with other
    draws from the same generator in between, is randint's, so reports
    stay as they were on every Python version the package supports."""
    for seed in range(100):
        rng, ref = random.Random(seed), random.Random(seed)
        draws = ring._level_draws(rng.getrandbits, bound)
        for _ in range(20):
            assert (next(draws), rng.getrandbits(37)) == \
                (ref.randint(1, bound), ref.getrandbits(37))


# ----------------------------------------------------------------------
# law reports pinned byte for byte

# sha256 of canonical JSON per key: "<criterion-1 name> iso=<isolated>
# seed=<s>" and "dyadic iso= seed=<s>" for verify_type_axioms(tree, 6,
# draws=10_000, seed=s) on a tree built to depth 6 and extended to 7, and
# "build-verify <family> <depth>" for "<exit code>\n" and then the
# command's stdout
LAW_PINNED = os.path.join(os.path.dirname(__file__), "law_digests.json")
LAW_SEEDS = (0, 1)
CLI_FAMILIES = ["omega-chain", "omega-antichain", "rn-infinity",
                "rn-infinity-bot", "rn(2,0)", "rn(2,2)", "rn(4,2)", "dyadic",
                "ziegler-fan"]


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def law_digests() -> dict[str, str]:
    builds = [(name, maker, kw, iso) for name, maker, kw, single in CRITERION_1
              for iso in ((), (single,))]
    builds.append(("dyadic", lambda: family("dyadic"), {}, ()))
    out = {}
    for name, maker, kw, iso in builds:
        tree = build_levels(BuildConfig(maker(), isolated=iso, **kw), 6)
        tree.extend_to(7)
        for s in LAW_SEEDS:
            report = verify_type_axioms(tree, 6, draws=10_000, seed=s)
            out[f"{name} iso={','.join(iso)} seed={s}"] = \
                canonical_digest(report)
    for f in CLI_FAMILIES:
        for depth in ("4", "5"):
            code, stdout, _ = run_main(["build-verify", "--family", f,
                                        "--depth", depth])
            text = f"{code}\n{stdout}"
            out[f"build-verify {f} {depth}"] = \
                hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_law_reports_are_pinned():
    with open(LAW_PINNED) as f:
        pinned = json.load(f)
    got = law_digests()
    assert len(got) == 17 * len(LAW_SEEDS) + 2 * len(CLI_FAMILIES)
    assert sorted(got) == sorted(pinned)
    assert [k for k in pinned if got[k] != pinned[k]] == []


if __name__ == "__main__":
    # prints the pinned digests of the program on the path
    print(json.dumps(law_digests(), indent=1))
