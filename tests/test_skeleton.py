"""Skeleton builds: level recurrences, buckets, and structure checks."""
import contextlib
import importlib.util
import json
import random
import time
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (DEEP_BUILDS, POSET_FILES, chain_ab_poset, children,
                      descends_to, diamond_poset, listed_in, random_poset,
                      ref_bucket_of, ref_down_closure, ref_theta_image,
                      vee_poset)
from stonetrim import (FOUND, BuildConfig, BuildError, ConfigError, Poset,
                       build_levels, family, run_backforth, skeleton,
                       verify_structure, verify_type_axioms)
from stonetrim.poset import bits, runs
from stonetrim.skeleton import (BUCKETS, Level, SkeletonTree,
                                StructureReport, equal_rules, level_rule,
                                node_rules, spell)
from test_cli_digests import FILE_POSETS as CLI_POSETS


def chain_tree(depth=4, **kw):
    return build_levels(BuildConfig(chain_ab_poset(), **kw), depth)


def bucket_in_masks(config, p, n):
    """The bucket whose mask in ``config.masks(n)`` holds p's index."""
    ix = config.poset.index(p)
    return next(b for b, m in config.masks(n)[1].items() if m >> ix & 1)


class TestConfig:
    def test_scope(self, chain_ab):
        assert BuildConfig(chain_ab).scope(10) == 2
        cfg = BuildConfig(family("omega-chain"), horizon=8)
        assert cfg.scope(3) == 8
        assert cfg.scope(12) == 12

    def test_auto_bucket_follows_foundations(self, chain_ab):
        cfg = BuildConfig(chain_ab)
        assert bucket_in_masks(cfg, "a", 4) == "bounded"
        assert bucket_in_masks(cfg, "b", 4) == "bounded"
        lad = BuildConfig(family("rn-infinity"), horizon=8)
        lad.poset.prefix(8)
        assert bucket_in_masks(lad, "p0", 8) == "noncompact"

    def test_explicit_buckets_win(self, chain_ab):
        cfg = BuildConfig(chain_ab, noncompact=frozenset({"b"}))
        assert bucket_in_masks(cfg, "b", 4) == "noncompact"


class TestValidate:
    def test_clean_config(self, chain_ab):
        assert BuildConfig(chain_ab).validate(4) == []

    def test_unknown_element(self, chain_ab):
        probs = BuildConfig(chain_ab, bounded={"zz"}).validate(4)
        assert probs == ["unknown-element: bounded lists 'zz' outside the "
                         "enumeration prefix"]

    def test_overlapping_buckets(self, chain_ab):
        probs = BuildConfig(chain_ab, bounded={"a"},
                            noncompact={"a"}).validate(4)
        assert probs == ["overlapping-buckets: bounded and noncompact "
                         "share ['a']"]

    def test_problem_order(self, chain_ab):
        # unknown elements per group in the order isolated, then BUCKETS;
        # then each overlapping pair of buckets in that order
        probs = BuildConfig(chain_ab, isolated={"x1"}, bounded={"a", "x2"},
                            unbounded={"a", "x3"},
                            noncompact={"a", "x4"}).validate(4)
        assert probs == [
            f"unknown-element: {label} lists {p!r} outside the "
            f"enumeration prefix"
            for label, p in (("isolated", "x1"), ("bounded", "x2"),
                             ("unbounded", "x3"), ("noncompact", "x4"))
        ] + [f"overlapping-buckets: {a} and {b} share ['a']"
             for a, b in (("bounded", "unbounded"), ("bounded", "noncompact"),
                          ("unbounded", "noncompact"))]

    def test_isolated_minimal_noncompact(self):
        cfg = BuildConfig(family("omega-antichain"), isolated={"a1"},
                          noncompact={"a1"}, horizon=6)
        probs = cfg.validate(6)
        assert any(p.startswith("isolated-minimal-noncompact") for p in probs)

    def test_bounded_not_lower(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"b"}, noncompact={"a"})
        probs = cfg.validate(4)
        assert "bounded-not-lower: not a lower set on the prefix" in probs

    def test_bounded_not_lower_on_vee(self, vee):
        cfg = BuildConfig(vee, bounded={"b"}, noncompact={"a", "c"})
        assert cfg.validate(9) == [
            "bounded-not-lower: not a lower set on the prefix",
            "bounded+unbounded-not-lower: not a lower set on the prefix"]

    # the tree built without validate holds no witness of the clause
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 10: no structure check witnesses bounded-not-lower"))
    def test_a_bounded_set_not_lower_fails_the_structure(self, vee):
        cfg = BuildConfig(vee, bounded={"b"}, noncompact={"a", "c"})
        assert not verify_structure(SkeletonTree(cfg, 9)).passed

    def test_bounded_outside_delta(self):
        cfg = BuildConfig(family("rn-infinity"), bounded={"p0"}, horizon=8)
        probs = cfg.validate(8)
        assert any("bounded-outside-delta" in p for p in probs)
        assert any("bounded-not-lower" in p for p in probs)

    def test_empty_poset(self):
        empty = Poset.from_covers("empty", [], [])
        assert BuildConfig(empty).validate(4) == [
            "empty-poset: the poset has no elements to index a level"]
        with pytest.raises(ConfigError, match="empty-poset"):
            build_levels(BuildConfig(empty), 3)

    def test_build_levels_raises_on_problems(self, chain_ab):
        with pytest.raises(ConfigError, match="unknown-element"):
            build_levels(BuildConfig(chain_ab, bounded={"zz"}), 3)


class TestChainBuild:
    def test_level_sizes(self):
        tree = chain_tree(6)
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 3, 8, 20,
                                                             48, 112]

    def test_type_vectors(self):
        tree = chain_tree(4)
        assert list(tree.level(1).types) == [1]
        assert list(tree.level(2).types) == [1, 1, 2]
        assert list(tree.level(3).types) == [1, 1, 2, 1, 1, 2, 2, 2]
        assert list(tree.level(4).types) == [1, 1, 2, 1, 1, 2, 2, 2,
                                             1, 1, 2, 1, 1, 2, 2, 2,
                                             2, 2, 2, 2]

    def test_parents(self):
        tree = chain_tree(3)
        assert list(tree.level(2).parent) == [0, 0, 0]
        assert list(tree.level(3).parent) == [0, 0, 0, 1, 1, 1, 2, 2]
        assert tree.level(2).u_start == 3

    def test_isolated_bottom_stays_single(self):
        tree = chain_tree(6, isolated=frozenset({"a"}))
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 2, 4, 8,
                                                             16, 32]
        assert list(tree.level(2).types) == [1, 2]
        assert list(tree.level(3).types) == [1, 2, 2, 2]
        cap = tree.config.type_cap(tree.depth)
        assert tree.config.masks(cap)[0] == 1 << 1

    def test_node_views(self):
        tree = chain_tree(3)
        root = tree.level(1)
        assert (root.types[0], root.parent_of(0), 0 >= root.u_start) == (
            1, None, False)
        assert tree.poset.id_at(root.types[0]) == "a"
        assert children(tree, 1, 0) == [(0, "a"), (1, "a"), (2, "b")]
        kids = tree.level(2)
        assert [kids.parent_of(j) for j in range(3)] == [0, 0, 0]

    def test_level_out_of_range(self):
        tree = chain_tree(3)
        with pytest.raises(BuildError, match=r"level 4 not built \(depth 3\)"):
            tree.level(4)
        with pytest.raises(BuildError):
            tree.level(0)

    def test_children_span_needs_next_level(self):
        tree = chain_tree(3)
        with pytest.raises(BuildError, match="level 4 not built"):
            tree.children_span(3, 0)

    def test_node_indexes_are_checked(self):
        # an index outside 0 .. len - 1 names no node, even where Python
        # would read a negative one from the end
        tree = build_levels(BuildConfig(family("rn(2,0)")), 4)
        assert len(tree.level(2)) == 3
        for i in (-1, -3, 3, 99):
            with pytest.raises(IndexError, match=f"level 2 has no node {i}"):
                tree.children_span(2, i)
        assert tree.children_span(2, 2) == (4, 6)

    def test_depth_must_be_positive(self, chain_ab):
        with pytest.raises(BuildError, match="at least 1") as info:
            build_levels(BuildConfig(chain_ab), 0)
        assert info.value.level is None and info.value.bound is None

    def test_level_size_bound(self, chain_ab, monkeypatch):
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", 10)
        with pytest.raises(BuildError) as info:
            build_levels(BuildConfig(chain_ab), 4)
        err = info.value
        assert str(err) == "level 4 would hold 20 nodes, over the bound 10"
        assert (err.level, err.would_hold, err.bound) == (4, 20, 10)

    def test_failed_build_leaves_the_tree_as_it_was(self, chain_ab,
                                                    monkeypatch):
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", 10)
        tree = build_levels(BuildConfig(chain_ab), 3)
        posts = [list(lvl.bounds) for lvl in tree.levels]
        for _ in range(2):
            with pytest.raises(BuildError, match="level 4 would hold"):
                tree.extend_to(4)
            assert tree.depth == 3
            assert [list(lvl.bounds) for lvl in tree.levels] == posts
            with pytest.raises(BuildError, match="level 4 not built"):
                tree.children_span(tree.depth, 0)
            with pytest.raises(BuildError, match="level 4 not built"):
                tree.theta_image(3, 1)

    def test_failed_build_leaves_the_index_sets_as_they_were(self,
                                                             monkeypatch):
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", 20)
        cfg = BuildConfig(family("omega-chain"), isolated={"p4"}, horizon=6)
        tree = build_levels(cfg, 3)
        for _ in range(2):
            with pytest.raises(BuildError, match="level 4 would hold"):
                tree.extend_to(4)
            assert tree.depth == 3
            # the tree's view of the config: indices 1..3, p4 is index 4
            cap = tree.config.type_cap(tree.depth)
            iso, buckets = tree.config.masks(cap)
            assert iso == 0
            assert not any(m >> 4 & 1 for m in buckets.values())
        assert buckets["bounded"] >> 3 & 1

    @pytest.mark.parametrize("tag", ["omega-chain", "rn(2,0)",
                                     "ziegler-fan"])
    def test_a_built_level_is_never_written_again(self, tag, monkeypatch):
        """Each level keeps its object and its arrays through a deeper
        build and a failed one, and equals the same level of a fresh
        build to the smaller depth."""
        tree = build_levels(BuildConfig(family(tag)), 4)
        kept = [(lvl, lvl.types.tolist(), lvl.bounds.tolist(),
                 lvl.u_start, dict(lvl.counts)) for lvl in tree.levels]
        tree.extend_to(6)
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", len(tree.level(6)))
        with pytest.raises(BuildError, match="level 7 would hold"):
            tree.extend_to(7)
        fresh = build_levels(BuildConfig(family(tag)), 4)
        assert len(kept) == len(fresh.levels) == 4
        for n, ((lvl, types, posts, u_start, counts), want) in enumerate(
                zip(kept, fresh.levels), 1):
            assert lvl is tree.level(n)
            assert (lvl.types.tolist(), lvl.bounds.tolist(), lvl.u_start,
                    lvl.counts) == (types, posts, u_start, counts)
            assert lvl == want
        assert tree.levels[:4] == fresh.levels
        assert tree.levels == build_levels(BuildConfig(family(tag)),
                                           6).levels

    def test_extend_matches_fresh_build(self):
        grown = chain_tree(3).extend_to(6)
        fresh = chain_tree(6)
        for n in range(1, 7):
            assert grown.level(n).types == fresh.level(n).types
            assert list(grown.level(n).parent) == list(fresh.level(n).parent)


# the families of the deep builds, each read at levels 1 to 8
SPELLED_FAMILIES = [tag for tag, _ in DEEP_BUILDS]


class TestStorage:
    def test_levels_hold_few_bytes_per_node(self):
        # a node's type is one 4-byte array item, and so is each post of
        # the child blocks on the level it lays out, one more than the
        # level above has nodes; parents are derived
        tracemalloc.start()
        try:
            tree = build_levels(BuildConfig(family("omega-antichain")), 14)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 12 * sum(map(len, tree.levels))

    def test_building_the_widest_level_holds_one_chunk_at_a_time(self):
        # level 15 of omega-antichain has 32 767 nodes, so a whole-level
        # column of 4-byte block sizes alone would be 128 KB
        tree = build_levels(BuildConfig(family("omega-antichain")), 15)
        tracemalloc.start()
        try:
            tree.extend_to(16)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tree.level(15)) == 32767
        assert peak - held <= 128 * 1024

    def test_checking_the_widest_level_holds_one_chunk_at_a_time(self):
        # the spellings of all 16 levels are most of it; the per-node
        # content test peaked at 244 433 bytes here, and reading the
        # rewrite's pieces may add one chunk's buffers: a piece of 4096
        # nodes as 4-byte code points
        tree = build_levels(BuildConfig(family("omega-antichain")), 16)
        tracemalloc.start()
        try:
            report = verify_structure(tree)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak - held <= 244_433 + 4 * 4096

    def test_spelling_is_one_code_point_per_node(self):
        rng = random.Random(23)
        for size in (0, 1, 2, 3, 7, 100, 4096):
            types = array("I", (rng.randint(1, 4096) for _ in range(size)))
            assert spell(types) == "".join(map(chr, types))
        for tag in SPELLED_FAMILIES:
            tree = build_levels(BuildConfig(family(tag)), 8)
            for lvl in tree.levels:
                assert spell(lvl.types) == "".join(map(chr, lvl.types))


class TestUnattachedNodes:
    def test_noncompact_supply_from_cover_level(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        tree = build_levels(cfg, 6)
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 3, 9, 23,
                                                             55, 127]
        assert tree.level(2).u_start == 3          # none yet at level 2
        lvl3 = tree.level(3)
        assert list(lvl3.types) == [1, 1, 2, 1, 1, 2, 2, 2, 2]
        assert lvl3.u_start == 8
        assert lvl3.parent_of(8) is None
        for n in range(3, 7):
            lvl = tree.level(n)
            u_b = sum(1 for i in range(lvl.u_start, len(lvl))
                      if lvl.types[i] == 2)
            assert u_b == 1

    def test_unbounded_entry_level_only(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, unbounded={"b"})
        tree = build_levels(cfg, 4)
        assert [len(tree.level(n)) for n in range(1, 5)] == [1, 4, 10, 24]
        assert list(tree.level(2).types) == [1, 1, 2, 2]
        assert tree.level(2).u_start == 3
        assert tree.level(3).u_start == len(tree.level(3))

    def test_ladder_fresh_and_supply(self):
        cfg = BuildConfig(family("rn-infinity"), horizon=8)
        tree = build_levels(cfg, 6)
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 4, 11, 27,
                                                             64, 150]
        assert list(tree.level(2).types) == [1, 1, 2, 1]
        assert tree.level(2).u_start == 2

    def test_fan_u_section_order(self):
        cfg = BuildConfig(family("ziegler-fan"), horizon=8)
        tree = build_levels(cfg, 6)
        assert list(tree.level(2).types) == [1, 1, 2, 1]
        assert tree.level(2).u_start == 2
        lvl3 = tree.level(3)
        assert list(lvl3.types) == [1, 1, 1, 1, 2, 2, 1, 1, 1, 3, 1]
        assert lvl3.u_start == 9
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 4, 11, 27,
                                                             63, 143]

    def test_descends_to(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        tree = build_levels(cfg, 4)
        assert descends_to(tree, 3, 0, 1)
        assert not descends_to(tree, 3, 8, 1)      # unattached node
        assert descends_to(tree, 3, 8, 3)


class TestMasks:
    def test_type_mask_and_full_mask(self):
        lvl = chain_tree(3).level(3)
        assert lvl.type_mask(1) == 0b00011011
        assert lvl.type_mask(2) == 0b11100100
        assert lvl.full_mask == 0xFF
        assert lvl.u_mask == 0
        assert sorted(lvl.counts) == [1, 2]

    def test_u_mask_covers_unattached(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        lvl3 = build_levels(cfg, 3).level(3)
        assert lvl3.u_mask == 1 << 8

    def test_theta_image_spans_children(self):
        tree = chain_tree(3)
        assert tree.theta_image(2, 0b001) == 0b00000111
        assert tree.theta_image(2, 0b100) == 0b11000000
        assert tree.theta_image(2, 0b101) == 0b11000111

    def test_theta_image_at_the_edges_of_the_built_levels(self):
        tree = chain_tree(3)
        # on the last built level only the empty mask has an image
        assert tree.theta_image(3, 0) == 0
        with pytest.raises(BuildError, match="level 4 not built"):
            tree.theta_image(3, 1)
        with pytest.raises(BuildError, match="level 4 not built"):
            tree.theta_image(3, tree.level(3).full_mask)
        # a level out of range raises, whatever the mask
        for n in (0, -1, 4, 5):
            for mask in (0, 1):
                with pytest.raises(BuildError, match=f"level {n} not built"):
                    tree.theta_image(n, mask)

    def test_a_lift_to_a_shallower_level_is_refused(self):
        # k = 0 is a level too, not an omitted k
        tree = build_levels(BuildConfig(family("omega-chain")), 4)
        spans = [(0, 1), (2, 3)]
        for k in (2, 0):
            match = f"cannot lift level 3 to level {k}, a shallower one"
            for mask in (0b101, 0):
                with pytest.raises(BuildError, match=match):
                    tree.theta_image(3, mask, k)
            with pytest.raises(BuildError, match=match):
                tree.lift_runs(3, spans, k)
        # a lift to its own level is the identity
        assert tree.theta_image(3, 0b101, 3) == 0b101
        assert tree.lift_runs(3, spans, 3) == spans
        # and one past the depth is not built
        with pytest.raises(BuildError, match="level 5 not built"):
            tree.theta_image(3, 0b101, 5)
        with pytest.raises(BuildError, match="level 5 not built"):
            tree.lift_runs(3, spans, 5)

    def test_lift_runs_spans_children(self):
        tree = chain_tree(4)
        assert tree.lift_runs(2, [(0, 1), (2, 3)], 3) == [(0, 3), (6, 8)]
        assert tree.lift_runs(2, [(1, 3)], 2) == [(1, 3)]
        assert tree.lift_runs(1, [(0, 1)], 4) == [(0, len(tree.level(4)))]
        with pytest.raises(BuildError, match="level 5 not built"):
            tree.lift_runs(2, [(0, 1)], 5)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_lift_runs_agree_with_theta_image(self, seed):
        # unattached nodes included: a run of them lifts as theta_image
        # lifts their mask, even though no lifted element reaches them
        rng = random.Random(seed)
        tree = build_levels(BuildConfig(random_poset(rng)), 6)
        n = rng.randint(1, 5)
        k = rng.randint(n, 6)
        mask = rng.getrandbits(len(tree.level(n))) or 1
        spans = list(runs(mask))
        lifted = mask
        for m in range(n, k):
            want = ref_theta_image(tree, m, lifted)
            lifted = tree.theta_image(m, lifted)
            assert lifted == want
        assert tree.lift_runs(n, spans, k) == list(runs(lifted))
        assert tree.theta_image(n, mask, k) == lifted

    def test_block_masks_follow_the_child_spans(self):
        lvl = chain_tree(3).level(3)        # child blocks 0-2, 3-5, 6-7
        assert lvl.block_masks() == (0b01001001, 0b10100100)
        other = Level(lvl.types, array("I", [0, 2, 6, 8]))
        assert other.block_masks() == (0b01000101, 0b10100010)


class TestSerialization:
    def test_to_dot(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        dot = build_levels(cfg, 3).to_dot()
        assert dot.startswith("digraph skeleton {")
        assert '"1.0" [label="1.0:a"];' in dot
        assert '"1.0" -> "2.0";' in dot
        assert '"3.8" [label="3.8:b", style=dashed];' in dot


class TestStructureChecks:
    def test_chain_passes(self):
        rep = verify_structure(chain_tree(5))
        assert rep.passed
        assert all(ok for _, ok, _ in rep.checks)
        names = [n for n, _, _ in rep.checks]
        assert "types-present@5" in names
        assert "continuation-children@4" in names

    def test_isolated_line_check(self):
        rep = verify_structure(chain_tree(5, isolated=frozenset({"a"})))
        assert rep.passed
        assert any(n == "isolated-single-line:a" for n, _, _ in rep.checks)

    def test_isolated_lines_in_index_order(self):
        cfg = BuildConfig(family("omega-antichain"), isolated={"a9", "a2"})
        rep = verify_structure(build_levels(cfg, 10))
        assert rep.passed
        assert [n for n, _, _ in rep.checks
                if n.startswith("isolated-single-line")] == [
            "isolated-single-line:a2", "isolated-single-line:a9"]

    def test_noncompact_and_unbounded_checks(self, chain_ab):
        t1 = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                      noncompact={"b"}), 5)
        r1 = verify_structure(t1)
        assert r1.passed
        assert any(n == "noncompact-supply:b" for n, _, _ in r1.checks)
        t2 = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                      unbounded={"b"}), 4)
        r2 = verify_structure(t2)
        assert r2.passed
        assert any(n == "unbounded-entry:b" for n, _, _ in r2.checks)

    def test_cover_descent_passes_on_lower_set(self):
        tree = chain_tree(5)
        rep = verify_structure(tree, q_lower=tree.poset.mask_of({"a"}))
        assert rep.passed
        assert any(n == "covered-types-descend" for n, _, _ in rep.checks)

    def test_cover_descent_fails_past_unattached_nodes(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                        noncompact={"b"}), 4)
        rep = verify_structure(tree, q_lower=chain_ab.mask_of({"a", "b"}))
        assert not rep.passed
        fails = {n: d for n, ok, d in rep.checks if not ok}
        assert "covered-types-descend" in fails
        assert "escapes level 1" in fails["covered-types-descend"]

    def test_report_serializes(self):
        doc = verify_structure(chain_tree(3)).to_json()
        assert doc["passed"] is True
        assert all(set(c) == {"name", "passed", "detail"}
                   for c in doc["checks"])


# ----------------------------------------------------------------------
# whole-level passes against the per-node loops they replaced

def ref_level_rule(config, n, types):
    """The rule that lays out level n+1 from a level n holding types, id by
    id, as lists of indices: the child block of each type, the type once
    if it is isolated, else twice, then every other id above it in
    ``prefix(type_cap(n + 1))``; and the unattached tail, n+1 when it is
    enumerated and unbounded or above no type of level n, then every
    noncompact index up to ``type_cap(n)`` (``ref_bucket_of``)."""
    poset = config.poset
    cap = config.type_cap(n + 1)
    ids = poset.prefix(cap)
    buckets = {ix: ref_bucket_of(config, p, n + 1)
               for ix, p in enumerate(ids, 1)}

    def above(t, q):
        return poset.leq(ids[t - 1], ids[q - 1])
    blocks = {t: [t] * (1 if ids[t - 1] in config.isolated else 2)
              + [q for q in range(1, cap + 1) if q != t and above(t, q)]
              for t in types}
    tail = []
    if cap > n and (buckets[n + 1] == "unbounded"
                    or not any(above(t, n + 1) for t in types)):
        tail.append(n + 1)
    tail += [q for q in range(1, config.type_cap(n) + 1)
             if buckets[q] == "noncompact"]
    return blocks, tail


def next_level_oracle(tree):
    """Level depth+1 laid out node by node, as the builder stored it before
    parents and child starts were derived: (types, parents, u_start) of the
    new level and the starts and ends of its child blocks."""
    prev = tree.levels[-1]
    blocks, unattached = ref_level_rule(tree.config, tree.depth,
                                        set(prev.types))
    types, parents, starts, ends = [], [], [], []
    for i, t in enumerate(prev.types):
        starts.append(len(types))
        types += blocks[t]
        parents += [i] * len(blocks[t])
        ends.append(len(types))
    u_start = len(types)
    return (types + unattached, parents + [None] * len(unattached), u_start,
            starts, ends)


def type_masks_oracle(types):
    """(type, atom mask) pairs, one node at a time over the reversed level."""
    rows = {}
    for i, t in enumerate(reversed(types)):
        row = rows.get(t)
        if row is None:
            row = rows[t] = bytearray(b"0" * len(types))
        row[i] = ord("1")
    return [(t, int(row, 2)) for t, row in rows.items()]


def structure_oracle(tree, q_lower=None):
    """verify_structure checking node by node, through children_span and
    parent pointers."""
    rep = StructureReport()
    poset = tree.poset
    depth = tree.depth
    for n in range(1, depth + 1):
        want = set(range(1, tree.config.type_cap(n) + 1))
        have = set(tree.level(n).types)
        rep.add(f"types-present@{n}", want <= have,
                f"missing {sorted(want - have)}" if not want <= have else "")
    cap = tree.config.type_cap(depth)
    iso = {ix for ix, p in enumerate(poset.prefix(cap), 1)
           if p in tree.config.isolated}
    minimal = poset.confirmed_minimal(tree.config.type_cap(depth))
    min_ix = set(bits(minimal))
    for t in sorted(iso):
        if t in min_ix:
            ok, bad = True, ""
            for n in range(t, depth + 1):
                c = sum(1 for u in tree.level(n).types if u == t)
                if c != 1:
                    ok, bad = False, f"level {n} holds {c} nodes of type ix {t}"
                    break
            rep.add(f"isolated-single-line:{poset.id_at(t)}", ok, bad)
    for n in range(1, depth):
        lvl, nxt = tree.level(n), tree.level(n + 1)
        ok, bad = True, ""
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
    for t in range(1, tree.config.type_cap(depth) + 1):
        b = ref_bucket_of(tree.config, poset.id_at(t), depth)
        if b == "noncompact":
            ok, bad = True, ""
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
            c = sum(1 for i in range(lvl.u_start, len(lvl))
                    if lvl.types[i] == t)
            rep.add(f"unbounded-entry:{poset.id_at(t)}", c >= 1,
                    "" if c >= 1 else f"no unattached entry node at level {t}")
    if q_lower is not None:
        res = poset.finite_foundation(poset.mask_of(q_lower),
                                      tree.config.type_cap(depth))
        if res.status != FOUND:
            rep.add("cover-foundation", False,
                    f"foundation search returned {res.status}")
        else:
            q_ix = {poset.index(p) for p in q_lower}
            n0 = max(bits(res.foundation))
            ok, bad = True, ""
            for n in range(n0, depth + 1):
                for i, t in enumerate(tree.level(n).types):
                    if t in q_ix and not descends_to(tree, n, i, n0):
                        ok = False
                        bad = f"node {n}.{i} of covered type escapes level {n0}"
                        break
                if not ok:
                    break
            rep.add("covered-types-descend", ok, bad)
    return rep


def laid_out_oracle(tree, n):
    """Whether level n holds types 1..type_cap(n) only and each of its
    nodes has, on level n + 1, the child block of the first node of its
    type, read node by node through children_span."""
    own, kids = tree.level(n), tree.level(n + 1)
    first = {}
    for i, t in enumerate(own.types):
        s, e = tree.children_span(n, i)
        block = kids.types[s:e].tolist()
        if t > tree.config.type_cap(n) or first.setdefault(t, block) != block:
            return False
    return True


def assert_matches_oracles(config, depth, q_lower=None):
    """Grow a tree level by level, comparing each level with the per-node
    layout, then its type masks and structure report."""
    tree = SkeletonTree(config, 1)
    while tree.depth < depth:
        types, parents, u_start, starts, ends = next_level_oracle(tree)
        tree.extend_to(tree.depth + 1)
        prev, lvl = tree.levels[-2], tree.levels[-1]
        assert (list(lvl.types), lvl.u_start) == (types, u_start)
        assert list(lvl.bounds) == [0] + ends
        assert list(lvl.bounds[:len(prev)]) == starts
        assert list(lvl.parent) == parents
        assert [lvl.parent_of(i) for i in range(len(lvl))] == parents
        for lo in range(0, len(lvl), 5):
            assert lvl.parent[lo:lo + 7] == parents[lo:lo + 7]
        nodes = range(len(lvl))
        assert [lvl.parent_of(i) for i in nodes[::-3]] == parents[::-3]
        assert lvl.parent_of(nodes[-1]) == parents[-1]
        # one node, or a stride, is asked of parent_of
        for key in (-1, slice(None, None, -3)):
            with pytest.raises(TypeError, match="slices of step 1"):
                lvl.parent[key]
    for lvl in tree.levels:
        assert list(lvl.type_masks().items()) == type_masks_oracle(lvl.types)
    assert_same_report(tree, q_lower)
    return tree


def assert_same_report(tree, q_lower=None):
    """The report against the oracle's; the oracle reads q_lower as ids,
    verify_structure as their mask."""
    qmask = None if q_lower is None else tree.poset.mask_of(q_lower)
    got = verify_structure(tree, q_lower=qmask).to_json()
    assert got == structure_oracle(tree, q_lower).to_json()
    return got


ORACLE_FAMILIES = ["omega-chain", "omega-antichain", "rn-infinity",
                   "rn-infinity-bot", "rn(2,0)", "rn(2,2)", "rn(4,2)",
                   "dyadic", "ziegler-fan"]


def assert_sizes_predicted(config, depth):
    """Grow a tree level by level under a bound one short of each level's
    size, then under its size.  The short build fails, predicting exactly
    that size, and leaves the tree as it was; every level's type counts
    match its types."""
    full = SkeletonTree(config, depth)
    tree = SkeletonTree(config, 1)
    for n in range(2, depth + 1):
        size = len(full.level(n))
        layout = [(lvl.types.tolist(), lvl.bounds.tolist(), lvl.counts)
                  for lvl in tree.levels]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", size - 1)
            with pytest.raises(BuildError) as info:
                tree.extend_to(n)
            err = info.value
            assert (err.level, err.would_hold, err.bound) == (n, size,
                                                              size - 1)
            assert [(lvl.types.tolist(), lvl.bounds.tolist(), lvl.counts)
                    for lvl in tree.levels] == layout
            monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", size)
            tree.extend_to(n)
    for lvl in tree.levels:
        assert lvl.counts == Counter(lvl.types)


class TestPredictedSize:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_builtin_families(self, tag):
        assert_sizes_predicted(BuildConfig(family(tag)), 7)

    @given(seed=st.integers(0, 10 ** 6), isolate=st.booleans(),
           bucket=st.sampled_from(["auto", "noncompact", "unbounded"]))
    @settings(max_examples=40, deadline=None)
    def test_random_posets(self, seed, isolate, bucket):
        rng = random.Random(seed)
        poset = random_poset(rng)
        isolated = ({rng.choice(poset.prefix(poset.size))} if isolate
                    else set())
        assert_sizes_predicted(
            BuildConfig(poset, isolated=isolated,
                        **listed_in(bucket, poset.prefix(poset.size))), 5)

    def test_a_failed_build_reads_no_node_of_the_last_level(self, chain_ab,
                                                            monkeypatch):
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", 10)
        tree = build_levels(BuildConfig(chain_ab), 3)
        tree.level(3).types = None          # any per-node pass would fail
        with pytest.raises(BuildError, match="level 4 would hold 20 nodes"):
            tree.extend_to(4)


class TestWholeLevelPasses:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_builtin_families_match_the_node_loops(self, tag):
        poset = family(tag)
        tree = assert_matches_oracles(BuildConfig(poset), 7)
        assert_same_report(tree, q_lower=[poset.id_at(1)])

    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_a_lift_to_any_level_is_the_one_level_lifts(self, tag):
        """theta_image(n, mask, k) in one pass is k - n one-level lifts of
        the reference, each from the start of a run's first child block
        to the end of its last."""
        tree = build_levels(BuildConfig(family(tag)), 6)
        rng = random.Random(tag)
        for n in range(1, 7):
            for _ in range(8):
                mask = lifted = rng.getrandbits(len(tree.level(n)))
                for k in range(n, 7):
                    assert tree.theta_image(n, mask, k) == lifted, (n, k)
                    if k < 6:
                        lifted = ref_theta_image(tree, k, lifted)

    @given(seed=st.integers(0, 10 ** 6), isolate=st.booleans(),
           bucket=st.sampled_from(["auto", "noncompact", "unbounded"]))
    # the foundation's highest index lies past the depth
    @example(seed=356, isolate=False, bucket="auto")
    @settings(max_examples=40, deadline=None)
    def test_random_posets_match_the_node_loops(self, seed, isolate, bucket):
        rng = random.Random(seed)
        poset = random_poset(rng)
        ids = poset.prefix(poset.size)
        isolated = {rng.choice(ids)} if isolate else set()
        config = BuildConfig(poset, isolated=isolated,
                             **listed_in(bucket, ids))
        lower = ref_down_closure(poset, [rng.choice(ids)], poset.size)
        assert_matches_oracles(config, 5, q_lower=lower)

    @staticmethod
    def tamper(tree, n, i, block_ix, new_type):
        """Retype child block_ix of node n.i; n + 1 is the last level, so no
        other check sees the change."""
        lvl = tree.level(n + 1)
        lvl.types[lvl.bounds[i] + block_ix] = new_type
        lvl._masks.clear()

    def test_one_and_three_continuation_children(self):
        tree = chain_tree(4)
        # node 3.6 has type b and children [b, b]; node 3.3 type a and
        # children [a, a, b]; the witness is the lower of the two
        self.tamper(tree, 3, 6, 1, 1)
        self.tamper(tree, 3, 3, 2, 1)
        doc = assert_same_report(tree)
        fails = {c["name"]: c["detail"] for c in doc["checks"]
                 if not c["passed"]}
        assert fails == {"continuation-children@3":
                         "node 3.3 of type a has 3 continuation children, "
                         "wanted 2"}
        self.tamper(tree, 3, 3, 2, 2)
        doc = assert_same_report(tree)
        assert [c["detail"] for c in doc["checks"] if not c["passed"]] == [
            "node 3.6 of type b has 1 continuation children, wanted 2"]

    def test_every_block_of_a_type_retyped(self):
        # every b node of level 3 gets children [b, a], so level 4 is still
        # laid out by type, and every b node is reported through the first
        tree = chain_tree(4)
        for i, t in enumerate(tree.level(3).types):
            if t == 2:
                self.tamper(tree, 3, i, 1, 1)
        doc = assert_same_report(tree)
        assert [c["detail"] for c in doc["checks"] if not c["passed"]] == [
            "node 3.2 of type b has 1 continuation children, wanted 2"]

    def test_isolated_node_with_a_second_continuation(self):
        tree = chain_tree(3, isolated=frozenset({"a"}))
        self.tamper(tree, 2, 0, 1, 1)
        doc = assert_same_report(tree)
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
            "isolated-single-line:a", "continuation-children@2"]

    @staticmethod
    def failures(tree):
        doc = assert_same_report(tree)
        return [(c["name"], c["detail"]) for c in doc["checks"]
                if not c["passed"]]

    def test_first_child_of_a_block_retyped(self):
        # node 3.3 has type a and children [a, a, b]
        tree = chain_tree(4)
        self.tamper(tree, 3, 3, 0, 2)
        assert self.failures(tree) == [(
            "continuation-children@3",
            "node 3.3 of type a has 1 continuation children, wanted 2")]

    def test_last_child_of_the_last_node_retyped(self):
        tree = chain_tree(4)
        last = len(tree.level(3)) - 1
        kids = tree.level(4)
        size = kids.bounds[last + 1] - kids.bounds[last]
        self.tamper(tree, 3, last, size - 1, 1)
        assert self.failures(tree) == [(
            "continuation-children@3",
            f"node 3.{last} of type b has 1 continuation children, "
            f"wanted 2")]

    def test_more_continuation_children_than_a_byte_holds(self, chain_ab):
        # the root's block of level 2 laid out by hand: 300 a's and a b
        tree = build_levels(BuildConfig(chain_ab), 2)
        tree.levels[1] = Level(array("I", [1] * 300 + [2]),
                               array("I", [0, 301]))
        assert self.failures(tree) == [(
            "continuation-children@1",
            "node 1.0 of type a has 300 continuation children, wanted 2")]

    def test_child_of_an_unattached_node_retyped(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                        noncompact={"b"}), 4)
        lvl = tree.level(3)
        assert lvl.u_start < len(lvl)
        assert lvl.types[lvl.u_start] == 2     # children [b, b]
        self.tamper(tree, 3, lvl.u_start, 1, 1)
        assert self.failures(tree) == [(
            "continuation-children@3",
            f"node 3.{lvl.u_start} of type b has 1 continuation children, "
            f"wanted 2")]

    @staticmethod
    def laid_out_by_type(tree, n):
        """Whether the per-type test takes level n + 1 as laid out by type,
        read through the chain of the levels above it."""
        return node_rules(tree)[n - 1] is not None

    def test_children_permuted_inside_one_block(self):
        # node 3.3 has type a and children [a, a, b]; as [b, a, a] its count
        # holds, but its block is no longer its type's
        tree = chain_tree(4)
        assert self.laid_out_by_type(tree, 3)
        self.tamper(tree, 3, 3, 0, 2)
        self.tamper(tree, 3, 3, 2, 1)
        assert not self.laid_out_by_type(tree, 3)
        assert self.failures(tree) == []

    def test_children_permuted_in_the_reference_block(self):
        # node 3.0, the first of type a, sets a's reference block
        tree = chain_tree(4)
        self.tamper(tree, 3, 0, 1, 2)
        self.tamper(tree, 3, 0, 2, 1)
        assert not self.laid_out_by_type(tree, 3)
        assert self.failures(tree) == []

    @pytest.mark.parametrize("node, shift, failures", [
        # node 3.2 of type b keeps one b; node 3.3's block gains it
        (2, -1, [("continuation-children@3",
                  "node 3.2 of type b has 1 continuation children, "
                  "wanted 2")]),
        # node 3.0 of type a keeps [a, a]; node 3.1 gets [b, a, a, b]
        (0, -1, []),
        # node 3.1 of type a takes node 3.2's first b
        (1, 1, [("continuation-children@3",
                 "node 3.2 of type b has 1 continuation children, "
                 "wanted 2")]),
        # past the first node of each type, so the reference blocks and
        # the joined blocks still match: only the block lengths differ
        (4, -1, [("continuation-children@3",
                  "node 3.5 of type b has 3 continuation children, "
                  "wanted 2")]),
        # node 3.3 of type a keeps [a, a]; node 3.4 gets [b, a, a, b]
        (3, -1, []),
    ])
    def test_one_block_end_moved(self, node, shift, failures):
        tree = chain_tree(4)
        tree.level(4).bounds[node + 1] += shift
        assert not self.laid_out_by_type(tree, 3)
        assert self.failures(tree) == failures

    def test_an_end_past_the_level(self):
        # node 3.1's block runs to the last node of level 4, node 3.2's is
        # empty; no lane of the per-type test may wrap round to agree (the
        # oracle reads children past the level, so the report is spelled
        # out here)
        tree = chain_tree(4)
        tree.level(4).bounds[2] = (1 << 32) - 1
        assert not self.laid_out_by_type(tree, 3)
        rep = verify_structure(tree).to_json()
        assert [c["detail"] for c in rep["checks"] if not c["passed"]] == [
            "node 3.1 of type a has 6 continuation children, wanted 2"]

    def test_every_block_empty(self):
        # every node's block is its type's, the empty one, so the level
        # is laid out by type with no block to size its pieces by
        tree = chain_tree(4)
        tree.level(4).bounds[1:] = array("I", [0] * len(tree.level(3)))
        assert self.laid_out_by_type(tree, 3) and laid_out_oracle(tree, 3)
        assert self.failures(tree) == [(
            "continuation-children@3",
            "node 3.0 of type a has 0 continuation children, wanted 2")]

    def test_a_type_past_the_cap(self):
        # level 3 of omega-chain holds types 1..3; node 3.1 is retyped 5,
        # and its block is 5 nodes long, so its lane alone cannot tell
        tree = build_levels(BuildConfig(family("omega-chain")), 4)
        assert tree.children_span(3, 1) == (5, 10)
        tree.level(3).types[1] = 5
        tree.level(3)._masks.clear()
        assert not self.laid_out_by_type(tree, 3)
        assert self.failures(tree) == [
            ("continuation-children@2",
             "node 2.0 of type p1 has 1 continuation children, wanted 2"),
            ("continuation-children@3",
             "node 3.1 of type p5 has 0 continuation children, wanted 2")]

    @pytest.mark.parametrize("node, block_ix, new_type, detail", [
        (2, 1, 1, "node 3.2 of type b has 1 continuation children, wanted 2"),
        (0, 2, 1, "node 3.0 of type a has 3 continuation children, wanted 2"),
    ])
    def test_bad_reference_block(self, node, block_ix, new_type, detail):
        # the first node of its type on level 3, so its block is the
        # reference every later node of that type is compared with
        tree = chain_tree(4)
        self.tamper(tree, 3, node, block_ix, new_type)
        assert not self.laid_out_by_type(tree, 3)
        assert self.failures(tree) == [("continuation-children@3", detail)]

    @pytest.mark.parametrize("tag, depth", [("omega-antichain", 16),
                                            ("rn(2,0)", 15)])
    def test_widest_deep_builds_match_the_node_loops(self, tag, depth):
        tree = build_levels(BuildConfig(family(tag)), depth)
        assert all(self.laid_out_by_type(tree, n) for n in range(1, depth))
        assert assert_same_report(tree)["passed"]
        own = spell(tree.level(depth - 1).types)
        assert len(own) > 5 * 4096
        # one end of the widest level pair moved at a time: inside the
        # fifth chunk, at the last lane of the first chunk and the first
        # of the second, whose end before it the layout test reads off
        # the posts before the chunk, and at the level's last lane
        bounds = tree.level(depth).bounds
        for lane in (4 * 4096 + 7, 4095, 4096, len(own) - 1):
            bounds[lane + 1] -= 1
            # a node alone of its type, as omega-antichain's last one,
            # whose type enters there, has its own block as its type's:
            # the level stays laid out by type, and only the count of its
            # block fails
            alone = own.count(own[lane]) == 1
            assert self.laid_out_by_type(tree, depth - 1) == alone, lane
            assert not assert_same_report(tree)["passed"], lane
            bounds[lane + 1] += 1
        assert assert_same_report(tree)["passed"]

    @staticmethod
    def assert_lays_out_like_the_node_loops(tree, depth):
        """Grow tree to depth, each level's types, block ends, unattached
        start and counts against the per-node layout."""
        while tree.depth < depth:
            types, _, u_start, _, ends = next_level_oracle(tree)
            tree.extend_to(tree.depth + 1)
            n, lvl = tree.depth, tree.levels[-1]
            assert lvl.types.tolist() == types, n
            assert lvl.bounds.tolist() == [0] + ends, n
            assert lvl.u_start == u_start, n
            assert lvl.counts == Counter(types), n

    @pytest.mark.parametrize("tag, depth", DEEP_BUILDS)
    def test_widest_deep_builds_lay_out_like_the_node_loops(self, tag, depth):
        tree = SkeletonTree(BuildConfig(family(tag)), 1)
        self.assert_lays_out_like_the_node_loops(tree, depth)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_configs_lay_out_like_the_node_loops(self, seed):
        """Random posets with random isolated and bucket sets, grown until
        a level wider than a chunk has laid out the next one from
        shallower levels, with unattached tails on many levels between;
        two such configs a seed."""
        rng = random.Random(seed)
        laid_out = 0
        while laid_out < 2:
            poset = random_poset(rng)
            ids = poset.prefix(poset.size)
            picks = {label: {p for p in ids if rng.random() < 0.3}
                     for label in ("isolated",) + BUCKETS}
            for a, b in combinations(BUCKETS, 2):
                picks[b] -= picks[a]
            config = BuildConfig(poset, **picks)
            if config.validate():
                continue
            tree = SkeletonTree(config, 1)
            with contextlib.suppress(BuildError):
                while len(tree.levels[-1]) <= 4096 and tree.depth < 40:
                    self.assert_lays_out_like_the_node_loops(
                        tree, tree.depth + 1)
                self.assert_lays_out_like_the_node_loops(tree,
                                                         tree.depth + 1)
            tails = sum(lvl.u_start < len(lvl) for lvl in tree.levels)
            laid_out += len(tree.levels[-2]) > 4096 and tails > 3

    def test_a_level_laid_out_by_hand_stops_the_composing(self):
        """Level 10 of rn(2,0) laid out by hand, each child block reversed
        and no substitution kept: the ends of levels 11..15 are the node
        loops', though level 14's would compose up to level 7 (level 5,
        laid out by hand in ``test_a_level_laid_out_by_hand_ends_the_
        build_chain``, lies above where composing stops of itself)."""
        tree = SkeletonTree(BuildConfig(family("rn(2,0)")), 10)
        built = tree.levels[-1]
        types = array("I")
        for p in range(len(tree.level(9))):
            types.extend(reversed(built.types[built.bounds[p]:
                                              built.bounds[p + 1]]))
        types.extend(built.types[built.u_start:])
        assert types != built.types
        tree.levels[-1] = Level(types, built.bounds)
        self.assert_lays_out_like_the_node_loops(tree, 15)

    def test_a_tampered_level_restarts_the_chain(self):
        """One child block retyped at a random level of a random family
        tree: every level's per-type decision is the node-by-node one, and
        so is the report, also on the levels past the tampered one, whose
        pieces are rewritten through a chain that restarts there."""
        rng = random.Random(35)
        restarted = 0
        for _ in range(24):
            tag, depth = rng.choice(ORACLE_FAMILIES), rng.randint(6, 8)
            tree = build_levels(BuildConfig(family(tag)), depth)
            n = rng.randint(1, depth - 2)
            i = rng.randrange(len(tree.level(n)))
            s, e = tree.children_span(n, i)
            j = rng.randrange(s, e)
            kids = tree.level(n + 1)
            kids.types[j] = rng.choice([t for t in range(
                1, tree.config.type_cap(n + 1) + 1) if t != kids.types[j]])
            kids._masks.clear()
            laid = [self.laid_out_by_type(tree, m) for m in range(1, depth)]
            assert laid == [laid_out_oracle(tree, m)
                            for m in range(1, depth)], (tag, depth, n, j)
            assert_same_report(tree)
            failed = laid.index(False) if False in laid else depth
            restarted += any(laid[failed + 1:])
        assert restarted >= 12

    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_the_check_reads_no_substitution(self, tag):
        # the node rules come from the tree's nodes, so a tree whose
        # levels lost the substitutions they were built by checks the
        # same, and its laws report the same
        tree = build_levels(BuildConfig(family(tag)), 8)
        want = verify_structure(tree).to_json()
        laws = verify_type_axioms(tree, 7, draws=2000)
        laid = [self.laid_out_by_type(tree, n) for n in range(1, 8)]
        for lvl in tree.levels:
            del lvl.substitution
        assert verify_structure(tree).to_json() == want
        assert verify_type_axioms(tree, 7, draws=2000) == laws
        assert [self.laid_out_by_type(tree, n) for n in range(1, 8)] == laid
        assert all(laid)

    @pytest.mark.parametrize("tag, depth", [("omega-antichain", 16),
                                            ("rn(2,0)", 15)])
    def test_a_level_laid_out_by_hand_ends_the_build_chain(self, tag,
                                                           depth):
        # a level without a substitution stops the composition there, so
        # the deeper levels are rewritten from it, not through it
        tree = build_levels(BuildConfig(family(tag)), 6)
        lvl = tree.level(5)
        tree.levels[4] = Level(lvl.types, lvl.bounds, lvl.counts)
        assert tree.level(5).substitution is None
        tree.extend_to(depth)
        assert tree.levels == build_levels(BuildConfig(family(tag)),
                                           depth).levels

    @pytest.mark.parametrize("tag, depth", [
        *((tag, 7) for tag in ORACLE_FAMILIES),
        ("omega-antichain", 16), ("rn(2,0)", 15)])
    def test_block_masks_match_the_blocks(self, tag, depth):
        """Every level's block masks against its child blocks one by one:
        bit ``bounds[p]`` of starts and bit ``bounds[p + 1] - 1`` of ends
        for each node p of the level above, and no other bit."""
        tree = build_levels(BuildConfig(family(tag)), depth)
        for lvl in tree.levels:
            starts = ends = 0
            for start, end in zip(lvl.bounds, lvl.bounds[1:]):
                starts |= 1 << start
                ends |= 1 << end - 1
            assert lvl.block_masks() == (starts, ends)

    def test_noncompact_type_losing_its_unattached_node(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                        noncompact={"b"}), 4)
        lvl = tree.level(4)
        lvl.types[lvl.u_start] = 1
        lvl._masks.clear()
        doc = assert_same_report(tree, q_lower=["a"])
        assert [(c["name"], c["detail"]) for c in doc["checks"]
                if not c["passed"]] == [
            ("noncompact-supply:b",
             "level 4 has no unattached node of type ix 2"),
            ("covered-types-descend", "node 4.22 of covered type escapes "
                                      "level 1")]

    def test_unbounded_type_losing_its_entry_node(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                        unbounded={"b"}), 2)
        lvl = tree.level(2)
        lvl.types[lvl.u_start] = 1
        lvl._masks.clear()
        doc = assert_same_report(tree)
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
            "unbounded-entry:b"]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestDeepBuilds:
    @pytest.fixture(scope="class")
    def recorded(self):
        """The benchmark's workload module, loaded from its file, which
        holds the nine deep builds and the digests of their outputs, and
        the outputs it expects."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        with open(PERFBENCH / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        return workloads, expected

    def test_the_deep_builds_are_the_benchmarks(self, recorded):
        assert DEEP_BUILDS == recorded[0].DEEP_BUILDS

    @pytest.mark.parametrize("tag, depth", DEEP_BUILDS)
    def test_layout_and_report_match_the_recorded_digests(self, recorded,
                                                          tag, depth):
        workloads, expected = recorded
        assert (tag, depth) in workloads.DEEP_BUILDS
        tree = build_levels(BuildConfig(family(tag)), depth)
        want = expected[f"deep:{tag}:{depth}"]
        assert workloads.layout_digest(tree) == want["layout"]
        assert (workloads.digest(verify_structure(tree).to_json())
                == want["structure"])


class TestChunkedBuild:
    """Levels built, and their layout tested, in chunks far smaller than a
    level, so that most blocks and block ends lie past a chunk boundary."""

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_builtin_families_match_the_node_loops(self, monkeypatch, tag,
                                                   chunk):
        monkeypatch.setattr("stonetrim.skeleton._CHUNK", chunk)
        assert_matches_oracles(BuildConfig(family(tag)), 7)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_random_posets_match_the_node_loops(self, monkeypatch, chunk):
        monkeypatch.setattr("stonetrim.skeleton._CHUNK", chunk)
        rng = random.Random(chunk)
        for bucket in ("noncompact", "unbounded", "auto"):
            for _ in range(4):
                poset = random_poset(rng)
                ids = poset.prefix(poset.size)
                config = BuildConfig(poset, isolated={rng.choice(ids)},
                                     **listed_in(bucket, ids))
                assert_matches_oracles(config, 5)


# ----------------------------------------------------------------------
# the build rule read off the config, against the levels and per id

def as_indices(rule):
    """level_rule's spelled blocks and tail as ref_level_rule's lists."""
    blocks, tail = rule
    return ({ord(c): list(map(ord, b)) for c, b in blocks.items()},
            list(map(ord, tail)))


def deepest_tree(config):
    """The tree of config built to its deepest level under the bound."""
    tree = SkeletonTree(config, 1)
    with pytest.raises(BuildError, match="would hold"):
        while True:
            tree.extend_to(tree.depth + 1)
    return tree


def assert_rules_match(tree):
    """Every level n holds exactly the types 1..type_cap(n), and at every
    level n below the tree's depth, the rule read off the config is the
    substitution and the tail that level n+1 was built with, its blocks
    the rule ``node_rules`` reads off the nodes, and the per-id rule over
    level n's types."""
    for n, lvl in enumerate(tree.levels, 1):
        assert sorted(lvl.counts) == list(
            range(1, tree.config.type_cap(n) + 1)), n
    from_nodes = node_rules(tree)
    for n, (lvl, kids) in enumerate(zip(tree.levels, tree.levels[1:]), 1):
        rule = level_rule(tree.config, n)
        assert rule == (kids.substitution, spell(kids.types[kids.u_start:]))
        assert from_nodes[n - 1] == rule[0], n
        assert as_indices(rule) == ref_level_rule(tree.config, n,
                                                  set(lvl.types))


class TestLevelRule:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES + ["rn(0,0)", "rn(1,2)",
                                                       "rn(10,0)"])
    def test_builtin_families_to_the_bound(self, tag):
        tree = deepest_tree(BuildConfig(family(tag)))
        assert tree.depth >= 8
        assert_rules_match(tree)

    @pytest.mark.parametrize("name", CLI_POSETS)
    def test_poset_files_to_the_bound(self, name):
        assert_rules_match(deepest_tree(BuildConfig(Poset.from_json(
            POSET_FILES[f"{name}.json"]))))

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_configs(self, seed):
        rng = random.Random(seed)
        poset = random_poset(rng)
        ids = poset.prefix(poset.size)
        listed = {b: set(rng.sample(ids, rng.randint(0, len(ids))))
                  for b in BUCKETS}
        config = BuildConfig(poset, isolated=set(rng.sample(
            ids, rng.randint(0, len(ids)))), **listed)
        # built without validation, as some of these configs break the
        # existence hypotheses
        assert_rules_match(SkeletonTree(config, 5))

    @pytest.mark.parametrize("tag, top", [("omega-chain", 30),
                                          ("dyadic", 14),
                                          ("omega-antichain", 20)])
    def test_past_the_level_bound_with_no_tree(self, monkeypatch, tag,
                                               top):
        """A level n holds every type 1..type_cap(n), so the rule of any
        level follows from the config alone, far past the deepest level
        a tree can hold, and no tree or level is made to read it."""
        for n, lvl in enumerate(deepest_tree(BuildConfig(family(tag))).levels,
                                1):
            assert sorted(lvl.counts) == list(range(1, n + 1))

        def refused(*args, **kwargs):
            raise AssertionError("level_rule made a tree or a level")
        monkeypatch.setattr(SkeletonTree, "__init__", refused)
        monkeypatch.setattr(Level, "__init__", refused)
        config = BuildConfig(family(tag))
        for n in range(1, top + 1):
            types = range(1, config.type_cap(n) + 1)
            start = time.perf_counter()
            rule = level_rule(config, n)
            took = time.perf_counter() - start
            assert as_indices(rule) == ref_level_rule(config, n, types)
            assert took < 0.005, (n, took)


# ----------------------------------------------------------------------
# equal build rules, against the trees they build

def same_build(left, right, depth):
    """The oracle for ``equal_rules``: two trees built to depth at least,
    whose posets agree in size and in their ids up to level depth's
    types, whose levels 1..depth compare equal, and whose configs isolate
    the same ids among level depth's types."""
    posets = left.poset, right.poset
    if posets[0].size != posets[1].size:
        return False
    ids = [p.prefix(left.config.type_cap(depth)) for p in posets]
    isolated = [{p for p in ids[0] if p in tree.config.isolated}
                for tree in (left, right)]
    return (ids[0] == ids[1] and isolated[0] == isolated[1]
            and left.levels[:depth] == right.levels[:depth])


def assert_equal_rules_match(configs, top):
    """Over every pair of configs, both ways round, and every depth
    1..top their trees reach under the level-size bound, ``equal_rules``
    answers None exactly when ``same_build`` holds, and the same answer
    both ways round."""
    trees = []
    for config in configs:
        tree = SkeletonTree(config, 1)
        try:
            tree.extend_to(top + 1)
        except BuildError:
            pass
        trees.append(tree)
    for (a, left), (b, right) in combinations(enumerate(trees), 2):
        for depth in range(1, min(left.depth, right.depth) + 1):
            got = equal_rules(left.config, right.config, depth)
            assert got == equal_rules(right.config, left.config, depth)
            assert (got is None) == same_build(left, right, depth), (
                a, b, depth, got)


def one_element_variants(poset, reach=4):
    """The plain config of poset, then one config per bucket and per id
    among its first reach ids listing that id alone."""
    ids = poset.prefix(reach if poset.size is None else
                       min(reach, poset.size))
    return [BuildConfig(poset)] + [
        BuildConfig(poset, **{label: {p}})
        for label in ("isolated",) + BUCKETS for p in ids]


class TestEqualRules:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES + ["rn(0,0)", "rn(1,2)",
                                                       "rn(10,0)"])
    def test_builtin_families(self, tag):
        assert_equal_rules_match(one_element_variants(family(tag)), 6)

    def test_across_families(self):
        assert_equal_rules_match([BuildConfig(family(tag)) for tag in
                                  ORACLE_FAMILIES + ["rn(1,2)"]], 6)

    def test_poset_files(self):
        posets = [Poset.from_json(POSET_FILES[f"{name}.json"])
                  for name in CLI_POSETS]
        assert_equal_rules_match(
            [BuildConfig(p) for p in posets]
            + [c for p in posets for c in one_element_variants(p, 3)[1:5]],
            5)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_configs(self, seed):
        rng = random.Random(seed)
        shapes = [rng.random() for _ in range(2)]
        configs = []
        for shape in shapes + shapes:
            poset = random_poset(random.Random(shape))
            ids = poset.prefix(poset.size)
            pick = (lambda: set(rng.sample(ids, rng.randint(0, 1)))
                    if rng.random() < 0.5 else set())
            configs.append(BuildConfig(poset, isolated=pick(),
                                       **{b: pick() for b in BUCKETS}))
        assert_equal_rules_match(configs, 5)

    @pytest.mark.parametrize("tag", ["omega-chain", "omega-antichain",
                                     "dyadic", "rn(4,2)"])
    def test_one_isolated_element_parts_at_its_first_level(self, tag):
        poset = family(tag)
        for t in range(1, 7):
            if t > (poset.size or t):
                break
            right = BuildConfig(family(tag), isolated={poset.id_at(t)})
            for depth in range(1, 9):
                got = equal_rules(BuildConfig(poset), right, depth)
                assert (got is None) == (depth < t), (t, depth, got)
                if got is not None:
                    assert got[0] == t and got[2] == t, (t, depth, got)

    def test_past_the_level_bound_with_no_tree(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("equal_rules made a tree or a level")
        monkeypatch.setattr(SkeletonTree, "__init__", refused)
        monkeypatch.setattr(Level, "__init__", refused)
        left = BuildConfig(family("omega-chain"))
        assert equal_rules(left, BuildConfig(family("omega-chain")),
                           30) is None
        for far in (25, 30):
            right = BuildConfig(family("omega-chain"),
                                isolated={left.poset.id_at(far)})
            assert equal_rules(left, right, 30)[::2] == (far, far)


# ----------------------------------------------------------------------
# the config's index masks against per-id resolution

def masks_oracle(config, n):
    """(isolated, {bucket: mask}) over indices 1..n, resolved id by id."""
    ids = config.poset.prefix(n)
    iso = sum(1 << ix for ix, p in enumerate(ids, 1) if p in config.isolated)
    buckets = dict.fromkeys(BUCKETS, 0)
    for ix, p in enumerate(ids, 1):
        buckets[ref_bucket_of(config, p, n)] |= 1 << ix
    return iso, buckets


def assert_masks_match(rng, poset, reach=12):
    """A random config's masks at n = 1..reach, in a random order and then
    its reverse, so a smaller n follows a larger one.  An id may be listed
    in no bucket, one or two, listed ids include two the poset does not
    know, and three times in four every id of the prefix left unlisted is
    then listed in one bucket."""
    reach = reach if poset.size is None else min(reach, poset.size)
    ids = poset.prefix(reach)
    iso, explicit = set(), {b: set() for b in BUCKETS}
    for p in ids + ["no-such-id-1", "no-such-id-2"]:
        if rng.random() < 0.3:
            iso.add(p)
        for bucket in rng.sample(BUCKETS, rng.choice((0, 0, 1, 2))):
            explicit[bucket].add(p)
    rest = rng.choice(("auto",) + BUCKETS)
    unlisted = set(ids).difference(*explicit.values())
    for bucket, listed in listed_in(rest, unlisted).items():
        explicit[bucket] |= listed
    config = BuildConfig(poset, isolated=iso, **explicit,
                         horizon=rng.choice((None, 4, reach)))
    order = list(range(1, reach + 1))
    rng.shuffle(order)
    for n in order + order[::-1]:
        assert config.masks(n) == masks_oracle(config, n)


FILE_POSETS = {"chain": chain_ab_poset, "vee": vee_poset,
               "diamond": diamond_poset}


def count_lookups_in_masks(monkeypatch) -> dict[str, int]:
    """Count the ``Poset.id_at`` and ``Poset.index`` calls made while
    ``BuildConfig.masks`` runs, into the dict returned."""
    calls, inside = {"id_at": 0, "index": 0}, [False]
    for name in calls:
        def counted(self, arg, _name=name, _call=getattr(Poset, name)):
            calls[_name] += inside[0]
            return _call(self, arg)
        monkeypatch.setattr(Poset, name, counted)
    masks = BuildConfig.masks

    def watched(self, n):
        inside[0] = True
        try:
            return masks(self, n)
        finally:
            inside[0] = False
    monkeypatch.setattr(BuildConfig, "masks", watched)
    return calls


class TestConfigMasks:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_builtin_families_match_per_id_resolution(self, tag):
        rng = random.Random(tag)
        for _ in range(5):
            assert_masks_match(rng, family(tag))

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_random_posets_match_per_id_resolution(self, seed):
        rng = random.Random(seed)
        assert_masks_match(rng, random_poset(rng, max_size=12))

    @pytest.mark.parametrize("tag", ORACLE_FAMILIES + sorted(FILE_POSETS))
    def test_masks_look_up_no_id(self, monkeypatch, tag):
        calls = count_lookups_in_masks(monkeypatch)
        make = FILE_POSETS.get(tag, lambda: family(tag))
        rng = random.Random(tag)
        for _ in range(3):
            assert_masks_match(rng, make())
        verify_structure(build_levels(BuildConfig(make()), 5))
        assert calls == {"id_at": 0, "index": 0}

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_random_configs_look_up_no_id(self, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_lookups_in_masks(monkeypatch)
            rng = random.Random(seed)
            assert_masks_match(rng, random_poset(rng, max_size=12))
        assert calls == {"id_at": 0, "index": 0}

    def test_one_config_shared_by_two_trees(self):
        def make():
            return BuildConfig(family("omega-antichain"),
                               isolated={"a2", "a5"}, noncompact={"a3"},
                               unbounded={"a6"})
        shared = make()
        short, deep = SkeletonTree(shared, 3), SkeletonTree(shared, 7)
        short.extend_to(6)
        for tree in (short, deep):
            fresh = SkeletonTree(make(), tree.depth)
            assert tree.levels == fresh.levels
            assert (verify_structure(tree).to_json()
                    == verify_structure(fresh).to_json())
            cap = tree.config.type_cap(tree.depth)
            assert shared.masks(cap) == masks_oracle(shared, cap)


class TestConfigValue:
    def test_fields_reject_assignment(self):
        poset = family("ziegler-fan")
        config = BuildConfig(poset, horizon=6)
        before = config.masks(6)
        for name, value in (("poset", family("ziegler-fan")),
                            ("isolated", {"m1"}), ("bounded", {"m1"}),
                            ("unbounded", {"m1"}), ("noncompact", {"m1"}),
                            ("horizon", 8)):
            with pytest.raises(AttributeError):
                setattr(config, name, value)
        # m1, at index 2, is noncompact only in a config that lists it
        assert config.masks(6) == before
        assert before[1]["noncompact"] == 0b10
        listed = BuildConfig(poset, noncompact={"m1"}, horizon=6)
        assert listed.masks(6)[1]["noncompact"] == 0b110

    @pytest.mark.parametrize("tag", ORACLE_FAMILIES + ["random"])
    def test_equal_configs_answer_alike_in_any_order(self, tag):
        def make(rng):
            return (random_poset(rng, max_size=12) if tag == "random"
                    else family(tag))
        rng = random.Random(tag)
        poset = make(rng)
        ids = poset.prefix(12)
        fields = {"isolated": set(rng.sample(ids, 2)),
                  "unbounded": set(rng.sample(ids, 1)),
                  "noncompact": set(rng.sample(ids, 1)), "horizon": 4}
        one, two = (BuildConfig(poset, **fields) for _ in range(2))
        for config in (one, two):
            order = list(range(1, 13))
            rng.shuffle(order)
            for n in order:
                config.masks(n)
        for n in range(1, 13):
            assert one.masks(n) == two.masks(n) == masks_oracle(one, n), n
        # the same fields under another horizon, on a fresh copy of the
        # poset that no horizon has been read on: masks reads no horizon
        for horizon in (None, 1, 12, 30):
            other = BuildConfig(make(random.Random(tag)),
                                **{**fields, "horizon": horizon})
            for n in range(12, 0, -1):
                assert other.masks(n) == one.masks(n), (horizon, n)

    def test_config_is_a_dict_key(self):
        poset = family("ziegler-fan")
        seen = {BuildConfig(poset, isolated=["m1"], noncompact={"m2"},
                            horizon=6): "first"}
        assert seen[BuildConfig(poset, isolated={"m1"}, noncompact=["m2"],
                                horizon=6)] == "first"
        assert BuildConfig(poset, horizon=6) not in seen


def count_singleton_foundations(monkeypatch) -> Counter:
    """Count the ``Poset.finite_foundation`` calls made while
    ``Poset.p_delta`` runs, keyed by (poset, index of the singleton)."""
    calls, inside = Counter(), [False]
    p_delta, foundation = Poset.p_delta, Poset.finite_foundation

    def watched(self, horizon):
        inside[0] = True
        try:
            return p_delta(self, horizon)
        finally:
            inside[0] = False

    def counted(self, mask, horizon):
        if inside[0]:
            calls[self, mask.bit_length() - 1] += 1
        return foundation(self, mask, horizon)
    monkeypatch.setattr(Poset, "p_delta", watched)
    monkeypatch.setattr(Poset, "finite_foundation", counted)
    return calls


class TestOneFoundationPerIndex:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_validate_build_and_verify(self, monkeypatch, tag):
        calls = count_singleton_foundations(monkeypatch)
        config = BuildConfig(family(tag), horizon=4)
        assert config.validate(6) == []
        tree = build_levels(config, 6).extend_to(7)
        verify_structure(tree)
        # a finite poset's P_Delta is its whole prefix, with no query
        assert bool(calls) != config.poset.finite
        assert max(calls.values(), default=0) <= 1

    def test_self_match_grows_past_the_scope(self, monkeypatch):
        calls = count_singleton_foundations(monkeypatch)
        left, right = (build_levels(BuildConfig(family("omega-chain")), 6)
                       for _ in range(2))
        run_backforth(left, right, seed=2)
        assert left.depth > 6 and right.depth > 6
        assert max(calls.values()) == 1
        # growth asked each new index, and a level the size bound refused
        # may have asked one more
        for tree in (left, right):
            asked = {ix for p, ix in calls if p is tree.poset}
            assert set(range(1, tree.depth + 1)) <= asked
