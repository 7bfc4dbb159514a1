"""Skeleton builds: level recurrences, buckets, and structure checks."""
import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import children, descends_to, random_poset, ref_theta_image
from stonetrim import (FOUND, BuildConfig, BuildError, ConfigError, Poset,
                       build_levels, family, verify_structure)
from stonetrim.poset import bits, runs
from stonetrim.skeleton import (BUCKETS, Level, SkeletonTree,
                                StructureReport, spell)


def chain_tree(depth=4, **kw):
    from conftest import chain_ab_poset
    return build_levels(BuildConfig(chain_ab_poset(), **kw), depth)


class TestConfig:
    def test_unknown_default_bucket(self, chain_ab):
        with pytest.raises(ConfigError, match="unknown default bucket"):
            BuildConfig(chain_ab, default_bucket="weird")

    def test_scope(self, chain_ab):
        assert BuildConfig(chain_ab).scope(10) == 2
        cfg = BuildConfig(family("omega-chain"), horizon=8)
        assert cfg.scope(3) == 8
        assert cfg.scope(12) == 12

    def test_auto_bucket_follows_foundations(self, chain_ab):
        cfg = BuildConfig(chain_ab)
        assert cfg.bucket_of("a", 4) == "bounded"
        assert cfg.bucket_of("b", 4) == "bounded"
        lad = BuildConfig(family("rn-infinity"), horizon=8)
        lad.poset.prefix(8)
        assert lad.bucket_of("p0", 8) == "noncompact"

    def test_explicit_buckets_win(self, chain_ab):
        cfg = BuildConfig(chain_ab, noncompact=frozenset({"b"}))
        assert cfg.bucket_of("b", 4) == "noncompact"


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

    def test_isolated_minimal_noncompact(self):
        cfg = BuildConfig(family("omega-antichain"), isolated={"a1"},
                          noncompact={"a1"}, horizon=6)
        probs = cfg.validate(6)
        assert any(p.startswith("isolated-minimal-noncompact") for p in probs)

    def test_bounded_not_lower(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"b"},
                          default_bucket="noncompact")
        probs = cfg.validate(4)
        assert "bounded-not-lower: not a lower set on the prefix" in probs

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
        assert tree.config.masks(tree.type_cap(tree.depth))[0] == 1 << 1

    def test_node_views(self):
        tree = chain_tree(3)
        root = tree.node(1, 0)
        assert (root.level, root.index, root.type_id, root.type_ix,
                root.parent, root.u_flag) == (1, 0, "a", 1, None, False)
        kids = children(tree, 1, 0)
        assert [k.type_id for k in kids] == ["a", "a", "b"]

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
            with pytest.raises(IndexError, match=f"level 2 has no node {i}"):
                tree.node(2, i)
        assert tree.children_span(2, 2) == (4, 6)
        assert tree.node(2, 2).index == 2

    def test_depth_must_be_positive(self, chain_ab):
        with pytest.raises(BuildError, match="at least 1") as info:
            build_levels(BuildConfig(chain_ab), 0)
        assert info.value.level is None and info.value.bound is None

    def test_level_size_bound(self, chain_ab):
        with pytest.raises(BuildError) as info:
            build_levels(BuildConfig(chain_ab, max_level_size=10), 4)
        err = info.value
        assert str(err) == "level 4 would hold 20 nodes, over the bound 10"
        assert (err.level, err.would_hold, err.bound) == (4, 20, 10)

    def test_failed_build_leaves_the_tree_as_it_was(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, max_level_size=10), 3)
        ends = [list(lvl.block_end) for lvl in tree.levels]
        for _ in range(2):
            with pytest.raises(BuildError, match="level 4 would hold"):
                tree.extend_to(4)
            assert tree.depth == 3
            assert [list(lvl.block_end) for lvl in tree.levels] == ends
            with pytest.raises(BuildError, match="level 4 not built"):
                tree.children_span(tree.depth, 0)
            with pytest.raises(BuildError, match="level 4 not built"):
                tree.theta_image(3, 1)

    def test_failed_build_leaves_the_index_sets_as_they_were(self):
        cfg = BuildConfig(family("omega-chain"), isolated={"p4"},
                          max_level_size=20, horizon=6)
        tree = build_levels(cfg, 3)
        for _ in range(2):
            with pytest.raises(BuildError, match="level 4 would hold"):
                tree.extend_to(4)
            assert tree.depth == 3
            # the tree's view of the config: indices 1..3, p4 is index 4
            iso, buckets = tree.config.masks(tree.type_cap(tree.depth))
            assert iso == 0
            assert not any(m >> 4 & 1 for m in buckets.values())
        assert buckets["bounded"] >> 3 & 1

    @pytest.mark.parametrize("tag", ["omega-chain", "rn(2,0)",
                                     "ziegler-fan"])
    def test_a_built_level_is_never_written_again(self, tag):
        """Each level keeps its object and its arrays through a deeper
        build and a failed one, and equals the same level of a fresh
        build to the smaller depth."""
        tree = build_levels(BuildConfig(family(tag)), 4)
        kept = [(lvl, lvl.types.tolist(), lvl.block_end.tolist(),
                 lvl.u_start, dict(lvl.counts)) for lvl in tree.levels]
        tree.extend_to(6)
        tree.config.max_level_size = len(tree.level(6))
        with pytest.raises(BuildError, match="level 7 would hold"):
            tree.extend_to(7)
        fresh = build_levels(BuildConfig(family(tag)), 4)
        assert len(kept) == len(fresh.levels) == 4
        for (lvl, types, ends, u_start, counts), want in zip(kept,
                                                             fresh.levels):
            assert lvl is tree.level(lvl.number)
            assert (lvl.types.tolist(), lvl.block_end.tolist(), lvl.u_start,
                    lvl.counts) == (types, ends, u_start, counts)
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
SPELLED_FAMILIES = ["omega-chain", "dyadic", "rn-infinity", "rn-infinity-bot",
                    "ziegler-fan", "omega-antichain", "rn(2,0)", "rn(4,2)",
                    "rn(10,0)"]


class TestStorage:
    def test_levels_hold_few_bytes_per_node(self):
        # a node's type is one 4-byte array item, and so is the end of
        # each child block on the level it lays out; parents and block
        # starts are derived
        tracemalloc.start()
        try:
            tree = build_levels(BuildConfig(family("omega-antichain")), 14)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 12 * sum(map(len, tree.levels))

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
        assert lvl3.parent[8] is None
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

    def test_block_masks_follow_the_child_spans(self):
        lvl = chain_tree(3).level(3)        # child blocks 0-2, 3-5, 6-7
        assert lvl.block_masks() == (0b01001001, 0b10100100)
        other = Level(3, lvl.types, lvl.u_start, array("I", [2, 6, 8]))
        assert other.block_masks() == (0b01000101, 0b10100010)


class TestSerialization:
    def test_to_dot(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        dot = build_levels(cfg, 3).to_dot()
        assert dot.startswith("digraph skeleton {")
        assert '"1.0" [label="1.0:a"];' in dot
        assert '"1.0" -> "2.0";' in dot
        assert '"3.8" [label="3.8:b", style=dashed];' in dot

    def test_to_dot_truncates(self):
        dot = chain_tree(4).to_dot(max_level=2)
        assert '"2.2"' in dot and '"3.0"' not in dot


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
        rep = verify_structure(chain_tree(5), q_lower={"a"})
        assert rep.passed
        assert any(n == "covered-types-descend" for n, _, _ in rep.checks)

    def test_cover_descent_fails_past_unattached_nodes(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, bounded={"a"},
                                        noncompact={"b"}), 4)
        rep = verify_structure(tree, q_lower={"a", "b"})
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

def next_level_oracle(tree):
    """Level depth+1 laid out node by node, as the builder stored it before
    parents and child starts were derived: (types, parents, u_start) of the
    new level and the starts and ends of its child blocks."""
    n = tree.depth + 1
    cap = tree.type_cap(n)
    config, ids = tree.config, tree.poset.prefix(cap)
    iso = {ix for ix, p in enumerate(ids, 1) if p in config.isolated}
    buckets = {ix: config.bucket_of(p, n) for ix, p in enumerate(ids, 1)}
    prev = tree.levels[-1]
    below_cap = (1 << cap + 1) - 2
    blocks, reach = {}, 0
    for t in set(prev.types):
        up = tree.poset.up_mask(t)
        reach |= up
        blocks[t] = ([t] * (1 if t in iso else 2)
                     + list(bits(up & below_cap & ~(1 << t))))
    unattached = []
    if cap >= n and (buckets[n] == "unbounded" or not reach >> n & 1):
        unattached.append(n)
    unattached += [q for q in range(1, tree.type_cap(n - 1) + 1)
                   if buckets[q] == "noncompact"]
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
        want = set(range(1, tree.type_cap(n) + 1))
        have = set(tree.level(n).types)
        rep.add(f"types-present@{n}", want <= have,
                f"missing {sorted(want - have)}" if not want <= have else "")
    iso = {ix for ix, p in enumerate(poset.prefix(tree.type_cap(depth)), 1)
           if p in tree.config.isolated}
    minimal, _ = poset.confirmed_minimal(tree.type_cap(depth))
    min_ix = {poset.index(p) for p in minimal}
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
    for t in range(1, tree.type_cap(depth) + 1):
        b = tree.config.bucket_of(poset.id_at(t), depth)
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
        res = poset.finite_foundation(frozenset(q_lower), tree.type_cap(depth))
        if res.status != FOUND:
            rep.add("cover-foundation", False,
                    f"foundation search returned {res.status}")
        else:
            q_ix = {poset.index(p) for p in q_lower}
            n0 = max(poset.index(p) for p in res.foundation)
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


def assert_matches_oracles(config, depth, q_lower=None):
    """Grow a tree level by level, comparing each level with the per-node
    layout, then its type masks and structure report."""
    tree = SkeletonTree(config, 1)
    while tree.depth < depth:
        types, parents, u_start, starts, ends = next_level_oracle(tree)
        tree.extend_to(tree.depth + 1)
        prev, lvl = tree.levels[-2], tree.levels[-1]
        assert (list(lvl.types), lvl.u_start) == (types, u_start)
        assert list(lvl.block_end) == ends
        assert [lvl.block_start(i) for i in range(len(prev))] == starts
        assert list(lvl.parent) == parents
        assert [lvl.parent_of(i) for i in range(len(lvl))] == parents
        for lo in range(0, len(lvl), 5):
            assert lvl.parent[lo:lo + 7] == parents[lo:lo + 7]
        assert lvl.parent[::-3] == parents[::-3]
        assert lvl.parent[-1] == parents[-1]
    for lvl in tree.levels:
        assert list(lvl.type_masks().items()) == type_masks_oracle(lvl.types)
        assert lvl.type_bits() == [(1 << t, m)
                                   for t, m in type_masks_oracle(lvl.types)]
    assert_same_report(tree, q_lower)
    return tree


def assert_same_report(tree, q_lower=None):
    got = verify_structure(tree, q_lower=q_lower).to_json()
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
        layout = [(lvl.types.tolist(), lvl.block_end.tolist(), lvl.counts)
                  for lvl in tree.levels]
        config.max_level_size = size - 1
        with pytest.raises(BuildError) as info:
            tree.extend_to(n)
        err = info.value
        assert (err.level, err.would_hold, err.bound) == (n, size, size - 1)
        assert [(lvl.types.tolist(), lvl.block_end.tolist(), lvl.counts)
                for lvl in tree.levels] == layout
        config.max_level_size = size
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
            BuildConfig(poset, isolated=isolated, default_bucket=bucket), 5)

    def test_a_failed_build_reads_no_node_of_the_last_level(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, max_level_size=10), 3)
        tree.level(3).types = None          # any per-node pass would fail
        with pytest.raises(BuildError, match="level 4 would hold 20 nodes"):
            tree.extend_to(4)


class TestWholeLevelPasses:
    @pytest.mark.parametrize("tag", ORACLE_FAMILIES)
    def test_builtin_families_match_the_node_loops(self, tag):
        poset = family(tag)
        tree = assert_matches_oracles(BuildConfig(poset), 7)
        assert_same_report(tree, q_lower=[poset.id_at(1)])

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
        config = BuildConfig(poset, isolated=isolated, default_bucket=bucket)
        lower = poset.down_set(rng.choice(ids), poset.size)
        assert_matches_oracles(config, 5, q_lower=lower)

    @staticmethod
    def tamper(tree, n, i, block_ix, new_type):
        """Retype child block_ix of node n.i; n + 1 is the last level, so no
        other check sees the change."""
        lvl = tree.level(n + 1)
        lvl.types[lvl.block_start(i) + block_ix] = new_type
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
        size = kids.block_end[last] - kids.block_start(last)
        self.tamper(tree, 3, last, size - 1, 1)
        assert self.failures(tree) == [(
            "continuation-children@3",
            f"node 3.{last} of type b has 1 continuation children, "
            f"wanted 2")]

    def test_more_continuation_children_than_a_byte_holds(self, chain_ab):
        # the root's block of level 2 laid out by hand: 300 a's and a b
        tree = build_levels(BuildConfig(chain_ab), 2)
        tree.levels[1] = Level(2, array("I", [1] * 300 + [2]), 301,
                               array("I", [301]))
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


# ----------------------------------------------------------------------
# the config's index masks against per-id resolution

def masks_oracle(config, n):
    """(isolated, {bucket: mask}) over indices 1..n, resolved id by id."""
    ids = config.poset.prefix(n)
    iso = sum(1 << ix for ix, p in enumerate(ids, 1) if p in config.isolated)
    buckets = dict.fromkeys(BUCKETS, 0)
    for ix, p in enumerate(ids, 1):
        buckets[config.bucket_of(p, n)] |= 1 << ix
    return iso, buckets


def assert_masks_match(rng, poset, reach=12):
    """A random config's masks at n = 1..reach, in a random order and then
    its reverse, so a smaller n follows a larger one."""
    reach = reach if poset.size is None else min(reach, poset.size)
    iso, explicit = set(), {b: set() for b in BUCKETS}
    for p in poset.prefix(reach):
        if rng.random() < 0.3:
            iso.add(p)
        if rng.random() < 0.5:
            explicit[rng.choice(BUCKETS)].add(p)
    config = BuildConfig(poset, isolated=iso, **explicit,
                         default_bucket=rng.choice(("auto",) + BUCKETS),
                         horizon=rng.choice((None, 4, reach)))
    order = list(range(1, reach + 1))
    rng.shuffle(order)
    for n in order + order[::-1]:
        assert config.masks(n) == masks_oracle(config, n)


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
            cap = tree.type_cap(tree.depth)
            assert shared.masks(cap) == masks_oracle(shared, cap)
