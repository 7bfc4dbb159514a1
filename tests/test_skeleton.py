"""Skeleton builds: level recurrences, buckets, and structure checks."""
import pytest

from stonetrim import (BuildConfig, BuildError, ConfigError, build_levels,
                       family, verify_structure)


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
        assert tree.level(1).types == [1]
        assert tree.level(2).types == [1, 1, 2]
        assert tree.level(3).types == [1, 1, 2, 1, 1, 2, 2, 2]
        assert tree.level(4).types == [1, 1, 2, 1, 1, 2, 2, 2,
                                       1, 1, 2, 1, 1, 2, 2, 2,
                                       2, 2, 2, 2]

    def test_parents(self):
        tree = chain_tree(3)
        assert tree.level(2).parent == [0, 0, 0]
        assert tree.level(3).parent == [0, 0, 0, 1, 1, 1, 2, 2]
        assert tree.level(2).u_start == 3

    def test_isolated_bottom_stays_single(self):
        tree = chain_tree(6, isolated=frozenset({"a"}))
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 2, 4, 8,
                                                             16, 32]
        assert tree.level(2).types == [1, 2]
        assert tree.level(3).types == [1, 2, 2, 2]
        assert tree.isolated_ix() == {1}

    def test_node_views(self):
        tree = chain_tree(3)
        root = tree.node(1, 0)
        assert (root.level, root.index, root.type_id, root.type_ix,
                root.parent, root.u_flag) == (1, 0, "a", 1, None, False)
        kids = tree.children(1, 0)
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

    def test_depth_must_be_positive(self, chain_ab):
        with pytest.raises(BuildError, match="at least 1"):
            build_levels(BuildConfig(chain_ab), 0)

    def test_level_size_bound(self, chain_ab):
        with pytest.raises(BuildError, match="over the bound 10"):
            build_levels(BuildConfig(chain_ab, max_level_size=10), 4)

    def test_failed_build_leaves_the_tree_as_it_was(self, chain_ab):
        tree = build_levels(BuildConfig(chain_ab, max_level_size=10), 3)
        for _ in range(2):
            with pytest.raises(BuildError, match="level 4 would hold"):
                tree.extend_to(4)
            assert tree.depth == 3
            with pytest.raises(BuildError, match="level 4 not built"):
                tree.children_span(tree.depth, 0)
            with pytest.raises(BuildError, match="level 4 not built"):
                tree.theta_image(3, 1)

    def test_extend_matches_fresh_build(self):
        grown = chain_tree(3).extend_to(6)
        fresh = chain_tree(6)
        for n in range(1, 7):
            assert grown.level(n).types == fresh.level(n).types
            assert grown.level(n).parent == fresh.level(n).parent


class TestUnattachedNodes:
    def test_noncompact_supply_from_cover_level(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        tree = build_levels(cfg, 6)
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 3, 9, 23,
                                                             55, 127]
        assert tree.level(2).u_start == 3          # none yet at level 2
        lvl3 = tree.level(3)
        assert lvl3.types == [1, 1, 2, 1, 1, 2, 2, 2, 2]
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
        assert tree.level(2).types == [1, 1, 2, 2]
        assert tree.level(2).u_start == 3
        assert tree.level(3).u_start == len(tree.level(3))

    def test_ladder_fresh_and_supply(self):
        cfg = BuildConfig(family("rn-infinity"), horizon=8)
        tree = build_levels(cfg, 6)
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 4, 11, 27,
                                                             64, 150]
        assert tree.level(2).types == [1, 1, 2, 1]
        assert tree.level(2).u_start == 2

    def test_fan_u_section_order(self):
        cfg = BuildConfig(family("ziegler-fan"), horizon=8)
        tree = build_levels(cfg, 6)
        assert tree.level(2).types == [1, 1, 2, 1]
        assert tree.level(2).u_start == 2
        lvl3 = tree.level(3)
        assert lvl3.types == [1, 1, 1, 1, 2, 2, 1, 1, 1, 3, 1]
        assert lvl3.u_start == 9
        assert [len(tree.level(n)) for n in range(1, 7)] == [1, 4, 11, 27,
                                                             63, 143]

    def test_descends_to(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        tree = build_levels(cfg, 4)
        assert tree.descends_to(3, 0, 1)
        assert not tree.descends_to(3, 8, 1)       # unattached node
        assert tree.descends_to(3, 8, 3)


class TestMasks:
    def test_type_mask_and_full_mask(self):
        lvl = chain_tree(3).level(3)
        assert lvl.type_mask(1) == 0b00011011
        assert lvl.type_mask(2) == 0b11100100
        assert lvl.full_mask == 0xFF
        assert lvl.u_mask == 0
        assert lvl.present_types() == [1, 2]

    def test_u_mask_covers_unattached(self, chain_ab):
        cfg = BuildConfig(chain_ab, bounded={"a"}, noncompact={"b"})
        lvl3 = build_levels(cfg, 3).level(3)
        assert lvl3.u_mask == 1 << 8

    def test_theta_image_spans_children(self):
        tree = chain_tree(3)
        assert tree.theta_image(2, 0b001) == 0b00000111
        assert tree.theta_image(2, 0b100) == 0b11000000
        assert tree.theta_image(2, 0b101) == 0b11000111


class TestSerialization:
    def test_to_json(self):
        doc = chain_tree(2).to_json()
        assert list(doc) == ["poset", "depth", "levels"]
        assert doc["depth"] == 2
        assert doc["levels"][0] == [{"t": "a", "parent": None, "u": False}]
        assert doc["levels"][1] == [{"t": "a", "parent": 0, "u": False},
                                    {"t": "a", "parent": 0, "u": False},
                                    {"t": "b", "parent": 0, "u": False}]

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
        assert rep.failures() == []
        names = [n for n, _, _ in rep.checks]
        assert "types-present@5" in names
        assert "continuation-children@4" in names

    def test_isolated_line_check(self):
        rep = verify_structure(chain_tree(5, isolated=frozenset({"a"})))
        assert rep.passed
        assert any(n == "isolated-single-line:a" for n, _, _ in rep.checks)

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
        fails = dict(rep.failures())
        assert "covered-types-descend" in fails
        assert "escapes level 1" in fails["covered-types-descend"]

    def test_report_serializes(self):
        doc = verify_structure(chain_tree(3)).to_json()
        assert doc["passed"] is True
        assert all(set(c) == {"name", "passed", "detail"}
                   for c in doc["checks"])
