"""Descending atom paths and their convergence labels."""
import pytest

from conftest import (chain_ab_poset, children, diamond_poset,
                      two_chains_poset)
from stonetrim import (BuildConfig, PathPrefix, PointError, ancestry,
                       build_levels, family, label_prefix, realize_chain)
from stonetrim.poset import PosetError


@pytest.fixture(scope="module")
def chain_tree():
    return build_levels(BuildConfig(chain_ab_poset()), 4)


@pytest.fixture(scope="module")
def diamond_tree():
    return build_levels(BuildConfig(diamond_poset()), 4)


@pytest.fixture(scope="module")
def dyadic_tree():
    return build_levels(BuildConfig(family("dyadic")), 6)


@pytest.fixture(scope="module")
def two_chains_tree():
    return build_levels(BuildConfig(two_chains_poset()), 6)


def child_of_type(tree, node, type_id):
    for kid in children(tree, *node):
        if kid.type_id == type_id:
            return (kid.level, kid.index)
    raise AssertionError(f"no {type_id} child under {node}")


class TestPathPrefix:
    def test_needs_a_node(self, chain_tree):
        with pytest.raises(PointError, match="at least one node"):
            PathPrefix(chain_tree, ())

    def test_levels_must_be_consecutive(self, chain_tree):
        with pytest.raises(PointError, match="consecutive"):
            PathPrefix(chain_tree, ((1, 0), (3, 0)))

    def test_child_links_checked(self, chain_tree):
        with pytest.raises(PointError, match=r"3\.7 is not a child of 2\.0"):
            PathPrefix(chain_tree, ((2, 0), (3, 7)))

    def test_node_indexes_are_checked(self):
        # an index outside its level, or a level not built, names no node
        tree = build_levels(BuildConfig(family("rn(2,0)")), 4)
        valid = {(1, 0), (3, 0), (3, 4), (4, 0)}
        for nodes in (((2, -1), (3, 4)), ((2, 99), (3, 0)), ((2, 99),),
                      ((3, 0), (4, -1)), ((2, 3),), ((1, -1),), ((5, 0),),
                      ((0, 0), (1, 0)), ((4, 0), (5, 0)), ((-1, 0),)):
            [(n, i)] = set(nodes) - valid
            with pytest.raises(PointError, match=rf"no node {n}\.{i} on the "
                               r"levels built \(depth 4\)"):
                PathPrefix(tree, nodes)
        path = PathPrefix(tree, ((2, 2), (3, 4)))
        assert path.serialize()["nodes"] == [[2, 2], [3, 4]]

    def test_views(self, chain_tree):
        path = PathPrefix(chain_tree, ((1, 0), (2, 2)))
        assert path.type_ids() == ("a", "b")
        assert path.serialize() == {"nodes": [[1, 0], [2, 2]],
                                    "types": ["a", "b"]}


class TestAncestry:
    def test_full_parent_chain(self, chain_tree):
        path = ancestry(chain_tree, 3, 5)
        assert path.nodes == ((1, 0), (2, 1), (3, 5))
        assert path.type_ids() == ("a", "a", "b")

    def test_stops_at_unattached_nodes(self):
        cfg = BuildConfig(chain_ab_poset(), bounded={"a"}, noncompact={"b"})
        tree = build_levels(cfg, 4)
        path = ancestry(tree, 3, 8)
        assert path.nodes == ((3, 8),)


class TestRealizeChain:
    def test_starts_at_the_root_when_possible(self, chain_tree):
        assert realize_chain(chain_tree, ["a", "b"]).nodes == ((1, 0), (2, 2))

    def test_start_level_waits_for_enumeration(self, chain_tree):
        assert realize_chain(chain_tree, ["b"]).nodes == ((2, 2),)

    def test_three_step_chain(self, diamond_tree):
        path = realize_chain(diamond_tree, ["a", "b", "d"])
        assert path.type_ids() == ("a", "b", "d")
        assert path.nodes[-1][0] == 4

    def test_dyadic_ascent(self, dyadic_tree):
        path = realize_chain(dyadic_tree, ["1/2", "3/4", "7/8"])
        assert path.nodes == ((4, 3), (5, 17), (6, 81))

    def test_empty_chain(self, chain_tree):
        with pytest.raises(PointError, match="empty chain"):
            realize_chain(chain_tree, [])

    def test_must_strictly_ascend(self, chain_tree):
        with pytest.raises(PointError, match="not strictly ascending"):
            realize_chain(chain_tree, ["b", "a"])
        with pytest.raises(PointError, match="not strictly ascending"):
            realize_chain(chain_tree, ["a", "a"])

    def test_depth_exhaustion(self, dyadic_tree):
        dyadic_tree.poset.prefix(10)
        with pytest.raises(PointError, match="needs depth 10, tree has 6"):
            realize_chain(dyadic_tree, ["1/2", "3/4", "7/8", "15/16"])

    def test_unknown_id(self, chain_tree):
        with pytest.raises(PosetError):
            realize_chain(chain_tree, ["zz"])


class TestLabels:
    def test_clean_constant_tail(self, chain_tree):
        path = PathPrefix(chain_tree, ((1, 0), (2, 0), (3, 0)))
        lab = label_prefix(path)
        assert (lab.kind, lab.value) == ("clean", "a")
        assert lab.detail == "type constant over the last 2 levels"

    def test_clean_after_a_late_switch(self, chain_tree):
        path = PathPrefix(chain_tree, ((1, 0), (2, 2), (3, 6)))
        lab = label_prefix(path)
        assert (lab.kind, lab.value) == ("clean", "b")

    def test_limit_with_family_display(self, dyadic_tree):
        path = realize_chain(dyadic_tree, ["1/2", "3/4", "7/8"])
        lab = label_prefix(path)
        assert lab.kind == "limit"
        assert lab.value == "lim→1⁻"
        assert lab.detail == "strictly ascending through 3 levels"

    def test_limit_falls_back_to_the_token_name(self, two_chains_tree):
        path = realize_chain(two_chains_tree, ["x1", "x2", "x3"])
        lab = label_prefix(path)
        assert (lab.kind, lab.value) == ("limit", "lim(x1,x2,x3)")

    def test_finite_posets_never_get_limits(self, diamond_tree):
        lab = label_prefix(realize_chain(diamond_tree, ["a", "b", "d"]))
        assert lab.kind == "undetermined"
        assert lab.detail == "ascending, but all ascents here stabilize"

    def test_short_ascent_is_undetermined(self, chain_tree):
        lab = label_prefix(realize_chain(chain_tree, ["a", "b"]))
        assert lab.kind == "undetermined"
        assert lab.detail == "ascending but too short"

    def test_mixed_path_is_undetermined(self, diamond_tree):
        n1 = (1, 0)
        n2 = child_of_type(diamond_tree, n1, "b")
        n3 = child_of_type(diamond_tree, n2, "b")
        n4 = child_of_type(diamond_tree, n3, "d")
        lab = label_prefix(PathPrefix(diamond_tree, (n1, n2, n3, n4)))
        assert lab.kind == "undetermined"
        assert lab.detail == "no stabilized tail yet"

    def test_label_serializes(self, chain_tree):
        doc = label_prefix(realize_chain(chain_tree, ["a", "b"])).serialize()
        assert set(doc) == {"kind", "value", "detail"}
