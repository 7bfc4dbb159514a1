"""Back-and-forth matching runs: certificates, witnesses, budgets."""
import pytest

from conftest import chain_ab_poset, diamond_poset, vee_poset
from stonetrim import (BuildConfig, IsoError, Poset, RingElement,
                       build_levels, family, init_iso, extend_iso,
                       lift_poset_automorphism, run_backforth)
from stonetrim.backforth import Pair, _check_theta, _covered, _schedule


def build(poset_maker, depth=6, **kw):
    return build_levels(BuildConfig(poset_maker(), **kw), depth)


def chain_xy_poset():
    return Poset.from_covers("chain-xy", ["x", "y"], [("x", "y")])


class TestInit:
    def test_seed_pairs_cover_the_foundation(self):
        left = build(chain_ab_poset, isolated={"a"})
        right = build(chain_ab_poset, isolated={"a"})
        state = init_iso(left, right, {"a"}, lambda p: p)
        assert len(state.pairs) == 1
        pair = state.pairs[0]
        assert pair.gens == (1, 1)
        assert pair.parts[0] == RingElement.whole(left)
        assert state.verify() == []

    def test_verify_recomputes_from_scratch(self):
        left = build(chain_ab_poset)
        right = build(chain_ab_poset)
        state = init_iso(left, right, {"a"}, lambda p: p)
        state.pairs[0].gens = (1, 2)
        problems = state.verify()
        assert any("not matched by the order bijection" in p
                   for p in problems)
        assert any("not trim for 'b'" in p for p in problems)

    def test_extend_keeps_invariants(self):
        left = build(chain_ab_poset)
        right = build(chain_ab_poset)
        state = init_iso(left, right, {"a"}, lambda p: p)
        for n, i in ((2, 0), (2, 2), (3, 4)):
            extend_iso(state, 0, RingElement.atom(left, n, i), 12)
            assert state.verify() == []
        atom = RingElement.atom(left, 2, 2)
        assert state.union(0).contains(atom)


def coverage_oracle(state, schedule):
    """Coverage on ring elements: every scheduled atom equals the union of
    the parts it contains."""
    for side, n, i in schedule:
        tree = state.trees[side]
        atom = RingElement.atom(tree, n, i)
        inside = RingElement.empty(tree)
        for pair in state.pairs:
            part = pair.parts[side]
            if atom.contains(part):
                inside = inside.union(part)
        if inside != atom:
            return False
    return True


@pytest.mark.parametrize("isolated", [set(), {"a"}])
@pytest.mark.parametrize("maker", [chain_ab_poset, vee_poset, diamond_poset])
def test_mask_matcher_agrees_with_ring_operations(maker, isolated):
    left = build(maker, isolated=isolated)
    right = build(maker, isolated=isolated)
    state = init_iso(left, right, {"a"}, lambda p: p)
    schedule = _schedule(left, right, 6, seed=1)
    for k, (side, n, i) in enumerate(schedule, 1):
        extend_iso(state, side, RingElement.atom(state.trees[side], n, i),
                   14)
        for s in (0, 1):
            assert state.running_union(s) == state.union(s)
        assert state.verify() == []
        if k % 16 == 0:
            # the atoms extended so far are unions of parts, the rest
            # not yet in general
            assert _covered(state, schedule[:k]) is True
            assert coverage_oracle(state, schedule[:k]) is True
            assert (_covered(state, schedule)
                    == coverage_oracle(state, schedule))
    assert _covered(state, schedule) is coverage_oracle(state, schedule) \
        is True
    run = run_backforth(build(maker, isolated=isolated),
                        build(maker, isolated=isolated), seed=1)
    assert run.coverage is True
    for k in (0, len(state.pairs) // 2, len(state.pairs) - 1):
        pair = state.pairs.pop(k)
        assert _covered(state, schedule) is coverage_oracle(state, schedule) \
            is False
        state.pairs.insert(k, pair)
    # a part over the whole space overlaps every other part (which verify
    # reports) and lies inside no smaller atom, so coverage still holds
    state.pairs.append(Pair((RingElement.whole(left),
                             RingElement.whole(right)), (1, 1)))
    assert _covered(state, schedule) is coverage_oracle(state, schedule) \
        is True
    assert "left parts overlap" in state.verify()
    # the same whole part on the right side alone overlaps only there
    state.pairs[-1].parts = (RingElement.empty(left), RingElement.whole(right))
    problems = state.verify()
    assert "right parts overlap" in problems
    assert "left parts overlap" not in problems
    # parts of different levels meet only once lifted: a level-4 atom
    # inside a level-2 atom's block overlaps it, and the level-4 atoms
    # just outside the block touch it end to start without overlapping
    a, b = left.lift_runs(2, [(1, 2)], 4)[0]
    coarse = RingElement.atom(left, 2, 1)
    empty = RingElement.empty(right)
    near = [i for i in (a - 1, a, b - 1, b) if 0 <= i < len(left.level(4))]
    assert len(near) >= 3
    for i in near:
        fine = RingElement.atom(left, 4, i)
        assert fine.level == 4
        state.pairs = [Pair((coarse, empty), (1, 1)),
                       Pair((fine, empty), (1, 1))]
        overlaps = "left parts overlap" in state.verify()
        assert overlaps is (a <= i < b)
    # the two halves of that block touch, and the block overlaps each
    mid = (a + b) // 2
    halves = [RingElement(left, 4, (1 << hi) - (1 << lo))
              for lo, hi in ((a, mid), (mid, b))]
    state.pairs = [Pair((half, empty), (1, 1)) for half in halves]
    assert "left parts overlap" not in state.verify()
    state.pairs.append(Pair((coarse, empty), (1, 1)))
    assert "left parts overlap" in state.verify()


class TestRuns:
    def test_identical_chains_certify(self):
        for seed in range(5):
            run = run_backforth(build(chain_ab_poset, isolated={"a"}),
                                build(chain_ab_poset, isolated={"a"}),
                                seed=seed)
            assert run.status == "iso"
            assert run.coverage is True
            assert run.invariant_failures == []
            assert run.depth_used <= 14

    def test_vee_and_diamond_certify(self):
        run_v = run_backforth(build(vee_poset), build(vee_poset))
        assert run_v.status == "iso" and run_v.pairs == 52
        run_d = run_backforth(build(diamond_poset), build(diamond_poset))
        assert run_d.status == "iso" and run_d.pairs == 74

    @pytest.mark.parametrize("maker, seed, pairs, depth_used, steps", [
        (diamond_poset, 1, 64, 11, 62),
        (diamond_poset, 2, 63, 8, 60),
        (vee_poset, 1, 60, 11, 58),
        (vee_poset, 2, 47, 9, 47),
    ])
    def test_self_matching_is_pinned(self, maker, seed, pairs, depth_used,
                                     steps):
        run = run_backforth(build(maker), build(maker), seed=seed)
        assert run.serialize() == {
            "status": "iso", "pairs": pairs, "depth_used": depth_used,
            "witness": None, "note": "", "coverage": True,
            "invariant_failures": [], "steps": steps}

    def test_transcript_entries_hold_counts_only(self):
        run = run_backforth(build(diamond_poset), build(diamond_poset), seed=1)
        assert run.status == "iso"
        assert {entry["action"] for entry in run.transcript} >= {"init",
                                                                 "split"}
        for entry in run.transcript:
            assert set(entry) <= {"action", "side", "pieces", "pairs"}

    # each mismatch run and its mirror image, named by the short side
    @pytest.mark.parametrize("isolated, side", [
        (({"a"}, set()), "left"),
        ((set(), {"a"}), "right"),
    ], ids=["left", "right"])
    def test_isolation_difference_is_a_mismatch(self, isolated, side):
        run = run_backforth(*(build(chain_ab_poset, isolated=iso)
                              for iso in isolated))
        assert run.status == "mismatch"
        assert run.witness.serialize() == {
            "side": side, "type": "a", "needed": 2, "available": 1,
            "reason": "isolated type cannot multiply inside a part typed "
                      "exactly by it"}

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: _schedule covers levels 1..depth-2 only, the root "
        "alone at depth 3, so a shallow run certifies an isolation "
        "difference; at depth 4 the verdict depends on the seed"))
    def test_an_isolation_difference_never_certifies(self):
        # a one-point space against the Cantor set, and rn(2,0) with and
        # without p0 isolated: the uniqueness theorem predicts a mismatch
        verdicts = {}
        for maker, p in ((lambda: Poset.from_covers("s", ["a"], []), "a"),
                         (lambda: family("rn(2,0)"), "p0")):
            for depth in (3, 4, 5):
                for seed in (0, 1, 2):
                    run = run_backforth(build(maker, depth, isolated={p}),
                                        build(maker, depth),
                                        depth=depth, seed=seed)
                    verdicts[p, depth, seed] = run.status
        assert set(verdicts.values()) == {"mismatch"}, verdicts

    @pytest.mark.parametrize("makers, side", [
        ((chain_ab_poset, vee_poset), "left"),
        ((vee_poset, chain_ab_poset), "right"),
    ], ids=["left", "right"])
    def test_missing_type_is_a_mismatch(self, makers, side):
        run = run_backforth(*(build(maker) for maker in makers))
        assert run.status == "mismatch"
        assert run.witness.serialize() == {
            "side": side, "type": "c", "needed": 1, "available": 0,
            "reason": "type has no counterpart in the other alphabet"}

    # against a noncompact b the plain side finds no unclaimed b atom
    # within the budget; the note names that side and the type by its id
    @pytest.mark.parametrize("noncompact, pairs, side", [
        ((set(), {"b"}), 11, "left"),
        (({"b"}, set()), 10, "right"),
    ], ids=["left", "right"])
    def test_fresh_counterpart_budget_is_pinned(self, noncompact, pairs,
                                                side):
        run = run_backforth(*(build(chain_ab_poset, depth=5, noncompact=nc)
                              for nc in noncompact), seed=0)
        assert run.serialize() == {
            "status": "depth-exhausted", "pairs": pairs, "depth_used": 5,
            "witness": None,
            "note": f"no unclaimed 'b' atom on the {side} side within "
                    f"depth 13",
            "coverage": False, "invariant_failures": [], "steps": pairs}

    def test_depth_budget_exhaustion(self):
        run = run_backforth(build(chain_ab_poset), build(chain_ab_poset),
                            max_depth=6)
        assert run.status == "depth-exhausted"
        assert run.note == "right side needs level 7"
        full = run_backforth(build(chain_ab_poset), build(chain_ab_poset))
        assert full.status == "iso"

    @pytest.mark.parametrize("max_depth", [0, 5])
    def test_max_depth_below_depth_is_rejected(self, max_depth):
        with pytest.raises(IsoError, match="max_depth must be at least"):
            run_backforth(build(chain_ab_poset), build(chain_ab_poset),
                          max_depth=max_depth)

    def test_depth_zero_is_rejected(self):
        with pytest.raises(IsoError, match="need depth at least 3"):
            run_backforth(build(chain_ab_poset), build(chain_ab_poset),
                          depth=0)

    def test_same_seed_same_run(self):
        docs = []
        for _ in range(2):
            run = run_backforth(build(chain_ab_poset, isolated={"a"}),
                                build(chain_ab_poset, isolated={"a"}),
                                seed=3)
            docs.append(run.serialize())
        assert docs[0] == docs[1]
        assert set(docs[0]) == {"status", "pairs", "depth_used", "witness",
                                "note", "coverage", "invariant_failures",
                                "steps"}

    def test_needs_some_depth(self):
        with pytest.raises(IsoError, match="depth at least 3"):
            run_backforth(build(chain_ab_poset, depth=2),
                          build(chain_ab_poset, depth=2))


class TestBijection:
    """The order bijection on enumeration indices, inside and past the
    checked span."""

    def test_identity_past_the_span(self):
        left = build(lambda: family("omega-chain"), depth=5)
        right = build(lambda: family("omega-chain"), depth=5)
        theta = _check_theta(left, right, lambda p: p, 5)
        for side in (0, 1):
            assert [theta.image(side, g) for g in range(1, 13)] == list(
                range(1, 13))

    def test_index_the_finite_side_lacks(self):
        theta = _check_theta(build(chain_ab_poset), build(vee_poset),
                             lambda p: p, 2)
        assert [theta.image(0, g) for g in (1, 2)] == [1, 2]
        assert [theta.image(1, g) for g in (1, 2, 3)] == [1, 2, None]

    def test_explicit_table_inside_the_span(self):
        # a < c on the left and b < c on the right, as in
        # TestThetaHandling.test_identity_is_checked_for_order
        sides = [build(lambda: Poset.from_covers(f"{top}c", ["a", "b", "c"],
                                                 [(top, "c")]))
                 for top in ("a", "b")]
        theta = _check_theta(*sides, {"a": "b", "b": "a", "c": "c"}.get, 3)
        for side in (0, 1):
            assert [theta.image(side, g) for g in (1, 2, 3, 4)] == [
                2, 1, 3, None]


class TestThetaHandling:
    def test_relabelled_chain_certifies(self):
        run = run_backforth(build(chain_ab_poset), build(chain_xy_poset),
                            theta={"a": "x", "b": "y"}.get)
        assert run.status == "iso"
        assert run.pairs == 35
        assert run.coverage is True

    def test_identity_needs_shared_names(self):
        with pytest.raises(IsoError, match="supply a bijection"):
            run_backforth(build(chain_ab_poset), build(chain_xy_poset))

    def test_identity_is_checked_for_order(self):
        # the same names in isomorphic orders: a < c on the left, b < c on
        # the right, so the identity breaks order and the swap keeps it
        def lower(top):
            return lambda: Poset.from_covers(f"{top}c", ["a", "b", "c"],
                                             [(top, "c")])
        with pytest.raises(IsoError, match=r"breaks order at \('a', 'c'\)"):
            run_backforth(build(lower("a")), build(lower("b")))
        run = run_backforth(build(lower("a")), build(lower("b")),
                            theta={"a": "b", "b": "a", "c": "c"}.get)
        assert (run.status, run.pairs, run.coverage) == ("iso", 29, True)

    def test_non_injective_theta_rejected(self):
        with pytest.raises(IsoError, match="does not map prefix onto prefix"):
            run_backforth(build(chain_ab_poset), build(chain_xy_poset),
                          theta=lambda p: "x")

    def test_order_breaking_theta_rejected(self):
        with pytest.raises(IsoError, match=r"breaks order at \('a', 'b'\)"):
            run_backforth(build(chain_ab_poset), build(chain_xy_poset),
                          theta={"a": "y", "b": "x"}.get)


class TestRegionHandling:
    def test_region_must_be_lower(self):
        with pytest.raises(IsoError, match="left region is not a lower set"):
            run_backforth(build(chain_ab_poset), build(chain_ab_poset),
                          q={"b"})

    def test_covering_level_is_built_before_it_is_read(self):
        # the foundation of rn(4,2)'s region ends at index 6, past depth 5
        run = run_backforth(build(lambda: family("rn(4,2)"), depth=5),
                            build(lambda: family("rn(4,2)"), depth=5))
        assert (run.status, run.pairs, run.coverage) == ("iso", 8, True)

    def test_covering_level_over_the_size_bound_exhausts(self):
        left = build(lambda: family("rn(4,2)"), depth=5, max_level_size=40)
        right = build(lambda: family("rn(4,2)"), depth=5, max_level_size=40)
        run = run_backforth(left, right)
        assert run.status == "depth-exhausted"
        assert "level 6 would hold 86 nodes" in run.note

    def test_empty_default_region_is_an_error(self):
        left = build_levels(BuildConfig(family("rn-infinity"), horizon=8), 6)
        right = build_levels(BuildConfig(family("rn-infinity"), horizon=8), 6)
        with pytest.raises(IsoError, match="compared region is empty"):
            run_backforth(left, right)


class TestAutomorphismLift:
    def test_identity_lift_certifies(self):
        run = lift_poset_automorphism(build(chain_ab_poset, isolated={"a"}),
                                      build(chain_ab_poset, isolated={"a"}),
                                      {})
        assert run.status == "iso"

    def test_lift_must_carry_isolation(self):
        with pytest.raises(IsoError, match="does not carry isolation"):
            lift_poset_automorphism(build(chain_ab_poset, isolated={"a"}),
                                    build(chain_ab_poset), {})
