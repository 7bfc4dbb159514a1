"""Back-and-forth matching runs: certificates, witnesses, budgets."""
import sys
from collections import Counter

import pytest

from conftest import (chain_ab_poset, diamond_poset, ref_match_split,
                      ring_key, vee_poset)
from stonetrim import (BuildConfig, IsoError, PartialIso, Poset,
                       RingElement, backforth, build_levels, family,
                       complete_over, init_iso, extend_iso,
                       lift_poset_automorphism, ring, run_backforth, skeleton,
                       split_by_scarce_atoms, verify_structure)
from stonetrim.backforth import (MismatchFound, Pair, _ThetaMap, _covered,
                                 _match_split, _schedule, _theta_over)


def build(poset_maker, depth=6, **kw):
    return build_levels(BuildConfig(poset_maker(), **kw), depth)


def chain_xy_poset():
    return Poset.from_covers("chain-xy", ["x", "y"], [("x", "y")])


def antichain_poset(*ids):
    return Poset.from_covers("anti-" + "".join(ids), list(ids), [])


def identity_map(left, right, span):
    """The identity on indices 1..span as a prepared map, with no check
    that it keeps the order."""
    table = list(range(span + 1))
    return _ThetaMap((left.poset, right.poset), (table, table[:]))


class TestInit:
    def test_seed_pairs_cover_the_foundation(self):
        left = build(chain_ab_poset, isolated={"a"})
        right = build(chain_ab_poset, isolated={"a"})
        state = init_iso(left, right, left.poset.mask_of({"a"}),
                         identity_map(left, right, 2))
        assert len(state.pairs) == 1
        pair = state.pairs[0]
        assert pair.gens == (1, 1)
        assert ring_key(pair.parts[0]) == (1, 1)
        assert state.verify() == []

    def test_verify_recomputes_from_scratch(self):
        left = build(chain_ab_poset)
        right = build(chain_ab_poset)
        state = init_iso(left, right, left.poset.mask_of({"a"}),
                         identity_map(left, right, 2))
        state.pairs[0].gens = (1, 2)
        problems = state.verify()
        assert any("not matched by the order bijection" in p
                   for p in problems)
        assert any("not trim for 'b'" in p for p in problems)

    def test_extend_keeps_invariants(self):
        left = build(chain_ab_poset)
        right = build(chain_ab_poset)
        state = init_iso(left, right, left.poset.mask_of({"a"}),
                         identity_map(left, right, 2))
        for n, i in ((2, 0), (2, 2), (3, 4)):
            extend_iso(state, 0, RingElement.atom(left, n, i), 12)
            assert state.verify() == []
        atom = RingElement.atom(left, 2, 2)
        assert state.union(0).contains(atom)

    def test_extending_by_the_empty_element_changes_nothing(self):
        left = build(chain_ab_poset)
        right = build(chain_ab_poset)
        state = init_iso(left, right, left.poset.mask_of({"a"}),
                         identity_map(left, right, 2))
        extend_iso(state, 0, RingElement.atom(left, 3, 4), 12)

        def snapshot():
            return (list(state.pairs), list(state._keys), list(state.held),
                    [(ix.top, list(ix.starts), list(ix.ends),
                      list(ix.owners), dict(ix.starts_of))
                     for ix in state.index])
        before = snapshot()
        transcript = []
        for side, tree in enumerate(state.trees):
            extend_iso(state, side, RingElement.empty(tree), 12, transcript)
        assert snapshot() == before and transcript == []


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
        if ring_key(inside) != ring_key(atom):
            return False
    return True


@pytest.mark.parametrize("isolated", [set(), {"a"}])
@pytest.mark.parametrize("maker", [chain_ab_poset, vee_poset, diamond_poset])
def test_mask_matcher_agrees_with_ring_operations(maker, isolated):
    left = build(maker, isolated=isolated)
    right = build(maker, isolated=isolated)
    state = init_iso(left, right, left.poset.mask_of({"a"}),
                     identity_map(left, right, left.poset.size))
    schedule = _schedule(left, right, 6, seed=1)
    for k, (side, n, i) in enumerate(schedule, 1):
        extend_iso(state, side, RingElement.atom(state.trees[side], n, i),
                   14)
        for s in (0, 1):
            assert ring_key(state.held[s]) == ring_key(state.union(s))
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
    state.pairs.append(Pair((RingElement(left, 1, 1),
                             RingElement(right, 1, 1)), (1, 1)))
    assert _covered(state, schedule) is coverage_oracle(state, schedule) \
        is True
    assert "left parts overlap" in state.verify()
    # the same whole part on the right side alone overlaps only there
    state.pairs[-1].parts = (RingElement.empty(left),
                             RingElement(right, 1, 1))
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


def test_a_split_types_only_its_part():
    # one a and twenty b atoms first lie together in the whole space on
    # level 5, so the split grows levels 4 and 5 and reads only its part's
    # atoms there: neither grown level is typed whole
    pairs = [(build(chain_ab_poset, 3), build(chain_ab_poset, 3))
             for _ in (0, 1)]
    states = [init_iso(*sides, sides[0].poset.mask_of({"a"}),
                       identity_map(*sides, 2))
              for sides in pairs]
    right = states[0].trees[1]
    pieces, want = (split(state, 1, state.pairs[0].parts[1],
                          [1] + [2] * 20, 10)
                    for split, state in zip((_match_split, ref_match_split),
                                            states))
    assert right.depth == 5
    assert not right.level(4)._masks and not right.level(5)._masks
    assert [(p.level, p.mask) for p in pieces] == \
        [(p.level, p.mask) for p in want]
    assert {p.level for p in pieces} == {5}


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

    @pytest.mark.parametrize("seed, refined", [(0, []), (1, [3]), (2, [])])
    def test_a_part_with_two_isolated_atoms_is_refined(self, seed, refined,
                                                       monkeypatch):
        # every element isolated on both sides: on seed 1 a trim part holds
        # two atoms of its isolated generator, and the supertrim split cuts
        # it into one piece per atom
        def v3():
            return Poset.from_covers("v3", ["e0", "e1", "e2"],
                                     [("e0", "e1")])

        cut = []

        def spy(x, gen):
            pieces = split_by_scarce_atoms(x, gen)
            if len(pieces) > 1:
                cut.append(x.level)
            return pieces

        monkeypatch.setattr(ring, "split_by_scarce_atoms", spy)
        isolated = {"e0", "e1", "e2"}
        run = run_backforth(build(v3, depth=5, isolated=isolated),
                            build(v3, depth=5, isolated=isolated), seed=seed)
        assert cut == refined
        assert (run.status, run.coverage, run.invariant_failures) == (
            "iso", True, [])

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

    @pytest.mark.parametrize("covered, failures, note", [
        (False, [], "schedule finished without full coverage"),
        (False, ["x"], "schedule finished without full coverage"),
        (True, ["x"], "schedule finished with broken pairing invariants"),
    ])
    def test_a_failed_certificate_names_its_cause(self, monkeypatch,
                                                  covered, failures, note):
        monkeypatch.setattr(backforth, "_covered", lambda *_: covered)
        monkeypatch.setattr(PartialIso, "verify", lambda self: failures)
        run = run_backforth(build(lambda: family("rn(2,0)"), 5),
                            build(lambda: family("rn(2,0)"), 5), depth=5,
                            seed=0)
        assert (run.status, run.coverage, run.invariant_failures,
                run.note) == ("depth-exhausted", covered, failures, note)

    def test_depth_budget_exhaustion(self):
        run = run_backforth(build(chain_ab_poset), build(chain_ab_poset),
                            max_depth=6)
        assert run.status == "depth-exhausted"
        assert run.note == "right side needs level 7"
        full = run_backforth(build(chain_ab_poset), build(chain_ab_poset))
        assert full.status == "iso"

    def test_sides_grow_to_the_scheduled_levels(self):
        # the schedule at depth 7 reads levels 1-5 of sides built to 4
        def rn20(depth):
            return build(lambda: family("rn(2,0)"), depth)
        run = run_backforth(rn20(4), rn20(4), depth=7)
        assert (run.status, run.coverage) == ("iso", True)
        assert run.serialize() == run_backforth(rn20(7), rn20(7),
                                                depth=7).serialize()

    def test_growing_to_the_scheduled_levels_can_exhaust(self):
        # omega-chain's level 9 lies past the level-size bound
        run = run_backforth(build(lambda: family("omega-chain"), 4),
                            build(lambda: family("omega-chain"), 4), depth=11)
        assert run.status == "depth-exhausted"
        assert run.note == ("level 9 would hold 103049 nodes, over the "
                            "bound 65536")

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
        theta = _theta_over(left, right, lambda p: p, 5)
        for side in (0, 1):
            assert [theta.image(side, g) for g in range(1, 13)] == list(
                range(1, 13))

    def test_index_the_finite_side_lacks(self):
        theta = _theta_over(build(chain_ab_poset), build(vee_poset),
                            lambda p: p, 2)
        assert [theta.image(0, g) for g in (1, 2)] == [1, 2]
        assert [theta.image(1, g) for g in (1, 2, 3)] == [1, 2, None]

    def test_explicit_table_inside_the_span(self):
        # a < c on the left and b < c on the right, as in
        # TestThetaHandling.test_identity_is_checked_for_order
        sides = [build(lambda: Poset.from_covers(f"{top}c", ["a", "b", "c"],
                                                 [(top, "c")]))
                 for top in ("a", "b")]
        theta = _theta_over(*sides, {"a": "b", "b": "a", "c": "c"}.get, 3)
        for side in (0, 1):
            assert [theta.image(side, g) for g in (1, 2, 3, 4)] == [
                2, 1, 3, None]


class TestBranchesNoRunReaches:
    """Refusals that ``run_backforth``'s own checks keep every run from
    reaching, reached through hand-built maps and pairings."""

    def test_a_region_element_without_a_counterpart(self):
        # c, index 3 on the left, lies past the finite right side; an
        # unknown id is refused at the CLI, before any region is a mask
        left = build(lambda: antichain_poset("a", "b", "c"))
        right = build(lambda: antichain_poset("a", "b"))
        with pytest.raises(IsoError, match=r"^region elements \['c'\] have "
                                           r"no counterpart"):
            init_iso(left, right, left.poset.mask_of({"c"}),
                     identity_map(left, right, 2))

    # under a map that breaks order, a type minimal on one side only has no
    # part on the other: a < b on the chain, a and b apart on the antichain
    def test_a_foundation_type_without_a_right_part(self):
        left, right = build(lambda: antichain_poset("a", "b")), \
            build(chain_ab_poset)
        with pytest.raises(IsoError, match="^no right part for foundation "
                                           "type 'b'$"):
            init_iso(left, right, left.poset.mask_of({"a", "b"}),
                     identity_map(left, right, 2))

    def test_an_unmatched_right_foundation_type(self):
        left, right = build(chain_ab_poset), \
            build(lambda: antichain_poset("a", "b"))
        with pytest.raises(IsoError, match=r"^unmatched right foundation "
                                           r"types \['b'\]$"):
            init_iso(left, right, left.poset.mask_of({"a", "b"}),
                     identity_map(left, right, 2))

    def test_a_needed_type_the_counterpart_part_lacks(self):
        # the a parts realize only a, and no type below b can grow into it
        sides = [build(lambda: antichain_poset("a", "b")) for _ in "lr"]
        state = init_iso(*sides, sides[0].poset.mask_of({"a", "b"}),
                         identity_map(*sides, 2))
        a_pair = state.pairs[0]
        assert a_pair.gens == (1, 1)
        with pytest.raises(MismatchFound) as m:
            _match_split(state, 1, a_pair.parts[1], [2], 10)
        assert m.value.witness.serialize() == {
            "side": "right", "type": "b", "needed": 1, "available": 0,
            "reason": "needed type is not realized in the counterpart part"}

    def test_a_fresh_type_without_a_counterpart(self):
        # c enters level 3 unattached on the left, so no part holds it and
        # it is paired fresh; the right side has no third element
        left = build(lambda: antichain_poset("a", "b", "c"))
        right = build(lambda: antichain_poset("a", "b"))
        state = init_iso(left, right, left.poset.mask_of({"a", "b"}),
                         identity_map(left, right, 2))
        lvl = left.level(3)
        c_atom = list(lvl.types).index(3)
        assert c_atom >= lvl.u_start
        with pytest.raises(MismatchFound) as m:
            extend_iso(state, 0, RingElement.atom(left, 3, c_atom), 10)
        assert m.value.witness.serialize() == {
            "side": "right", "type": "c", "needed": 1, "available": 0,
            "reason": "type has no counterpart in the other alphabet"}


class TestThetaHandling:
    def test_relabelled_chain_certifies(self):
        run = run_backforth(build(chain_ab_poset), build(chain_xy_poset),
                            theta={"a": "x", "b": "y"}.get)
        assert run.status == "iso"
        assert run.pairs == 35
        assert run.coverage is True

    def test_identity_needs_shared_names(self):
        for depth in (3, 6):
            with pytest.raises(IsoError) as info:
                run_backforth(build(chain_ab_poset, depth),
                              build(chain_xy_poset, depth))
            assert str(info.value) == ("sides name different elements; "
                                       "supply a bijection")

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

    def test_a_bijection_is_checked_past_the_span(self):
        # b < d on the left and c < d on the right: at depth 3 the span
        # stops short of d, and the whole posets are compared once the
        # schedule completes, under the identity and under the swap
        sides = [lambda top=top: Poset.from_covers(
            f"vee-{top}d", ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), (top, "d")]) for top in ("b", "c")]
        with pytest.raises(IsoError, match=r"breaks order at \('b', 'd'\)"):
            run_backforth(*(build(s, 3) for s in sides), seed=0)
        swap = {"a": "a", "b": "c", "c": "b", "d": "d"}.get
        run = run_backforth(*(build(s, 3) for s in sides), theta=swap)
        assert (run.status, run.coverage) == ("iso", True)

    def test_order_breaking_theta_rejected(self):
        with pytest.raises(IsoError, match=r"breaks order at \('a', 'b'\)"):
            run_backforth(build(chain_ab_poset), build(chain_xy_poset),
                          theta={"a": "y", "b": "x"}.get)


class TestRegionHandling:
    def test_region_must_be_lower(self):
        left, right = build(chain_ab_poset), build(chain_ab_poset)
        with pytest.raises(IsoError, match="left region is not a lower set"):
            run_backforth(left, right, q=left.poset.mask_of({"b"}))

    def test_covering_level_is_built_before_it_is_read(self):
        # the foundation of rn(4,2)'s region ends at index 6, past depth 5
        run = run_backforth(build(lambda: family("rn(4,2)"), depth=5),
                            build(lambda: family("rn(4,2)"), depth=5))
        assert (run.status, run.pairs, run.coverage) == ("iso", 8, True)

    def test_covering_level_over_the_size_bound_exhausts(self, monkeypatch):
        monkeypatch.setattr(skeleton, "MAX_LEVEL_SIZE", 40)
        left = build(lambda: family("rn(4,2)"), depth=5)
        right = build(lambda: family("rn(4,2)"), depth=5)
        run = run_backforth(left, right)
        assert run.status == "depth-exhausted"
        assert "level 6 would hold 86 nodes" in run.note

    def test_empty_default_region_is_an_error(self):
        left = build_levels(BuildConfig(family("rn-infinity"), horizon=8), 6)
        right = build_levels(BuildConfig(family("rn-infinity"), horizon=8), 6)
        with pytest.raises(IsoError, match="compared region is empty"):
            run_backforth(left, right)

    def test_regions_reach_the_core_as_masks(self, monkeypatch):
        # the four functions that take a region look up no id for it;
        # _theta_over's name map is where the sides meet by name
        calls = Counter()
        for name in ("index", "mask_of", "ids_of"):
            def counted(self, arg, _name=name, _call=getattr(Poset, name)):
                calls[_name, sys._getframe(1).f_code.co_name] += 1
                return _call(self, arg)
            monkeypatch.setattr(Poset, name, counted)
        run = run_backforth(build(vee_poset), build(vee_poset))
        assert (run.status, run.coverage) == ("iso", True)
        dyadic = family("dyadic")
        assert complete_over(dyadic, dyadic.prefix_mask(8), 8).tokens() == []
        tree = build(chain_ab_poset, 5)
        a = tree.poset.mask_of({"a"})
        assert verify_structure(tree, q_lower=a).passed
        assert calls["index", "_theta_over"] > 0
        assert [k for k in calls if k[1] in ("init_iso", "run_backforth",
                                             "complete_over",
                                             "verify_structure")] == []


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


class TestEqualRules:
    """``iso`` certifies a pair whose rules agree (``equal_rules``) with no
    search, so the search must never refute such a pair."""

    # families and files of the CLI corpus, each against itself with one
    # of its first four elements isolated, unbounded or noncompact on the
    # left only; an element isolated where it is new, on the deepest
    # level, leaves the rules of the levels above it equal, and the
    # search refutes that pair
    @pytest.mark.parametrize("tag", ["omega-chain", "omega-antichain",
                                     "ziegler-fan", "rn(2,0)",
                                     "rn(2,2)", "rn(4,2)", "crown", "wedge",
                                     "forest", "f12"])
    def test_the_search_never_refutes_equal_rules(self, tag):
        from test_cli_digests import FILES

        def poset():
            doc = FILES.get(f"{tag}.json")
            return family(tag) if doc is None else Poset.from_json(doc)
        ids = poset().prefix(4)
        variants = [{label: {p}} for label in ("isolated", "unbounded",
                                               "noncompact") for p in ids]
        agreed = 0
        for kw in variants:
            for depth in (3, 4, 5):
                left = BuildConfig(poset(), **kw)
                right = BuildConfig(poset())
                if (left.validate(depth) or right.validate(depth)
                        or skeleton.equal_rules(left, right, depth)):
                    continue
                agreed += 1
                try:
                    run = run_backforth(skeleton.SkeletonTree(left, depth),
                                        skeleton.SkeletonTree(right, depth),
                                        depth=depth)
                except IsoError:
                    continue
                assert run.status != "mismatch", (kw, depth, run.witness)
        assert agreed
