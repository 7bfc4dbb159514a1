"""The matcher's part index against the mask scans it replaced.

Each input is matched twice in lockstep, from the same seed and schedule:
once by ``extend_iso``, which reaches the parts a step meets through the
part index and spreads spare atoms type by type, and once by
``ref_extend_iso`` (conftest), which visits every pair and spreads spare
atoms one at a time.  After every step the two must hold the same pairs in
the same order, the same transcript and the same stop; at the end
``_covered`` must give the reference's verdicts and ``verify()`` the same
problems.  The index is checked against the pairs after every step, the
held union right after seeding and at the end.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chain_ab_poset, diamond_poset, random_poset,
                      ref_covered, ref_extend_iso, ring_key, vee_poset)
from stonetrim import BuildConfig, RingElement, build_levels, family
from stonetrim.poset import runs
from stonetrim.backforth import (DepthBudget, MismatchFound, Pair, _covered,
                                 _schedule, _theta_over, extend_iso,
                                 init_iso)
from stonetrim.runindex import RunIndex

DEPTH = 6


def start(sides, depth):
    """A fresh pairing of two builds, each given as (poset maker, config
    keywords), seeded as ``run_backforth`` seeds it."""
    left, right = (build_levels(BuildConfig(maker(), **kw), depth)
                   for maker, kw in sides)
    span = min(left.config.type_cap(depth), right.config.type_cap(depth))
    theta = _theta_over(left, right, None, span)
    delta = left.poset.p_delta(span)
    return init_iso(left, right, delta, theta)


def assert_index_follows(state):
    """``assert_runs_follow``, and each side's held union is its parts'
    union."""
    assert_runs_follow(state)
    for side in (0, 1):
        assert ring_key(state.held[side]) == ring_key(state.union(side))


def assert_runs_follow(state):
    """Keys sort as the pairs stand, and each side's index holds the runs
    of every part lifted to its common level, sorted and disjoint, once
    each, and records where each part's runs start, under its key and no
    other."""
    assert state._keys == sorted(state._keys)
    assert len(state._keys) == len(state.pairs)
    for side in (0, 1):
        index = state.index[side]
        tree = state.trees[side]
        entries = []
        for key, pair in zip(state._keys, state.pairs):
            part = pair.parts[side]
            spans = tree.lift_runs(part.level, list(runs(part.mask)),
                                   index.top)
            assert index.starts_of[key] == [a for a, _ in spans]
            entries += [(a, b, key) for a, b in spans]
        assert set(index.starts_of) == set(state._keys)
        entries.sort()
        assert list(zip(index.starts, index.ends, index.owners)) == entries
        assert all(b <= c for (_, b, _), (c, _, _) in zip(entries,
                                                           entries[1:]))


def assert_seeded(state):
    """Right after ``init_iso`` the seed pairs are keyed 0, 1, ... and each
    side's index is the one built afresh from the pairs on the deepest part
    level."""
    assert state._keys == [(k,) for k in range(len(state.pairs))]
    for side, tree in enumerate(state.trees):
        parts = [pair.parts[side] for pair in state.pairs]
        fresh = RunIndex(tree, max((p.level for p in parts), default=1),
                         zip(state._keys, parts))
        index = state.index[side]
        assert (index.top, index.starts, index.ends, index.owners,
                index.starts_of) == (fresh.top, fresh.starts, fresh.ends,
                                     fresh.owners, fresh.starts_of)
    assert_index_follows(state)


def pairs_of(state):
    return [(tuple((p.level, p.mask) for p in pair.parts), pair.gens)
            for pair in state.pairs]


def stop_of(step, state, atom, transcript, max_depth):
    try:
        step(state, atom[0], RingElement.atom(state.trees[atom[0]], *atom[1:]),
             max_depth, transcript)
    except MismatchFound as m:
        return "mismatch", m.witness
    except DepthBudget as d:
        return "depth-exhausted", str(d)
    return None


def lockstep(sides, depth, seed, order):
    """Run both steps side by side; the two states, the schedule and the
    stop, or None when the seeding already runs out of levels."""
    try:
        states = [start(sides, depth) for _ in (0, 1)]
    except DepthBudget:
        return None
    assert_seeded(states[0])
    schedule = _schedule(*states[0].trees, depth, seed)
    if order == "levels":
        schedule.sort(key=lambda atom: atom[1])
    transcripts = ([], [])
    for k, atom in enumerate(schedule, 1):
        stops = [stop_of(step, state, atom, transcript, depth + 8)
                 for step, state, transcript in zip(
                     (extend_iso, ref_extend_iso), states, transcripts)]
        assert stops[0] == stops[1]
        assert pairs_of(states[0]) == pairs_of(states[1])
        assert transcripts[0] == transcripts[1]
        if stops[0]:
            break
        assert_runs_follow(states[0])
        if k % 32 == 0:
            # the atoms stepped so far are unions of parts; the rest meet
            # parts that straddle them, in general
            for atoms in (schedule[:k], schedule):
                assert (_covered(states[0], atoms)
                        is ref_covered(states[0], atoms))
            assert _covered(states[0], schedule[:k]) is True
    new, ref = states
    assert (_covered(new, schedule) == ref_covered(new, schedule)
            == ref_covered(ref, schedule))
    assert new.verify() == ref.verify()
    assert_index_follows(new)
    return states, schedule, stops[0]


def itself(poset_maker, **kw):
    return (poset_maker, kw), (poset_maker, kw)


INPUTS = {
    "chain": itself(chain_ab_poset),
    "chain-iso": itself(chain_ab_poset, isolated={"a"}),
    "vee": itself(vee_poset),
    "vee-iso": itself(vee_poset, isolated={"a"}),
    "diamond": itself(diamond_poset),
    "diamond-iso": itself(diamond_poset, isolated={"a"}),
    "rn(2,0)": itself(lambda: family("rn(2,0)")),
    "rn(2,2)": itself(lambda: family("rn(2,2)")),
    "omega-chain": itself(lambda: family("omega-chain")),
    "ziegler-fan": itself(lambda: family("ziegler-fan")),
    # unattached nodes that no seeded part reaches: fresh pairs
    "vee-noncompact-b": itself(vee_poset, noncompact={"b"}),
    "vee-unbounded-b": itself(vee_poset, unbounded={"b"}),
    # runs that stop: a count witness, a missing type, a fresh budget
    "chain-iso-vs-plain": ((chain_ab_poset, {"isolated": {"a"}}),
                           (chain_ab_poset, {})),
    "chain-vs-vee": ((chain_ab_poset, {}), (vee_poset, {})),
    "vee-vs-noncompact-b": ((vee_poset, {}),
                            (vee_poset, {"noncompact": {"b"}})),
}


@pytest.mark.parametrize("order", ["shuffle", "levels"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_index_matches_the_scan(name, order):
    for seed in range(6):
        assert lockstep(INPUTS[name], DEPTH, seed, order)


@given(seed=st.integers(0, 10 ** 6), mseed=st.integers(0, 5),
       order=st.sampled_from(["shuffle", "levels"]), isolate=st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_posets_match_the_scan(seed, mseed, order, isolate):
    rng = random.Random(seed)
    poset = random_poset(rng)
    ids = poset.prefix(poset.size)
    isolated = {rng.choice(ids)} if isolate else set()
    lockstep(itself(lambda: random_poset(random.Random(seed)),
                    isolated=isolated), 5, mseed, order)


def test_index_follows_the_pairs():
    (state, _), _, _ = lockstep(INPUTS["vee-noncompact-b"], DEPTH, 1,
                                "shuffle")
    assert_index_follows(state)


@pytest.mark.parametrize("name", ["chain", "diamond-iso", "rn(2,0)"])
def test_the_record_follows_a_raise(name):
    """Raising the common level lifts each part's recorded starts with its
    runs, and a part then leaves the raised index by its key alone."""
    state = start(INPUTS[name], DEPTH)
    for index, tree in zip(state.index, state.trees):
        assert index.top < tree.depth
        index.raise_to(tree.depth)
    assert_index_follows(state)
    keys = list(state._keys)
    for key in keys:
        state.replace(key, [state.pair(key)])
        assert_index_follows(state)
    assert state._keys == [key + (0,) for key in keys]


@pytest.mark.parametrize("atoms, covered", [
    # level 3 atoms of the chain; node 1 of level 2 has children 3..5
    (({3}, {4, 5}, {0, 1, 2, 6, 7}), True),
    (({2, 5}, {3, 4}, {0, 1, 6, 7}), False),
    (({3, 6}, {4, 5}, {0, 1, 2, 7}), False),
    (({2, 4, 6}, {3, 5}, {0, 1, 7}), False),
    # overlapping parts, as a broken pairing may hold them
    ((set(range(8)), {3}, {4, 5}), True),
    (({3, 4}, {3, 4, 5}), True),
    (({3}, {3, 4}), False),
], ids=["filled", "straddles-left", "straddles-right", "straddles-both",
        "under-a-whole-part", "same-start", "overlapping-gap"])
def test_coverage_of_hand_made_parts(atoms, covered):
    sides = [build_levels(BuildConfig(chain_ab_poset()), 4) for _ in (0, 1)]
    state = init_iso(*sides, sides[0].poset.mask_of({"a"}),
                     _theta_over(*sides, None, 2))
    state.pairs = [Pair(tuple(RingElement(tree, 3, sum(1 << i for i in part))
                              for tree in sides), (1, 1))
                   for part in atoms]
    schedule = [(0, 2, 1)]
    assert _covered(state, schedule) is ref_covered(state, schedule) \
        is covered


@pytest.mark.parametrize("side", [0, 1])
def test_coverage_reads_the_shallowest_scheduled_level(side):
    """A tampered pairing whose one uncovered scheduled atom lies on the
    shallowest scheduled level of its side, listed last, while every
    deeper scheduled atom is covered: each level's atoms are read, however
    the atoms are grouped."""
    state = start(INPUTS["chain"], DEPTH)
    schedule = _schedule(*state.trees, DEPTH, 0)
    for s, n, i in schedule:
        extend_iso(state, s, RingElement.atom(state.trees[s], n, i),
                   DEPTH + 8)
    assert _covered(state, schedule) is ref_covered(state, schedule) is True
    # one part inside level-2 atom 0 grows over one inside atom 1, so atom
    # 0 and the deeper atoms over the first part lose it; atom 1 keeps the
    # second part
    tree = state.trees[side]
    first, second = (next(pair for pair in state.pairs
                          if RingElement.atom(tree, 2, x).contains(
                              pair.parts[side])) for x in (0, 1))
    merged = first.parts[side].union(second.parts[side])
    first.parts = (merged, first.parts[1]) if side == 0 \
        else (first.parts[0], merged)
    deeper = [atom for atom in schedule
              if atom[0] != side or atom[1] > 2
              and ref_covered(state, [atom])]
    assert len(deeper) < len(schedule) - 4
    assert _covered(state, deeper) is ref_covered(state, deeper) is True
    for x, covered in ((1, True), (0, False)):
        atoms = deeper + [(side, 2, x)]
        assert _covered(state, atoms) is ref_covered(state, atoms) \
            is covered
