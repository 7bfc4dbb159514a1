"""Symbolic closure algebras and the layer-peeling recursion."""
import hashlib
import json
import os
import random
from itertools import combinations

import pytest

from conftest import (holds, ref_check_identities, ref_closure_of,
                      ref_e_of_p, ref_rieger_nishimura_run, run_main)
from stonetrim import (ClosureElement, ClosureError, Poset, RNTrace,
                       SymbolicSpace, check_closure_axioms, check_identities,
                       classify_algebra, e_of_p, family,
                       render_trace_dot, render_trace_text,
                       rieger_nishimura_run)

LADDER_IDS = {"rn-infinity": lambda i: f"p{i - 1}",
              "rn-infinity-bot": lambda i: "bot" if i == 1 else f"p{i - 2}"}

# the families the closure command runs on in the benchmark's CLI mix
CLI_TAGS = ([f"rn({m},{v})" for m in range(11) for v in (0, 2)]
            + sorted(LADDER_IDS))


def rung_ids(space: SymbolicSpace) -> list[str]:
    """The ids of the space's non-bottom indices, in enumeration order."""
    return [space.poset.id_at(i) for i in space._rungs]


def tampered_ladder(tag: str, gap: int) -> Poset:
    """A ladder family's ids, tag and analytics with the rung gap changed:
    p_j > p_k iff k >= j + gap, the bottom still below everything."""
    def leq(a: str, b: str) -> bool:
        if a == "bot":
            return True
        if b == "bot":
            return a == b
        return a == b or int(a[1:]) >= int(b[1:]) + gap

    return Poset.generated(tag, LADDER_IDS[tag], leq,
                           analytics=family(tag).analytics)


@pytest.fixture(scope="module")
def rn20():
    return SymbolicSpace(family("rn(2,0)"))


@pytest.fixture(scope="module")
def rn22():
    return SymbolicSpace(family("rn(2,2)"))


@pytest.fixture(scope="module")
def ladder():
    return SymbolicSpace(family("rn-infinity"))


@pytest.fixture(scope="module")
def ladder_bot():
    return SymbolicSpace(family("rn-infinity-bot"))


class TestSpaces:
    def test_finite_space(self, rn20):
        assert rn20.finite
        assert rn20._w == 0b1110
        assert rn20.whole().ids == {"p0", "p1", "p2"}
        assert rn20.whole().render() == "{p0,p1,p2}"

    def test_ladder_space(self, ladder):
        assert not ladder.finite
        assert ladder.whole().render() == "W-{}"
        assert ladder.empty().render() == "{}"

    def test_unsupported_poset(self):
        with pytest.raises(ClosureError, match="finite poset or a ladder"):
            SymbolicSpace(family("omega-chain"))

    def test_ladder_down_and_up(self, ladder):
        ix = ladder.poset.index
        assert ladder.down_of(ix("p3")).render() == "W-{p0,p1,p2,p4}"
        assert ladder.up_of(ix("p3")).render() == "{p0,p1,p3}"
        assert ladder.up_of(ix("p0")).render() == "{p0}"

    def test_bot_down_and_up(self, ladder_bot):
        bot = ladder_bot.poset.index("bot")
        assert ladder_bot.down_of(bot).render() == "{bot}"
        assert ladder_bot.up_of(bot) == ladder_bot.whole()

    def test_finite_down_and_up(self, rn20):
        ix = rn20.poset.index
        assert rn20.down_of(ix("p0")).render() == "{p0,p2}"
        assert rn20.up_of(ix("p2")).render() == "{p0,p2}"

    def test_bottoms(self, rn20, rn22, ladder, ladder_bot):
        assert (rn20.bottom, rn22.bottom) == (None, "p4")
        assert (ladder.bottom, ladder_bot.bottom) == (None, "bot")
        p4 = rn22.poset.index("p4")
        assert rn22.down_of(p4).render() == "{p4}"
        assert rn22.up_of(p4) == rn22.whole()

    def test_rungs(self, rn22):
        assert rung_ids(rn22) == ["p0", "p1", "p2"]
        assert rung_ids(SymbolicSpace(family("rn-infinity"), 3)) == [
            "p0", "p1", "p2"]
        assert rung_ids(SymbolicSpace(family("rn-infinity-bot"), 3)) == [
            "p0", "p1", "p2"]


class TestUnknownIds:
    @pytest.mark.parametrize("tag", ["rn(2,0)", "rn(2,2)", "rn-infinity",
                                     "rn-infinity-bot"])
    def test_fin_and_cof_reject_unknown_ids(self, tag):
        # a cofinite set is the complement of fin's, which raises first
        space = SymbolicSpace(family(tag))
        with pytest.raises(ClosureError, match="unknown element id 'zz'"):
            space.fin({"p0", "zz"})

    def test_ladder_ids_must_be_enumerated(self):
        space = SymbolicSpace(family("rn-infinity"), horizon=12)
        assert space.fin({"p12"}).render() == "{p12}"
        with pytest.raises(ClosureError, match="'p13'"):
            space.fin({"p13"})
        with pytest.raises(ClosureError, match="'p50'"):
            space.fin({"p50", "p0"}).complement()
        # a down-set enumerates one element past its own
        space.down_of(space.poset.index("p12"))
        assert space.fin({"p13"}).render() == "{p13}"

    def test_horizon_one_shows_the_first_rung(self):
        space = SymbolicSpace(family("rn-infinity-bot"), horizon=1)
        assert space.fin({"p0"}).render() == "{p0}"
        assert rung_ids(space) == ["p0"]


class TestClosure:
    def test_closure_of_finite_shape(self, ladder):
        got = ladder.closure_of(ladder.fin({"p0"}))
        assert got == ladder.fin({"p1"}).complement()
        assert got.render() == "W-{p1}"

    def test_closure_of_cofinite_shape(self, ladder):
        assert (ladder.closure_of(ladder.fin({"p2"}).complement())
                == ladder.whole())
        kept = ladder.closure_of(ladder.fin({"p0"}).complement())
        assert kept == ladder.fin({"p0"}).complement()

    def test_finite_space_closure_is_down_closure(self, rn20):
        got = rn20.closure_of(rn20.fin({"p0"}))
        assert got == rn20.fin({"p0", "p2"})

    def test_foreign_element_rejected(self, rn20, ladder):
        with pytest.raises(ClosureError, match="another space"):
            rn20.closure_of(ladder.fin({"p0"}))

    def test_is_open(self, rn20, ladder):
        assert rn20.is_open(rn20.fin({"p0"}))
        assert not rn20.is_open(rn20.fin({"p2"}))
        assert ladder.is_open(ladder.fin({"p0"}))

    def test_axioms_hold(self, rn20, ladder, ladder_bot):
        assert check_closure_axioms(rn20) == []
        assert check_closure_axioms(ladder) == []
        assert check_closure_axioms(ladder_bot) == []


@pytest.mark.parametrize("tag", [f"rn({m},{v})" for m in range(7)
                                 for v in (0, 2)] + sorted(LADDER_IDS))
@pytest.mark.parametrize("horizon", [3, 12])
def test_closure_matches_the_reference(tag, horizon):
    space = SymbolicSpace(family(tag), horizon)
    shown = space.poset.prefix(space.poset.size if space.finite else
                               horizon + 1)
    # down-sets enumerate one element past their own
    window = space.poset.prefix(len(shown) + 1)
    rng = random.Random(f"{tag} {horizon}")
    draws = [space.empty(), space.whole()]
    for _ in range(40):
        ids = rng.sample(shown, rng.randint(1, min(4, len(shown))))
        x = space.fin(ids)
        draws.append(x.complement() if rng.random() < 0.5 else x)
    for x in draws:
        got = space.closure_of(x)
        want, past = ref_closure_of(space, x, window)
        assert {q for q in window if holds(got, q)} == want, x.render()
        assert (got.signed < 0) == past, x.render()


class TestElements:
    def test_cofinite_normalizes_on_finite_spaces(self, rn20):
        x = rn20.fin({"p0"}).complement()
        assert x.signed >= 0
        assert x.signed == 0b1100
        assert x.ids == {"p1", "p2"}

    def test_render_ordering(self, ladder_bot):
        assert ladder_bot.fin({"p10", "p9", "p2"}).render() == "{p2,p9,p10}"
        assert ladder_bot.fin({"bot", "p0"}).render() == "{p0,bot}"

    def test_sole_id(self, ladder):
        assert ladder.fin({"p3"}).sole_id() == "p3"
        assert ladder.fin({"p1", "p2"}).sole_id() is None
        assert ladder.fin({"p3"}).complement().sole_id() is None

    def test_serialize(self, ladder):
        assert ladder.fin({"p1", "p0"}).complement().serialize() == {
            "shape": "cofinite", "ids": ["p0", "p1"]}

    def test_exhaustive_small_algebra(self, rn20):
        ids = sorted(rn20.whole().ids)
        universe = set(ids)
        subsets = [frozenset(c) for r in range(4)
                   for c in combinations(ids, r)]
        for sa in subsets:
            for sb in subsets:
                a, b = rn20.fin(sa), rn20.fin(sb)
                assert a.union(b).ids == sa | sb
                assert a.intersect(b).ids == sa & sb
                assert a.intersect(b.complement()).ids == sa - sb
                assert a.complement().ids == universe - sa
                assert a.subset_of(b) == (sa <= sb)

    def test_mixed_shape_algebra(self, ladder):
        probe = [f"p{k}" for k in range(9)]
        cases = [ladder.fin({"p0", "p3"}),
                 ladder.fin({"p1", "p2"}).complement(),
                 ladder.fin({"p0", "p5"}).complement(), ladder.fin(())]
        for a in cases:
            for b in cases:
                u, i = a.union(b), a.intersect(b)
                m = a.intersect(b.complement())
                for p in probe:
                    pa, pb = holds(a, p), holds(b, p)
                    assert holds(u, p) == (pa or pb)
                    assert holds(i, p) == (pa and pb)
                    assert holds(m, p) == (pa and not pb)
                    assert holds(a.complement(), p) == (not pa)


class TestPeeling:
    def test_plain_segment_stabilizes(self, rn20):
        t = rieger_nishimura_run(rn20, rn20.fin({"p0"}))
        assert [x.render() for x in t.b] == ["{p0}", "{p1}", "{p2}", "{}"]
        assert t.N == 2
        assert t.stabilized is True
        assert t.a_inf_exact is True
        assert not t.a_inf
        cls = classify_algebra(t)
        assert (cls.case, cls.name) == (1, "P(2,0)")
        assert cls.witness == {"0": "p0", "1": "p1", "2": "p2"}
        assert check_identities(t) == []

    def test_segment_with_bottom_reopens(self, rn22):
        t = rieger_nishimura_run(rn22, rn22.fin({"p0"}))
        assert t.N == 2
        assert not t.b[3]
        assert t.b[4].render() == "{p4}"
        assert t.stabilized is True
        cls = classify_algebra(t)
        assert (cls.case, cls.name) == (2, "P(2,2)")
        assert cls.witness["4"] == "p4"
        assert check_identities(t) == []

    def test_counts_are_read_off_the_layers(self, rn20, ladder):
        # an empty trace ran no step, found no empty layer and did not
        # stabilize; a run cut at max_n stops there without stabilizing
        empty = RNTrace(rn20)
        assert (empty.n_ran, empty.N, empty.stabilized) == (0, None, False)
        for space, max_n, want in ((rn20, 30, (3, 2, True)),
                                   (rn20, 2, (2, None, False)),
                                   (rn20, 3, (3, 2, True)),
                                   (ladder, 5, (5, None, False))):
            t = rieger_nishimura_run(space, space.fin({"p0"}), max_n)
            assert (t.n_ran, t.N, t.stabilized) == want, max_n

    def test_full_ladder_marches(self, ladder):
        t = rieger_nishimura_run(ladder, ladder.fin({"p0"}), max_n=30)
        assert t.N is None
        assert not t.stabilized
        assert not t.a_inf and not t.a_inf_exact
        assert t.note == ("singleton layers march up the ladder; tail "
                          "projected from step 30")
        cls = classify_algebra(t)
        assert (cls.case, cls.name) == (3, "P_infinity")
        assert cls.witness["30"] == "p30"
        assert check_identities(t) == []

    def test_ladder_with_bottom_keeps_a_point(self, ladder_bot):
        t = rieger_nishimura_run(ladder_bot, ladder_bot.fin({"p0"}),
                                 max_n=30)
        assert t.a_inf.ids == {"bot"}
        cls = classify_algebra(t)
        assert (cls.case, cls.name) == (4, "P_infinity_with_Ainf")
        assert check_identities(t) == []

    def test_short_run_is_inconclusive(self, ladder):
        t = rieger_nishimura_run(ladder, ladder.fin({"p0"}), max_n=1)
        assert t.a_inf is None
        cls = classify_algebra(t)
        assert cls.serialize() == {
            "case": None, "name": "inconclusive",
            "witness": {"0": "p0", "1": "p1"},
            "note": "cut off before the layer pattern settled"}

    def test_generator_must_be_open(self, rn20):
        with pytest.raises(ClosureError, match="must be an open"):
            rieger_nishimura_run(rn20, rn20.fin({"p2"}))

    def test_layer_order_spot_checks(self, ladder):
        t = rieger_nishimura_run(ladder, ladder.fin({"p0"}), max_n=8)
        cl0 = ladder.closure_of(t.b[0])
        assert t.b[2].subset_of(cl0)
        assert t.b[3].subset_of(cl0)
        assert not t.b[1].subset_of(cl0)

    def test_trace_serializes(self, rn20):
        doc = rieger_nishimura_run(rn20, rn20.fin({"p0"})).serialize()
        assert doc["N"] == 2
        assert doc["stabilized"] is True
        assert doc["A_inf"] is None
        assert doc["A_inf_exact"] is True
        assert doc["steps"][2]["B"] == {"shape": "finite", "ids": ["p2"]}


class TestGenerationCertificate:
    def test_plain_segment(self):
        doc = e_of_p(SymbolicSpace(family("rn(2,0)")))
        assert doc == {"family": "rn(2,0)", "horizon": 12, "checked": 2,
                       "holds": True, "failures": []}

    def test_full_ladder(self):
        doc = e_of_p(SymbolicSpace(family("rn-infinity"), 12))
        assert doc["checked"] == 11
        assert doc["holds"] is True

    def test_bottom_variant(self):
        doc = e_of_p(SymbolicSpace(family("rn-infinity-bot"), 10))
        assert doc["holds"] is True

    def test_needs_symbolic_space(self):
        with pytest.raises(ClosureError, match="finite poset or a ladder"):
            e_of_p(SymbolicSpace(family("omega-chain")))


@pytest.mark.parametrize("tag", sorted(LADDER_IDS))
class TestTamperedLadders:
    """The ladder order comes from the poset, so a changed order shows."""

    def test_true_gap_passes(self, tag):
        assert e_of_p(SymbolicSpace(tampered_ladder(tag, 2)))["holds"] is True
        assert check_closure_axioms(
            SymbolicSpace(tampered_ladder(tag, 2))) == []

    def test_consecutive_rungs_comparable(self, tag):
        doc = e_of_p(SymbolicSpace(tampered_ladder(tag, 1)))
        assert doc["holds"] is False
        assert doc["checked"] == 11
        assert doc["failures"][0] == {
            "k": 0, "got": {"shape": "finite", "ids": []}}

    def test_widened_gap_breaks_the_axioms(self, tag):
        problems = check_closure_axioms(SymbolicSpace(tampered_ladder(tag, 3)))
        assert problems
        assert all(p.startswith("closure not additive") for p in problems)


def layer(name: str, n: int, make):
    """A tamper that puts make(space, trace) at step n of the trace's
    layer list ``name``."""
    def tamper(space, trace):
        getattr(trace, name)[n] = make(space, trace)
    return tamper


def limit(make):
    """A tamper that puts make(space, trace) in the trace's A_inf."""
    def tamper(space, trace):
        trace.a_inf = make(space, trace)
    return tamper


# each of check_identities' problems, and one tamper of an eight-step run
# on the ladder that shows it
TAMPERS = {
    "U_3 is not the complement of the closed layer below":
        layer("u", 3, lambda sp, t: t.u[4]),
    "V_3 does not accumulate U_2": layer("v", 3, lambda sp, t: t.v[2]),
    "B_8 is not the new part of U_8":
        layer("b", 8, lambda sp, t: sp.fin({"p7"})),
    "B_0 != V_1 - V_0": layer("b", 0, lambda sp, t: sp.fin({"p1"})),
    "closure(B_0) != W - U_1": layer("u", 1, lambda sp, t: sp.whole()),
    "V_2 != U_3 & V_3": layer("v", 2, lambda sp, t: t.v[3]),
    "V_1 != U_3 & U_2": layer("v", 1, lambda sp, t: t.v[2]),
    "B_4 and B_5 overlap": layer("b", 5, lambda sp, t: t.b[4]),
    "ladder order fails at B_6, B_4":
        layer("b", 6, lambda sp, t: sp.fin({"p0"})),
    "A_inf is not closed": limit(lambda sp, t: sp.fin({"p2"})),
    "A_inf meets B_3": limit(lambda sp, t: t.b[3]),
}


@pytest.mark.parametrize("message", TAMPERS)
def test_a_tampered_trace_fails_check_identities(ladder, message):
    trace = rieger_nishimura_run(ladder, ladder.fin({"p0"}), 8)
    assert check_identities(trace) == []
    TAMPERS[message](ladder, trace)
    assert message in check_identities(trace)


@pytest.mark.parametrize("message", TAMPERS)
def test_a_tampered_trace_reports_as_the_oracle(ladder, message):
    trace = rieger_nishimura_run(ladder, ladder.fin({"p0"}), 8)
    TAMPERS[message](ladder, trace)
    assert check_identities(trace) == ref_check_identities(trace)


def outcome(f, *args):
    """f(*args), or the message of the ClosureError it raises."""
    try:
        return f(*args)
    except ClosureError as e:
        return f"ClosureError: {e}"


def trace_outcome(run, tag_or_poset, horizon: int, max_n: int):
    """Everything a peeling run on a fresh space shows: its serialization,
    its A_inf, its text render, its dot render and its identity check
    (by the oracle), or the error it raises."""
    poset = (family(tag_or_poset) if isinstance(tag_or_poset, str)
             else tag_or_poset)
    space = SymbolicSpace(poset, horizon)
    t = outcome(run, space, space.fin({"p0"}), max_n)
    if isinstance(t, str):
        return t
    return (t.serialize(), t.a_inf,
            render_trace_text(t, classify_algebra(t)), render_trace_dot(t),
            ref_check_identities(t))


@pytest.mark.parametrize("tag", CLI_TAGS)
def test_runs_match_the_element_oracles(tag):
    for horizon in (1, 3, 12):
        for max_n in (0, 1, 10, 30):
            want = trace_outcome(ref_rieger_nishimura_run, tag, horizon,
                                 max_n)
            assert trace_outcome(rieger_nishimura_run, tag, horizon,
                                 max_n) == want, (horizon, max_n)
            space = SymbolicSpace(family(tag), horizon)
            t = rieger_nishimura_run(space, space.fin({"p0"}), max_n)
            assert check_identities(t) == ref_check_identities(t)
        assert (e_of_p(SymbolicSpace(family(tag), horizon))
                == ref_e_of_p(family(tag), horizon)), horizon


@pytest.mark.parametrize("tag", sorted(LADDER_IDS))
@pytest.mark.parametrize("gap", [1, 2, 3])
def test_tampered_ladders_match_the_element_oracles(tag, gap):
    for horizon in (3, 12):
        assert (e_of_p(SymbolicSpace(tampered_ladder(tag, gap), horizon))
                == ref_e_of_p(tampered_ladder(tag, gap), horizon))
        for max_n in (1, 10, 30):
            got = trace_outcome(rieger_nishimura_run,
                                tampered_ladder(tag, gap), horizon, max_n)
            assert got == trace_outcome(ref_rieger_nishimura_run,
                                        tampered_ladder(tag, gap), horizon,
                                        max_n), (horizon, max_n)
            space = SymbolicSpace(tampered_ladder(tag, gap), horizon)
            t = outcome(rieger_nishimura_run, space, space.fin({"p0"}), max_n)
            if not isinstance(t, str):
                assert check_identities(t) == ref_check_identities(t)


def test_elements_are_built_per_layer_not_per_comparison(monkeypatch):
    """Comparing and combining layers builds no element: a run builds a
    few a step, ``check_identities`` one closure a layer and ``e_of_p``
    none a rung while it holds."""
    built = []
    init = ClosureElement.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(ClosureElement, "__init__", counting)
    space = SymbolicSpace(family("rn-infinity"), 12)
    trace = rieger_nishimura_run(space, space.fin({"p0"}), 30)
    layers = len(trace.b)
    assert layers == 31
    assert len(built) <= 5 * layers
    built.clear()
    assert check_identities(trace) == []
    assert len(built) <= 2 * layers     # 1 262 when each comparison built
    built.clear()
    doc = e_of_p(space)
    assert doc["holds"] and doc["checked"] == 11
    assert len(built) <= 2 * 12         # 78 when each set operation built


def one_more(space):
    """A closure that adds the least id it leaves out to every answer, so
    the empty set closes to a point and no answer is ever closed again."""
    real = space.closure_of

    def closure_of(x):
        cx = real(x)
        rest = space.whole().intersect(cx.complement())
        return cx.union(space.fin(sorted(rest.ids)[:1]))
    return closure_of


@pytest.mark.parametrize("wrap, message", [
    (one_more, "closure of the empty set is nonempty"),
    (one_more, "closure not idempotent at {}"),
    (lambda sp: lambda x: sp.empty(), "{p0} not inside its closure"),
], ids=["empty", "idempotence", "inclusion"])
def test_a_broken_closure_fails_check_closure_axioms(monkeypatch, wrap,
                                                      message):
    space = SymbolicSpace(family("rn(2,0)"))
    assert check_closure_axioms(space) == []
    monkeypatch.setattr(space, "closure_of", wrap(space))
    assert message in check_closure_axioms(space)


class TestRenders:
    def test_text_table(self, rn20):
        t = rieger_nishimura_run(rn20, rn20.fin({"p0"}))
        text = render_trace_text(t, classify_algebra(t))
        assert "U_n" in text.splitlines()[0]
        assert "N = 2; classification P(2,0) (case 1)" in text
        assert text.endswith("A_inf = {}")

    def test_text_marks_projection(self, ladder):
        t = rieger_nishimura_run(ladder, ladder.fin({"p0"}), max_n=30)
        text = render_trace_text(t, classify_algebra(t))
        assert "N = inf; classification P_infinity" in text
        assert text.endswith("A_inf = {} (projected)")

    def test_dot_ladder(self, ladder):
        t = rieger_nishimura_run(ladder, ladder.fin({"p0"}), max_n=8)
        dot = render_trace_dot(t)
        assert dot.startswith("digraph ladder {")
        assert '"p0" [label="B0: p0"];' in dot
        assert '"p0" -> "p2";' in dot
        assert '"p0" -> "p3";' in dot
        assert '"p0" -> "p4";' not in dot


# sha256 per "<family> <format>" over the closure command at every --max-n
# in (10, 20, 30, 40) and --horizon in (1, 3, 12): for each run in that
# order, "<max-n> <horizon> <exit code>\n" and then its stdout
PINNED = os.path.join(os.path.dirname(__file__), "closure_digests.json")
PINNED_KEYS = [f"{tag} {fmt}" for tag in CLI_TAGS
               for fmt in ("json", "text", "dot")]


def closure_digest(tag: str, fmt: str) -> str:
    h = hashlib.sha256()
    for max_n in (10, 20, 30, 40):
        for horizon in (1, 3, 12):
            code, out, _ = run_main(["closure", "--family", tag, "--format",
                                     fmt, "--max-n", str(max_n),
                                     "--horizon", str(horizon)])
            h.update(f"{max_n} {horizon} {code}\n{out}".encode())
    return h.hexdigest()


def test_closure_output_is_pinned():
    with open(PINNED) as f:
        pinned = json.load(f)
    assert sorted(pinned) == sorted(PINNED_KEYS)
    changed = [k for k in PINNED_KEYS
               if closure_digest(*k.split(" ")) != pinned[k]]
    assert changed == []


if __name__ == "__main__":
    # prints the pinned digests of the program on the path, in the pinned
    # file's key order
    print(json.dumps({k: closure_digest(*k.split(" ")) for k in PINNED_KEYS},
                     indent=1))
