"""Symbolic closure algebras and the layer-peeling recursion."""
import contextlib
import hashlib
import io
import json
import os
import random
from itertools import combinations

import pytest

from conftest import holds, ref_closure_of
from stonetrim import (ClosureError, Poset, SymbolicSpace,
                       check_closure_axioms, check_identities,
                       classify_algebra, cli, e_of_p, family,
                       render_trace_dot, render_trace_text,
                       rieger_nishimura_run)

LADDER_IDS = {"rn-infinity": lambda i: f"p{i - 1}",
              "rn-infinity-bot": lambda i: "bot" if i == 1 else f"p{i - 2}"}


def tampered_ladder(tag: str, gap: int) -> Poset:
    """A ladder family's ids, tag and analytics with the rung gap changed:
    p_j > p_k iff k >= j + gap, the bottom still below everything."""
    def leq(a: str, b: str) -> bool:
        if a == "bot":
            return True
        if b == "bot":
            return a == b
        return a == b or int(a[1:]) >= int(b[1:]) + gap

    return Poset.generated(tag, LADDER_IDS[tag], leq, family=tag,
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
        assert rn20.all_mask == 0b1110
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
        assert rn22.rungs() == ["p0", "p1", "p2"]
        assert SymbolicSpace(family("rn-infinity"), 3).rungs() == [
            "p0", "p1", "p2"]
        assert SymbolicSpace(family("rn-infinity-bot"), 3).rungs() == [
            "p0", "p1", "p2"]


class TestUnknownIds:
    @pytest.mark.parametrize("tag", ["rn(2,0)", "rn(2,2)", "rn-infinity",
                                     "rn-infinity-bot"])
    def test_fin_and_cof_reject_unknown_ids(self, tag):
        space = SymbolicSpace(family(tag))
        for make in (space.fin, space.cof):
            with pytest.raises(ClosureError, match="unknown element id 'zz'"):
                make({"p0", "zz"})

    def test_ladder_ids_must_be_enumerated(self):
        space = SymbolicSpace(family("rn-infinity"), horizon=12)
        assert space.fin({"p12"}).render() == "{p12}"
        with pytest.raises(ClosureError, match="'p13'"):
            space.fin({"p13"})
        with pytest.raises(ClosureError, match="'p50'"):
            space.cof({"p50", "p0"})
        # a down-set enumerates one element past its own
        space.down_of(space.poset.index("p12"))
        assert space.fin({"p13"}).render() == "{p13}"

    def test_horizon_one_shows_the_first_rung(self):
        space = SymbolicSpace(family("rn-infinity-bot"), horizon=1)
        assert space.fin({"p0"}).render() == "{p0}"
        assert space.rungs() == ["p0"]


class TestClosure:
    def test_closure_of_finite_shape(self, ladder):
        got = ladder.closure_of(ladder.fin({"p0"}))
        assert got == ladder.cof({"p1"})
        assert got.render() == "W-{p1}"

    def test_closure_of_cofinite_shape(self, ladder):
        assert ladder.closure_of(ladder.cof({"p2"})) == ladder.whole()
        kept = ladder.closure_of(ladder.cof({"p0"}))
        assert kept == ladder.cof({"p0"})

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
    shown = space.poset.prefix(horizon + 1 if space.ladder else
                               space.poset.size)
    # down-sets enumerate one element past their own
    window = space.poset.prefix(len(shown) + 1)
    rng = random.Random(f"{tag} {horizon}")
    draws = [space.empty(), space.whole()]
    for _ in range(40):
        ids = rng.sample(shown, rng.randint(1, min(4, len(shown))))
        draws.append((space.cof if rng.random() < 0.5 else space.fin)(ids))
    for x in draws:
        got = space.closure_of(x)
        want, past = ref_closure_of(space, x, window)
        assert {q for q in window if holds(got, q)} == want, x.render()
        assert got.cofinite == past, x.render()


class TestElements:
    def test_cofinite_normalizes_on_finite_spaces(self, rn20):
        x = rn20.cof({"p0"})
        assert not x.cofinite
        assert x.mask == 0b1100
        assert x.ids == {"p1", "p2"}

    def test_render_ordering(self, ladder_bot):
        assert ladder_bot.fin({"p10", "p9", "p2"}).render() == "{p2,p9,p10}"
        assert ladder_bot.fin({"bot", "p0"}).render() == "{p0,bot}"

    def test_sole_id(self, ladder):
        assert ladder.fin({"p3"}).sole_id() == "p3"
        assert ladder.fin({"p1", "p2"}).sole_id() is None
        assert ladder.cof({"p3"}).sole_id() is None

    def test_serialize(self, ladder):
        assert ladder.cof({"p1", "p0"}).serialize() == {
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
                assert a.minus(b).ids == sa - sb
                assert a.complement().ids == universe - sa
                assert a.subset_of(b) == (sa <= sb)

    def test_mixed_shape_algebra(self, ladder):
        probe = [f"p{k}" for k in range(9)]
        cases = [ladder.fin({"p0", "p3"}), ladder.cof({"p1", "p2"}),
                 ladder.cof({"p0", "p5"}), ladder.fin(())]
        for a in cases:
            for b in cases:
                u, i, m = a.union(b), a.intersect(b), a.minus(b)
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
        assert t.a_inf.is_empty
        cls = classify_algebra(t)
        assert (cls.case, cls.name) == (1, "P(2,0)")
        assert cls.witness == {"0": "p0", "1": "p1", "2": "p2"}
        assert check_identities(t) == []

    def test_segment_with_bottom_reopens(self, rn22):
        t = rieger_nishimura_run(rn22, rn22.fin({"p0"}))
        assert t.N == 2
        assert t.b[3].is_empty
        assert t.b[4].render() == "{p4}"
        assert t.stabilized is True
        cls = classify_algebra(t)
        assert (cls.case, cls.name) == (2, "P(2,2)")
        assert cls.witness["4"] == "p4"
        assert check_identities(t) == []

    def test_full_ladder_marches(self, ladder):
        t = rieger_nishimura_run(ladder, ladder.fin({"p0"}), max_n=30)
        assert t.N is None
        assert not t.stabilized
        assert t.a_inf.is_empty and not t.a_inf_exact
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
        doc = e_of_p(family("rn(2,0)"))
        assert doc == {"family": "rn(2,0)", "horizon": 12, "checked": 2,
                       "holds": True, "failures": []}

    def test_full_ladder(self):
        doc = e_of_p(family("rn-infinity"), horizon=12)
        assert doc["checked"] == 11
        assert doc["holds"] is True

    def test_bottom_variant(self):
        doc = e_of_p(family("rn-infinity-bot"), horizon=10)
        assert doc["holds"] is True

    def test_needs_symbolic_space(self):
        with pytest.raises(ClosureError, match="finite poset or a ladder"):
            e_of_p(family("omega-chain"))


@pytest.mark.parametrize("tag", sorted(LADDER_IDS))
class TestTamperedLadders:
    """The ladder order comes from the poset, so a changed order shows."""

    def test_true_gap_passes(self, tag):
        assert e_of_p(tampered_ladder(tag, 2))["holds"] is True
        assert check_closure_axioms(
            SymbolicSpace(tampered_ladder(tag, 2))) == []

    def test_consecutive_rungs_comparable(self, tag):
        doc = e_of_p(tampered_ladder(tag, 1))
        assert doc["holds"] is False
        assert doc["checked"] == 11
        assert doc["failures"][0] == {
            "k": 0, "got": {"shape": "finite", "ids": []}}

    def test_widened_gap_breaks_the_axioms(self, tag):
        problems = check_closure_axioms(SymbolicSpace(tampered_ladder(tag, 3)))
        assert problems
        assert all(p.startswith("closure not additive") for p in problems)


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


def closure_digest(tag: str, fmt: str) -> str:
    h = hashlib.sha256()
    for max_n in (10, 20, 30, 40):
        for horizon in (1, 3, 12):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["closure", "--family", tag, "--format", fmt,
                                 "--max-n", str(max_n),
                                 "--horizon", str(horizon)])
            h.update(f"{max_n} {horizon} {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def test_closure_output_is_pinned():
    with open(PINNED) as f:
        pinned = json.load(f)
    tags = ([f"rn({m},{v})" for m in range(11) for v in (0, 2)]
            + ["rn-infinity", "rn-infinity-bot"])
    keys = [f"{tag} {fmt}" for tag in tags for fmt in ("json", "text", "dot")]
    assert sorted(pinned) == sorted(keys)
    changed = [k for k in keys if closure_digest(*k.split(" ")) != pinned[k]]
    assert changed == []
