"""Builtin families: enumeration order, order oracles, analytics."""
from fractions import Fraction

import pytest

from conftest import finite_from_order
from stonetrim import FOUND, REFUTED, Poset, PosetError, family, family_tags


# The string orders the families once read back from their ids, kept as the
# reference that their up-set rows must reproduce bit for bit.

def _ix(p: str) -> int:
    return int(p[1:])


def ladder_leq(a: str, b: str) -> bool:
    return a == b or _ix(a) >= _ix(b) + 2


def ladder_bot_leq(a: str, b: str) -> bool:
    return a == "bot" or (b != "bot" and ladder_leq(a, b))


def dyadic_id(i: int) -> str:
    if i <= 2:
        return str(i - 1)
    rest, den = i - 3, 2
    while rest >= den // 2:
        rest -= den // 2
        den *= 2
    return str(Fraction(den - 1 - 2 * rest, den))


REFERENCE = {
    "omega-chain": (lambda i: f"p{i}", lambda a, b: _ix(a) <= _ix(b), 200),
    "omega-antichain": (lambda i: f"a{i}", lambda a, b: a == b, 200),
    "rn-infinity": (lambda i: f"p{i - 1}", ladder_leq, 200),
    "rn-infinity-bot": (lambda i: "bot" if i == 1 else f"p{i - 2}",
                        ladder_bot_leq, 200),
    "dyadic": (dyadic_id, lambda a, b: Fraction(a) <= Fraction(b), 129),
    "ziegler-fan": (lambda i: "q" if i == 1 else f"m{i - 1}",
                    lambda a, b: a == b or (a != "q" and b == "q"), 200),
}


def comparable(poset: Poset, a: str, b: str) -> bool:
    return poset.leq(a, b) or poset.leq(b, a)


def table(poset: Poset, n: int) -> list[int]:
    return [poset.up_mask(i) for i in range(1, n + 1)]


@pytest.mark.parametrize("tag", sorted(REFERENCE))
def test_infinite_family_rows_match_the_string_order(tag):
    element_at, leq, n = REFERENCE[tag]
    got, want = family(tag), Poset.generated(tag, element_at, leq)
    # grow in two steps: the older rows gain the bits of later elements
    assert table(got, 7) == table(want, 7)
    assert got.prefix(n) == want.prefix(n)
    assert table(got, n) == table(want, n)


@pytest.mark.parametrize("extra", [0, 2])
@pytest.mark.parametrize("m", range(11))
def test_finite_ladder_rows_match_the_string_order(m, extra):
    ids = [f"p{k}" for k in range(m + 1)] + ([f"p{m + 2}"] if extra else [])
    got = family(f"rn({m},{extra})")
    want = finite_from_order("ref", ids, ladder_leq)
    assert got.prefix(len(ids)) == ids
    assert table(got, len(ids)) == table(want, len(ids))
    assert got.family == got.name == f"rn({m},{extra})"


class TestTags:
    def test_catalog(self):
        tags = family_tags()
        for t in ("omega-chain", "omega-antichain", "rn-infinity",
                  "rn-infinity-bot", "rn(m,0)", "rn(m,2)", "dyadic",
                  "ziegler-fan"):
            assert t in tags

    def test_unknown_tag(self):
        with pytest.raises(PosetError, match="nope"):
            family("nope")
        with pytest.raises(PosetError, match="unknown family"):
            family("rn(3,1)")


class TestOmegaChain:
    def test_enumeration_and_order(self):
        p = family("omega-chain")
        assert p.prefix(4) == ["p1", "p2", "p3", "p4"]
        p.prefix(7)
        assert p.leq("p2", "p7")
        assert not p.leq("p7", "p2")

    def test_analytics(self):
        p = family("omega-chain")
        p.prefix(6)
        mins, exact = p.confirmed_minimal(6)
        assert mins == {"p1"} and exact
        assert p.finite_foundation({"p4"}, 6).foundation == {"p1"}


class TestOmegaAntichain:
    def test_only_equality_holds(self):
        p = family("omega-antichain")
        assert p.prefix(3) == ["a1", "a2", "a3"]
        assert p.leq("a2", "a2")
        assert not comparable(p, "a1", "a3")

    def test_subsets_found_themselves(self):
        p = family("omega-antichain")
        p.prefix(6)
        res = p.finite_foundation({"a2", "a5"}, 6)
        assert res.status == FOUND
        assert res.foundation == {"a2", "a5"}


class TestLadder:
    def test_enumeration_starts_at_p0(self):
        p = family("rn-infinity")
        assert p.prefix(4) == ["p0", "p1", "p2", "p3"]

    def test_strict_pairs(self):
        p = family("rn-infinity")
        p.prefix(6)
        # p_j > p_k exactly when k >= j + 2
        assert p.lt("p2", "p0")
        assert p.lt("p3", "p0")
        assert p.lt("p3", "p1")
        assert p.lt("p5", "p3")
        assert not comparable(p, "p0", "p1")
        assert not comparable(p, "p2", "p3")
        assert not comparable(p, "p1", "p2")

    def test_maximal_pair_confirmed(self):
        p = family("rn-infinity")
        ex = p.extremal_elements(8)
        assert ex.maximal == {"p0", "p1"}
        assert ex.minimal == frozenset()

    def test_no_finite_foundations(self):
        p = family("rn-infinity")
        p.prefix(6)
        assert p.finite_foundation({"p1"}, 6).status == REFUTED

    def test_bottom_variant(self):
        p = family("rn-infinity-bot")
        assert p.prefix(3) == ["bot", "p0", "p1"]
        p.prefix(6)
        assert all(p.leq("bot", x) for x in p.prefix(6))
        assert not p.lt("p0", "bot")
        res = p.finite_foundation({"p0", "p1"}, 6)
        assert res.status == FOUND and res.foundation == {"bot"}


class TestFiniteLadders:
    def test_plain_segment(self):
        p = family("rn(2,0)")
        assert p.prefix(3) == ["p0", "p1", "p2"]
        assert p.size == 3
        assert p.lt("p2", "p0")
        assert not comparable(p, "p1", "p2")

    def test_segment_with_adjoined_bottom(self):
        p = family("rn(2,2)")
        assert p.prefix(4) == ["p0", "p1", "p2", "p4"]
        assert all(p.leq("p4", x) for x in p.prefix(4))

    def test_larger_segment(self):
        p = family("rn(5,0)")
        assert p.size == 6
        assert p.prefix(6)[-1] == "p5"
        assert p.family == "rn(5,0)"


class TestDyadic:
    def test_enumeration_prefix(self):
        p = family("dyadic")
        assert p.prefix(10) == ["0", "1", "1/2", "3/4", "1/4", "7/8", "5/8",
                                "3/8", "1/8", "15/16"]

    def test_order_matches_rational_value(self):
        p = family("dyadic")
        pre = p.prefix(12)
        for a in pre:
            for b in pre:
                assert p.leq(a, b) == (Fraction(a) <= Fraction(b))

    def test_extremes(self):
        p = family("dyadic")
        ex = p.extremal_elements(9)
        assert ex.minimal == {"0"} and ex.maximal == {"1"}

    def test_omega_witness_approaches_one_third(self):
        p = family("dyadic")
        v = p.check_omega_complete(9)
        assert v.status == REFUTED
        assert v.witness == ("1/4", "5/16", "21/64", "85/256", "341/1024")

    def test_limit_display_geometric(self):
        show = family("dyadic").analytics.limit_display
        assert show(("1/2", "3/4", "7/8")) == "lim→1⁻"
        assert show(("1/4", "5/16", "21/64")) == "lim→1/3⁻"

    def test_limit_display_rejects_non_geometric(self):
        show = family("dyadic").analytics.limit_display
        assert show(("1/2", "3/4")) is None
        assert show(("3/4", "1/2", "1/4")) is None
        assert show(("1/4", "1/2", "3/4")) is None


class TestZieglerFan:
    def test_enumeration_puts_the_hub_first(self):
        p = family("ziegler-fan")
        assert p.prefix(4) == ["q", "m1", "m2", "m3"]

    def test_minimal_antichain_under_one_hub(self):
        p = family("ziegler-fan")
        p.prefix(5)
        assert p.lt("m2", "q")
        assert not comparable(p, "m1", "m4")
        ex = p.extremal_elements(5)
        assert ex.maximal == {"q"}
        assert ex.minimal == {"m1", "m2", "m3", "m4"}

    def test_foundation_depends_on_the_hub(self):
        p = family("ziegler-fan")
        p.prefix(6)
        assert p.finite_foundation({"q"}, 6).status == REFUTED
        res = p.finite_foundation({"m1", "m3"}, 6)
        assert res.status == FOUND
        assert res.foundation == {"m1", "m3"}
