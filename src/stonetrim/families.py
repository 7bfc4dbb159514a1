"""Builtin poset families with analytic knowledge of their infinite shape.

Tags: omega-chain, omega-antichain, rn-infinity, rn-infinity-bot, rn(m,0),
rn(m,2), dyadic, ziegler-fan.  The rn families use the ladder order
p_j > p_k iff k >= j + 2; rn(m,2) adjoins p_{m+2} to rn(m,0).  The dyadic
family enumerates dyadic rationals in [0,1] by denominator, larger values
first within each denominator group.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .poset import (Analytics, FoundationResult, Poset, PosetError,
                    FOUND, REFUTED)

_RN_RE = re.compile(r"rn\((\d+),([02])\)$")


def _ix(p: str) -> int:
    # the k of a "p<k>" id
    return int(p[1:])


def family_tags() -> list[str]:
    return ["omega-chain", "omega-antichain", "rn-infinity", "rn-infinity-bot",
            "rn(m,0)", "rn(m,2)", "dyadic", "ziegler-fan"]


def family(tag: str) -> Poset:
    """Build the poset named by a family tag."""
    if tag == "omega-chain":
        return _omega_chain()
    if tag == "omega-antichain":
        return _omega_antichain()
    if tag == "rn-infinity":
        return _rn_infinity()
    if tag == "rn-infinity-bot":
        return _rn_infinity_bot()
    if tag == "dyadic":
        return _dyadic()
    if tag == "ziegler-fan":
        return _ziegler_fan()
    m = _RN_RE.match(tag)
    if m:
        return _rn_finite(int(m.group(1)), int(m.group(2)))
    raise PosetError(f"unknown family tag {tag!r}")


# ----------------------------------------------------------------------
# ascending chain p1 < p2 < ...

def _omega_chain() -> Poset:
    def foundation(poset: Poset, q: frozenset, horizon: int) -> FoundationResult:
        return FoundationResult(FOUND, frozenset({"p1"}),
                                note="the bottom element founds every subset")

    analytics = Analytics(
        minimal=lambda poset, h: frozenset({"p1"}),
        maximal=lambda poset, h: frozenset(),
        acc=False,
        omega_complete=False,
        omega_note="the full chain has no upper bound",
        omega_witness=lambda poset, h: tuple(poset.prefix(h)),
        foundation=foundation,
    )
    return Poset.generated(
        "omega-chain", lambda i: f"p{i}",
        lambda a, b: _ix(a) <= _ix(b),
        family="omega-chain", analytics=analytics)


def _omega_antichain() -> Poset:
    def foundation(poset: Poset, q: frozenset, horizon: int) -> FoundationResult:
        return FoundationResult(FOUND, frozenset(q),
                                note="an antichain subset founds itself")

    analytics = Analytics(
        minimal=lambda poset, h: frozenset(poset.prefix(h)),
        maximal=lambda poset, h: frozenset(poset.prefix(h)),
        acc=True,
        omega_complete=True,
        omega_note="ascending sequences are constant",
        foundation=foundation,
    )
    return Poset.generated(
        "omega-antichain", lambda i: f"a{i}",
        lambda a, b: a == b,
        family="omega-antichain", analytics=analytics)


# ----------------------------------------------------------------------
# the ladder posets

def _rn_leq(a: str, b: str) -> bool:
    # a <= b iff a == b or b dominates: p_j > p_k iff k >= j + 2
    return a == b or _ix(a) >= _ix(b) + 2


def _rn_infinity() -> Poset:
    def foundation(poset: Poset, q: frozenset, horizon: int) -> FoundationResult:
        return FoundationResult(
            REFUTED,
            note="no minimal elements: below any finite candidate set "
                 "there are uncovered elements")

    analytics = Analytics(
        minimal=lambda poset, h: frozenset(),
        maximal=lambda poset, h: frozenset(x for x in ("p0", "p1")
                                           if x in poset.prefix(h)),
        acc=True,
        acc_note="ascending chains have strictly decreasing indices",
        omega_complete=True,
        omega_note="every ascending chain is finite",
        foundation=foundation,
    )
    return Poset.generated(
        "rn-infinity", lambda i: f"p{i - 1}", _rn_leq,
        family="rn-infinity", analytics=analytics)


def _rn_infinity_bot() -> Poset:
    def leq(a: str, b: str) -> bool:
        if a == "bot":
            return True
        if b == "bot":
            return a == b
        return _rn_leq(a, b)

    def foundation(poset: Poset, q: frozenset, horizon: int) -> FoundationResult:
        return FoundationResult(FOUND, frozenset({"bot"}),
                                note="the bottom element founds every subset")

    analytics = Analytics(
        minimal=lambda poset, h: frozenset({"bot"}),
        maximal=lambda poset, h: frozenset(x for x in ("p0", "p1")
                                           if x in poset.prefix(h)),
        acc=True,
        acc_note="ascending chains have strictly decreasing indices",
        omega_complete=True,
        omega_note="every ascending chain is finite",
        foundation=foundation,
    )
    return Poset.generated(
        "rn-infinity-bot",
        lambda i: "bot" if i == 1 else f"p{i - 2}", leq,
        family="rn-infinity-bot", analytics=analytics)


def _rn_finite(m: int, extra: int) -> Poset:
    ids = [f"p{k}" for k in range(m + 1)]
    if extra:
        ids.append(f"p{m + 2}")
    name = f"rn({m},{extra})"
    p = Poset.finite_from_order(name, ids, _rn_leq)
    p.family = name
    return p


# ----------------------------------------------------------------------
# dyadic rationals in [0,1], ordered as numbers

def _dyadic_id(i: int) -> str:
    # 0, 1, then each denominator group with numerators descending
    if i == 1:
        return "0"
    if i == 2:
        return "1"
    rest = i - 3
    den = 2
    while rest >= den // 2:
        rest -= den // 2
        den *= 2
    num = den - 1 - 2 * rest
    return str(Fraction(num, den))


def _dyadic_limit_display(values: tuple[str, ...]) -> Optional[str]:
    """Exact limit of a geometric ascent; None when no pattern fits."""
    if len(values) < 3:
        return None
    vs = [Fraction(v) for v in values]
    gaps = [b - a for a, b in zip(vs, vs[1:])]
    if any(g <= 0 for g in gaps):
        return None
    ratios = {g2 / g1 for g1, g2 in zip(gaps, gaps[1:])}
    if len(ratios) != 1:
        return None
    r = ratios.pop()
    if not 0 < r < 1:
        return None
    limit = vs[-1] + gaps[-1] * r / (1 - r)
    return f"lim→{limit}⁻"


def _dyadic() -> Poset:
    def thirds_chain(poset: Poset, h: int) -> tuple[str, ...]:
        # partial sums of 1/4 + 1/16 + ... approach 1/3, which is not dyadic
        vals = []
        s = Fraction(0)
        for k in range(1, 6):
            s += Fraction(1, 4 ** k)
            vals.append(str(s))
        return tuple(vals)

    def foundation(poset: Poset, q: frozenset, horizon: int) -> FoundationResult:
        return FoundationResult(FOUND, frozenset({"0"}),
                                note="the bottom element founds every subset")

    analytics = Analytics(
        minimal=lambda poset, h: frozenset({"0"}),
        maximal=lambda poset, h: frozenset({"1"}).intersection(
            poset.prefix(h)),
        acc=False,
        omega_complete=False,
        omega_note="chains approaching a non-dyadic value have no least upper bound",
        omega_witness=thirds_chain,
        foundation=foundation,
        limit_display=_dyadic_limit_display,
    )
    return Poset.generated(
        "dyadic", _dyadic_id,
        lambda a, b: Fraction(a) <= Fraction(b),
        family="dyadic", analytics=analytics)


# ----------------------------------------------------------------------
# fan: one top above an infinite antichain of minimal elements

def _ziegler_fan() -> Poset:
    def leq(a: str, b: str) -> bool:
        return a == b or (a != "q" and b == "q")

    def foundation(poset: Poset, q: frozenset, horizon: int) -> FoundationResult:
        if "q" in q:
            return FoundationResult(
                REFUTED,
                note="everything sits below the hub, so a foundation "
                     "would need all infinitely many minimal elements")
        return FoundationResult(FOUND, frozenset(q),
                                note="minimal elements found themselves")

    analytics = Analytics(
        minimal=lambda poset, h: frozenset(x for x in poset.prefix(h) if x != "q"),
        maximal=lambda poset, h: frozenset({"q"}),
        acc=True,
        acc_note="chains have at most two elements",
        omega_complete=True,
        omega_note="ascending sequences stabilize at a minimal element or the hub",
        foundation=foundation,
    )
    return Poset.generated(
        "ziegler-fan",
        lambda i: "q" if i == 1 else f"m{i - 1}", leq,
        family="ziegler-fan", analytics=analytics)
