"""Builtin poset families with analytic knowledge of their infinite shape.

Tags: omega-chain, omega-antichain, rn-infinity, rn-infinity-bot, rn(m,0),
rn(m,2), dyadic, ziegler-fan.  The rn families use the ladder order
p_j > p_k iff k >= j + 2; rn(m,2) adjoins p_{m+2} to rn(m,0).  The dyadic
family enumerates dyadic rationals in [0,1] by denominator, larger values
first within each denominator group.

Each family gives its order as up-set rows over enumeration indices, in
closed form (see ``poset``), and its analytics as index arithmetic on
masks: confirmed extremal elements and foundations are masks over the same
indices.  Element ids are labels: they are formatted for output and
witnesses, and nothing is read back from them.
"""
from __future__ import annotations

import re
from typing import Optional

from .poset import (Analytics, FoundationResult, Poset, PosetError,
                    FOUND, REFUTED)

_RN_RE = re.compile(r"rn\((\d+),([02])\)$")


def _span(start: int, end: int) -> int:
    """Bits start..end-1, none when end <= start."""
    return (1 << end) - (1 << start) if end > start else 0


def family_tags() -> list[str]:
    return ["omega-chain", "omega-antichain", "rn-infinity", "rn-infinity-bot",
            "rn(m,0)", "rn(m,2)", "dyadic", "ziegler-fan"]


def family(tag: str) -> Poset:
    """Build the poset named by a family tag."""
    if tag in _BUILDERS:
        return _BUILDERS[tag]()
    m = _RN_RE.match(tag)
    if m:
        return _rn_finite(int(m.group(1)), int(m.group(2)))
    raise PosetError(f"unknown family tag {tag!r}")


# the analytics of a bottom at index 1, and the chains of both ladders
_BOTTOM_AT_1 = dict(
    minimal=lambda poset, h: 2,
    foundation=lambda poset, q, h: FoundationResult(FOUND, 2, note=(
        "the bottom element founds every subset")))
_LADDER_CHAINS = dict(
    acc=True,
    acc_note="ascending chains have strictly decreasing indices",
    omega_complete=True,
    omega_note="every ascending chain is finite")


# ----------------------------------------------------------------------
# ascending chain p1 < p2 < ...

def _omega_chain() -> Poset:
    # p1, the bottom, is at index 1
    analytics = Analytics(
        maximal=lambda poset, h: 0,
        acc=False,
        omega_complete=False,
        omega_note="the full chain has no upper bound",
        omega_witness=lambda poset, h: tuple(poset.prefix(h)),
        **_BOTTOM_AT_1,
    )
    return Poset("omega-chain", gen=lambda i: f"p{i}",
                 rows=lambda ids, k: (0, _span(1, k)), analytics=analytics)


def _omega_antichain() -> Poset:
    def foundation(poset: Poset, q: int, horizon: int) -> FoundationResult:
        return FoundationResult(FOUND, q,
                                note="an antichain subset founds itself")

    analytics = Analytics(
        minimal=Poset.prefix_mask,
        maximal=Poset.prefix_mask,
        acc=True,
        omega_complete=True,
        omega_note="ascending sequences are constant",
        foundation=foundation,
    )
    return Poset("omega-antichain", gen=lambda i: f"a{i}",
                 rows=lambda ids, k: (0, 0), analytics=analytics)


# ----------------------------------------------------------------------
# the ladder posets

def _rn_infinity() -> Poset:
    def foundation(poset: Poset, q: int, horizon: int) -> FoundationResult:
        return FoundationResult(
            REFUTED,
            note="no minimal elements: below any finite candidate set "
                 "there are uncovered elements")

    # p0 and p1, the maxima, are at indices 1 and 2
    analytics = Analytics(
        minimal=lambda poset, h: 0,
        maximal=lambda poset, h: 0b110 & poset.prefix_mask(h),
        foundation=foundation,
        **_LADDER_CHAINS,
    )
    # p_{k-1}, at index k, lies below p_0..p_{k-3}
    return Poset("rn-infinity", gen=lambda i: f"p{i - 1}",
                 rows=lambda ids, k: (_span(1, k - 1), 0), analytics=analytics)


def _rn_infinity_bot() -> Poset:
    # bot is at index 1, the maxima p0 and p1 at indices 2 and 3
    analytics = Analytics(
        maximal=lambda poset, h: 0b1100 & poset.prefix_mask(h),
        **_BOTTOM_AT_1, **_LADDER_CHAINS,
    )
    # bot, at index 1, lies below everything
    return Poset("rn-infinity-bot",
                 gen=lambda i: "bot" if i == 1 else f"p{i - 2}",
                 rows=lambda ids, k: (_span(2, k - 1), 2), analytics=analytics)


def _rn_finite(m: int, extra: int) -> Poset:
    ids = [f"p{k}" for k in range(m + 1)]
    if extra:
        ids.append(f"p{m + 2}")
    name = f"rn({m},{extra})"
    # the adjoined p_{m+2}, at index m + 2, lies below p_0..p_m
    return Poset(name, ids=ids, rows=lambda _, k: (
        _span(1, k if k == m + 2 else k - 1), 0))


# ----------------------------------------------------------------------
# dyadic rationals in [0,1], ordered as numbers

def _dyadic_walk(k: int) -> tuple[list[tuple[int, int]], int, int]:
    """(start, den) of each group before index k >= 3, and k's numerator and
    denominator: group den holds den - 1, den - 3, ..., 1 from den // 2 + 2."""
    groups, den = [], 2
    while k >= den + 2:
        groups.append((den // 2 + 2, den))
        den *= 2
    return groups, den - 1 - 2 * (k - den // 2 - 2), den


def _dyadic_id(i: int) -> str:
    # 0, 1, then each denominator group with numerators descending
    if i <= 2:
        return str(i - 1)
    _, num, den = _dyadic_walk(i)
    return f"{num}/{den}"


def _dyadic_rows(ids: list[str], k: int) -> tuple[int, int]:
    # "0" and "1" lie below and above everything; in an older group g, the
    # first (g - num * g // den) // 2 numerators lie above num / den
    if k <= 2:
        return 0, 2
    older, num, den = _dyadic_walk(k)
    above, below = 4 | _span(den // 2 + 2, k), 2
    for start, g in older:
        cut = start + (g - num * g // den) // 2
        above |= _span(start, cut)
        below |= _span(cut, start + g // 2)
    return above, below


def _dyadic_value(i: int) -> "Fraction":
    """The number at enumeration index i."""
    from fractions import Fraction
    if i <= 2:
        return Fraction(i - 1)
    _, num, den = _dyadic_walk(i)
    return Fraction(num, den)


def _dyadic_limit_display(chain: tuple[int, ...]) -> Optional[str]:
    """Exact limit of a geometric ascent, given by enumeration indices;
    None when no pattern fits."""
    if len(chain) < 3:
        return None
    vs = list(map(_dyadic_value, chain))
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
        return tuple(f"{(4 ** k - 1) // 3}/{4 ** k}" for k in range(1, 6))

    # "0", the bottom, is at index 1 and "1", the top, at index 2
    analytics = Analytics(
        maximal=lambda poset, h: 0b100 & poset.prefix_mask(h),
        acc=False,
        omega_complete=False,
        omega_note="chains approaching a non-dyadic value have no least upper bound",
        omega_witness=thirds_chain,
        limit_display=_dyadic_limit_display,
        **_BOTTOM_AT_1,
    )
    return Poset("dyadic", gen=_dyadic_id, rows=_dyadic_rows,
                 analytics=analytics)


# ----------------------------------------------------------------------
# fan: one top above an infinite antichain of minimal elements

def _ziegler_fan() -> Poset:
    # the hub q is at index 1
    def foundation(poset: Poset, q: int, horizon: int) -> FoundationResult:
        if q & 2:
            return FoundationResult(
                REFUTED,
                note="everything sits below the hub, so a foundation "
                     "would need all infinitely many minimal elements")
        return FoundationResult(FOUND, q,
                                note="minimal elements found themselves")

    analytics = Analytics(
        minimal=lambda poset, h: poset.prefix_mask(h) & ~2,
        maximal=lambda poset, h: 2,
        acc=True,
        acc_note="chains have at most two elements",
        omega_complete=True,
        omega_note="ascending sequences stabilize at a minimal element or the hub",
        foundation=foundation,
    )
    # every m_i lies below the hub q, at index 1
    return Poset("ziegler-fan", gen=lambda i: "q" if i == 1 else f"m{i - 1}",
                 rows=lambda ids, k: (2, 0), analytics=analytics)


_BUILDERS = {"omega-chain": _omega_chain, "omega-antichain": _omega_antichain,
             "rn-infinity": _rn_infinity, "rn-infinity-bot": _rn_infinity_bot,
             "dyadic": _dyadic, "ziegler-fan": _ziegler_fan}
