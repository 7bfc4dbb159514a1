"""Chain completion of a poset at a finite horizon.

The completed carrier holds one element per base element (its principal
down-set) plus limit tokens for open-ended ascending chains that have no
upper bound in the seen prefix.  Every element carries its descriptor, its
down-set in the prefix as a mask over enumeration indices, and the carrier
order is descriptor inclusion (no token lies below a base element).  Tokens
are canonicalized by their descriptor (the union of the down-sets of the
chain members); two generating chains receive one token exactly when they
interleave.
"""
from __future__ import annotations

from typing import Iterable

from ._record import Frozen
from .poset import Poset, bits


class CompletionError(ValueError):
    """Bad generating sequence or unusable horizon."""


class CompletionElement(Frozen):
    """A carrier element: an embedded base element or a limit token.

    kind is "base" or "limit"; ref is the base id, or the canonical token
    name; descriptor masks the prefix elements below the element."""

    __slots__ = _compare = ("kind", "ref", "descriptor", "display")

    def __init__(self, kind: str, ref: str, descriptor: int,
                 display: str = ""):
        self._fill(kind, ref, descriptor, display)

    @property
    def is_limit(self) -> bool:
        return self.kind == "limit"


def token_name(chain: Iterable[str]) -> str:
    return "lim(" + ",".join(chain) + ")"


def chain_closure(poset: Poset, seq: Iterable[str], horizon: int) -> int:
    """Mask of the prefix elements below some member of an ascending
    sequence."""
    seq = list(seq)
    if not seq:
        raise CompletionError("empty sequence has no closure")
    for a, b in zip(seq, seq[1:]):
        if not poset.leq(a, b):
            raise CompletionError(f"sequence not ascending at {a!r}, {b!r}")
    return poset.lower_of(poset.mask_of(seq), horizon)


class CompletedPoset:
    """Carrier of the chain completion seen through a horizon prefix."""

    def __init__(self, poset: Poset, horizon: int,
                 elements: list[CompletionElement]):
        self.poset = poset
        self.horizon = horizon
        self.elements = elements

    def tokens(self) -> list[CompletionElement]:
        return [e for e in self.elements if e.is_limit]


def complete_finite(poset: Poset) -> CompletedPoset:
    """Chain completion of a finite poset: an isomorphic copy of it.

    Every ascending sequence stabilizes, so each chain closure is the
    principal down-set of its maximum and no tokens appear.
    """
    if not poset.finite:
        raise CompletionError("complete_finite needs a finite poset")
    return complete_over(poset, 0, poset.size)


def complete_over(poset: Poset, members: int,
                  horizon: int) -> CompletedPoset:
    """Adjoin suprema of ascending sequences drawn from a subset, given as
    an index mask.

    A chain's closure is the down-set of its top, so one token stands for
    every chain with the same top t: a member of the subset above some other
    member, with no strict upper bound in the prefix and not family-confirmed
    maximal.  It is named by the first maximal chain of the members below t
    in index order, and its descriptor is t's down-set.  Chains dominated
    inside the prefix keep their sups in the base.  Members past the
    horizon are dropped.
    """
    pre = poset.prefix(horizon)
    inside = poset.prefix_mask(horizon)
    sub = members & inside
    els = [CompletionElement("base", p, poset.lower_of(1 << i, horizon))
           for i, p in enumerate(pre, 1)]
    if poset.finite:
        return CompletedPoset(poset, horizon, els)

    a = poset.analytics
    confirmed_max = a.maximal(poset, horizon) if a.maximal else 0
    display = a.limit_display or (lambda chain: "")
    tokens = []
    for t in bits(sub & ~confirmed_max):
        if poset.up_mask(t) & inside != 1 << t:
            continue
        chain = poset._first_chain(sub & els[t - 1].descriptor, 2)
        if chain is None:
            continue
        tokens.append(CompletionElement(
            "limit", token_name(pre[i - 1] for i in chain),
            els[t - 1].descriptor, display(chain) or ""))
    els.extend(sorted(tokens,
                      key=lambda tok: sorted(poset.ids_of(tok.descriptor))))
    return CompletedPoset(poset, horizon, els)
