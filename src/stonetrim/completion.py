"""Chain completion of a poset at a finite horizon.

The completed carrier holds one element per base element (its principal
down-set) plus limit tokens for open-ended ascending chains that have no
upper bound in the seen prefix.  Tokens are canonicalized by their descriptor
(the union of the down-sets of the chain members) restricted to the horizon;
two generating chains receive one token exactly when they interleave.
"""
from __future__ import annotations

from typing import Iterable

from ._record import Frozen
from .poset import Poset, axiom_problems, bits, covers_of


class CompletionError(ValueError):
    """Bad generating sequence or unusable horizon."""


class CompletionElement(Frozen):
    """A carrier element: an embedded base element or a limit token.

    kind is "base" or "limit"; ref is the base id, or the canonical token
    name; descriptor holds the prefix elements below the element."""

    __slots__ = _compare = ("kind", "ref", "descriptor", "display")

    def __init__(self, kind: str, ref: str, descriptor: frozenset,
                 display: str = ""):
        self._fill(kind, ref, descriptor, display)

    @property
    def is_limit(self) -> bool:
        return self.kind == "limit"

    def serialize(self) -> dict:
        out = {"kind": self.kind, "ref": self.ref,
               "descriptor": sorted(self.descriptor)}
        if self.display:
            out["display"] = self.display
        return out


def token_name(chain: Iterable[str]) -> str:
    return "lim(" + ",".join(chain) + ")"


def chain_closure(poset: Poset, seq: Iterable[str], horizon: int) -> frozenset:
    """Prefix elements below some member of an ascending sequence."""
    seq = list(seq)
    if not seq:
        raise CompletionError("empty sequence has no closure")
    for a, b in zip(seq, seq[1:]):
        if not poset.leq(a, b):
            raise CompletionError(f"sequence not ascending at {a!r}, {b!r}")
    return poset.down_closure(seq, horizon)


class CompletedPoset:
    """Carrier of the chain completion seen through a horizon prefix."""

    def __init__(self, poset: Poset, horizon: int,
                 elements: list[CompletionElement]):
        self.poset = poset
        self.horizon = horizon
        self.elements = elements

    def tokens(self) -> list[CompletionElement]:
        return [e for e in self.elements if e.is_limit]

    def leq(self, x: CompletionElement, y: CompletionElement) -> bool:
        """Order on the carrier.

        Base-base follows the poset; a base sits below a token when the
        token's generating chain dominates it; tokens never sit below bases,
        and token-token order is descriptor inclusion.
        """
        if not x.is_limit and not y.is_limit:
            return self.poset.leq(x.ref, y.ref)
        if not x.is_limit and y.is_limit:
            return x.ref in y.descriptor
        if x.is_limit and not y.is_limit:
            return False
        return x.descriptor <= y.descriptor

    def _rows(self) -> list[int]:
        """Carrier up-set rows: bit j of row i is set iff els[i] <= els[j].
        Between base elements the bits come from the poset's up-set rows;
        only pairs with a token go through ``leq``."""
        els, poset = self.elements, self.poset
        # the carrier position of each base element's enumeration index
        at = {poset.index(x.ref): j for j, x in enumerate(els)
              if not x.is_limit}
        base = sum(1 << k for k in at)
        tokens = [(j, y) for j, y in enumerate(els) if y.is_limit]
        rows = []
        for x in els:
            if x.is_limit:
                rows.append(sum(1 << j for j, y in enumerate(els)
                                if self.leq(x, y)))
                continue
            up = poset.up_mask(poset.index(x.ref)) & base
            rows.append(sum(1 << at[k] for k in bits(up))
                        | sum(1 << j for j, y in tokens if self.leq(x, y)))
        return rows

    def verify(self) -> list[str]:
        """Bounded checks: order axioms on the carrier, unique suprema for
        token-generating chains, and density of tokens over their chains."""
        els, up = self.elements, self._rows()
        problems = [f"not reflexive at {x.ref}"
                    for i, x in enumerate(els) if not up[i] >> i & 1]
        problems += axiom_problems(up, [x.ref for x in els])
        at = {x.ref: i for i, x in enumerate(els)}
        for t, tok in enumerate(els):
            if not tok.is_limit:
                continue
            # at a finite horizon the truncated chain still has a top inside
            # the descriptor, so bounds are compared outside it
            desc = tok.descriptor
            ubs = sum(1 << u for u, x in enumerate(els)
                      if x.is_limit or x.ref not in desc)
            for c in desc:
                if c in at:
                    ubs &= up[at[c]]
            if [u for u in bits(ubs) if not ubs & ~up[u]] != [t]:
                problems.append(f"token {tok.ref} is not the unique sup of its chain")
            problems.extend(
                f"{r.ref} below token {tok.ref} but below no chain member"
                for r, row in zip(els, up)
                if not r.is_limit and row >> t & 1 and r.ref not in desc)
        return problems

    def to_json(self) -> dict:
        pre = self.poset.prefix(self.horizon)
        names = [e.ref for e in self.elements]
        return {"name": f"{self.poset.name}-completion",
                "elements": names,
                "covers": [list(c) for c in covers_of(self._rows(), names)],
                "tokens": [e.serialize() for e in self.tokens()],
                "horizon": self.horizon, "base": pre}


def complete_finite(poset: Poset) -> CompletedPoset:
    """Chain completion of a finite poset: an isomorphic copy of it.

    Every ascending sequence stabilizes, so each chain closure is the
    principal down-set of its maximum and no tokens appear.
    """
    if not poset.finite:
        raise CompletionError("complete_finite needs a finite poset")
    return complete_over(poset, (), poset.size)


def complete_over(poset: Poset, members: Iterable[str],
                  horizon: int) -> CompletedPoset:
    """Adjoin suprema of ascending sequences drawn from a subset.

    A chain's closure is the down-set of its top, so one token stands for
    every chain with the same top t: a member of the subset above some other
    member, with no strict upper bound in the prefix and not family-confirmed
    maximal.  It is named by the first maximal chain of the members below t
    in index order, and its descriptor is t's down-set.  Chains dominated
    inside the prefix keep their sups in the base.
    """
    pre = poset.prefix(horizon)
    sub = poset.mask_of(set(members) & set(pre))
    els = [CompletionElement("base", p, poset.down_set(p, horizon)) for p in pre]
    if poset.finite:
        return CompletedPoset(poset, horizon, els)

    a = poset.analytics
    confirmed_max = a.maximal(poset, horizon) if a.maximal else frozenset()
    display = a.limit_display or (lambda chain: "")
    inside, tokens = (1 << len(pre) + 1) - 2, []
    for t in bits(sub):
        if pre[t - 1] in confirmed_max or poset.up_mask(t) & inside != 1 << t:
            continue
        chain = poset._first_chain(sub & poset.lower_of(1 << t, horizon), 2)
        if chain is None:
            continue
        chain = tuple(pre[i - 1] for i in chain)
        tokens.append(CompletionElement("limit", token_name(chain),
                                        els[t - 1].descriptor,
                                        display(chain) or ""))
    els.extend(sorted(tokens, key=lambda tok: sorted(tok.descriptor)))
    return CompletedPoset(poset, horizon, els)
