"""Chain completion: closures, limit tokens, and the finite case."""
import random

import pytest

from conftest import all_chains, embed, random_poset, two_chains_poset
from stonetrim import (CompletionError, Poset, chain_closure,
                       complete_finite, complete_over, family, token_name)


def weave_poset():
    """w_i below w_j exactly when i <= j - 2, so chains step by two."""
    return Poset.generated(
        "weave", lambda i: f"w{i}",
        lambda a, b: a == b or int(a[1:]) <= int(b[1:]) - 2)


class TestChainClosure:
    def test_down_closure_of_the_members(self):
        p = family("omega-chain")
        p.prefix(6)
        assert chain_closure(p, ["p1", "p3"], 6) == {"p1", "p2", "p3"}

    def test_empty_sequence_rejected(self, diamond):
        with pytest.raises(CompletionError, match="empty sequence"):
            chain_closure(diamond, [], 4)

    def test_non_ascending_rejected(self, diamond):
        with pytest.raises(CompletionError, match="not ascending"):
            chain_closure(diamond, ["d", "a"], 4)

    def test_interleaving_chains_share_a_closure(self):
        p = weave_poset()
        p.prefix(8)
        full = chain_closure(p, ["w1", "w3", "w5", "w7"], 8)
        tail = chain_closure(p, ["w3", "w5", "w7"], 8)
        assert full == tail == {"w1", "w2", "w3", "w4", "w5", "w7"}

    def test_token_name(self):
        assert token_name(["p1", "p2"]) == "lim(p1,p2)"


class TestCompleteFinite:
    def test_needs_a_finite_poset(self):
        with pytest.raises(CompletionError, match="finite"):
            complete_finite(family("omega-chain"))
        gen = Poset.generated("g", lambda i: f"n{i}", lambda a, b: a == b)
        with pytest.raises(CompletionError):
            complete_finite(gen)

    def test_isomorphic_copy_no_tokens(self, diamond):
        c = complete_finite(diamond)
        assert len(c.elements) == 4
        assert c.tokens() == []
        assert c.verify() == []
        for a in diamond.prefix(4):
            for b in diamond.prefix(4):
                assert c.leq(embed(c, a), embed(c, b)) == diamond.leq(a, b)

    def test_descriptors_are_the_chain_closures(self):
        rng = random.Random(12345)
        for _ in range(20):
            p = random_poset(rng)
            n = p.size
            c = complete_finite(p)
            closures = {p.down_closure(ch, n) for ch in all_chains(p)}
            assert closures == {e.descriptor for e in c.elements}
            for a in p.prefix(n):
                for b in p.prefix(n):
                    assert c.leq(embed(c, a), embed(c, b)) == p.leq(a, b)
            assert c.tokens() == []


class TestCompleteOver:
    def test_omega_chain_gets_one_token(self):
        p = family("omega-chain")
        c = complete_over(p, p.prefix(8), 8)
        toks = c.tokens()
        assert len(toks) == 1
        assert len(c.elements) == 9
        assert toks[0].ref == "lim(p1,p2,p3,p4,p5,p6,p7,p8)"
        assert toks[0].descriptor == frozenset(p.prefix(8))
        assert c.verify() == []

    def test_two_disjoint_chains_get_two_tokens(self):
        p = two_chains_poset()
        c = complete_over(p, p.prefix(8), 8)
        assert [t.ref for t in c.tokens()] == ["lim(x1,x2,x3,x4)",
                                               "lim(y1,y2,y3,y4)"]
        assert c.verify() == []

    def test_interleaving_chains_deduplicate(self):
        p = weave_poset()
        c = complete_over(p, p.prefix(8), 8)
        descs = sorted(sorted(t.descriptor) for t in c.tokens())
        assert descs == [["w1", "w2", "w3", "w4", "w5", "w6", "w8"],
                         ["w1", "w2", "w3", "w4", "w5", "w7"]]
        assert c.verify() == []

    def test_finite_poset_keeps_its_sups(self, diamond):
        c = complete_over(diamond, diamond.prefix(4), 4)
        assert c.tokens() == []
        assert len(c.elements) == 4

    def test_carrier_order(self):
        p = two_chains_poset()
        c = complete_over(p, p.prefix(8), 8)
        xt, yt = c.tokens()
        assert c.leq(embed(c, "x2"), xt)
        assert not c.leq(embed(c, "y1"), xt)
        assert not c.leq(xt, embed(c, "x4"))
        assert not c.leq(xt, yt) and not c.leq(yt, xt)

    def test_to_json_shape(self):
        p = two_chains_poset()
        doc = complete_over(p, p.prefix(8), 8).to_json()
        assert sorted(doc) == ["base", "covers", "elements", "horizon",
                               "name", "tokens"]
        assert doc["name"] == "two-chains-completion"
        assert doc["horizon"] == 8
        tok = doc["tokens"][0]
        assert tok["kind"] == "limit"
        assert tok["ref"] == "lim(x1,x2,x3,x4)"
        assert tok["descriptor"] == ["x1", "x2", "x3", "x4"]
        assert ["x4", "lim(x1,x2,x3,x4)"] in doc["covers"]
