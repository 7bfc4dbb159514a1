"""Acceptance suite: one test per criterion, one printed verdict line each."""
import random
import time

import pytest

from conftest import (all_chains, chain_ab_poset, descends_to, diamond_poset,
                      embed, random_poset, ref_carrier_leq, ref_down_mask,
                      two_chains_poset, vee_poset)
from stonetrim import (BuildConfig, RingElement, SymbolicSpace,
                       build_levels, check_identities, classify_algebra,
                       complete_finite, complete_over, e_of_p, family,
                       label_prefix, realize_chain, rieger_nishimura_run,
                       run_backforth, verify_structure, verify_type_axioms)

DEPTH = 6
DRAWS = 10_000

CONFIGS = [
    ("chain", chain_ab_poset, {}, "a"),
    ("vee", vee_poset, {}, "a"),
    ("diamond", diamond_poset, {}, "a"),
    ("rn(2,0)", lambda: family("rn(2,0)"), {}, "p1"),
    ("rn(2,2)", lambda: family("rn(2,2)"), {}, "p4"),
    ("rn-infinity", lambda: family("rn-infinity"), {"horizon": 8}, "p0"),
    ("omega-antichain", lambda: family("omega-antichain"),
     {"horizon": 8}, "a1"),
    ("ziegler-fan", lambda: family("ziegler-fan"), {"horizon": 8}, "m1"),
]


def verdict(num, ok, detail):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    records = []
    t0 = time.perf_counter()
    for name, maker, kw, singleton in CONFIGS:
        for iso in (frozenset(), frozenset({singleton})):
            cfg = BuildConfig(maker(), isolated=iso, **kw)
            tree = build_levels(cfg, DEPTH)
            tree.extend_to(DEPTH + 1)
            records.append({
                "name": name, "iso": iso, "tree": tree,
                "axioms": verify_type_axioms(tree, DEPTH, draws=DRAWS,
                                             seed=0),
                "structure": verify_structure(tree),
            })
    return {"records": records, "elapsed": time.perf_counter() - t0}


def test_criterion_1_type_axiom_suite(suite):
    bad = []
    for rec in suite["records"]:
        if not rec["axioms"]["passed"]:
            bad.append((rec["name"], sorted(rec["iso"]), "axioms"))
        if not rec["structure"].passed:
            bad.append((rec["name"], sorted(rec["iso"]), "structure"))
    elapsed = suite["elapsed"]
    verdict(1, not bad and elapsed <= 60,
            f"16 configs at depth {DEPTH}, {DRAWS} draws each, "
            f"failures {bad or 'none'}, {elapsed:.1f}s (limit 60s)")


def test_criterion_2_upper_set_law(suite):
    violations = 0
    for rec in suite["records"]:
        violations += rec["axioms"]["axioms"]["upward-closed"]["violations"]
        tree = rec["tree"]
        poset = tree.poset
        h = tree.config.type_cap(DEPTH)
        pre = poset.prefix(h)
        for n in (1, 2, 3):
            for i in range(len(tree.level(n))):
                members = poset.ids_of(
                    poset.upper_of(RingElement.atom(tree, n, i).type_of())
                    & poset.prefix_mask(h))
                for q in members:
                    violations += sum(1 for r in pre
                                      if poset.leq(q, r)
                                      and r not in members)
    verdict(2, violations == 0,
            f"sampled and per-atom upper-set checks, "
            f"{violations} violations")


def test_criterion_3_isolation_counts(suite):
    single_checked = pair_checked = 0
    bad = []
    for rec in suite["records"]:
        tree = rec["tree"]
        poset = tree.poset
        iso_ix = {poset.index(g) for g in rec["iso"]}
        minimal = poset.confirmed_minimal(tree.config.type_cap(DEPTH))
        for g in rec["iso"]:
            g_ix = poset.index(g)
            if not minimal >> g_ix & 1:
                continue
            for n in range(g_ix, DEPTH + 1):
                lvl = tree.level(n)
                c = sum(1 for t in lvl.types if t == g_ix)
                single_checked += 1
                if c != 1:
                    bad.append(f"{rec['name']}: {c} nodes of {g} at {n}")
        for n in range(1, DEPTH):
            lvl = tree.level(n)
            nxt = tree.level(n + 1)
            for i, t in enumerate(lvl.types):
                if t in iso_ix:
                    continue
                s, e = tree.children_span(n, i)
                same = sum(1 for j in range(s, e) if nxt.types[j] == t)
                pair_checked += 1
                if same != 2:
                    bad.append(f"{rec['name']}: node {n}.{i} has {same} "
                               f"continuation children")
    verdict(3, not bad,
            f"{single_checked} single-line and {pair_checked} twin-child "
            f"counts exact, deviations {bad or 'none'}")


def test_criterion_4_compactness_encodings():
    cfg = BuildConfig(chain_ab_poset(), bounded={"a"}, noncompact={"b"})
    tree = build_levels(cfg, DEPTH)
    sizes = [len(tree.level(n)) for n in range(1, DEPTH + 1)]
    ok = sizes == [1, 3, 9, 23, 55, 127]
    for n in range(3, DEPTH + 1):
        lvl = tree.level(n)
        u_b = sum(1 for i in range(lvl.u_start, len(lvl))
                  if lvl.types[i] == 2)
        ok = ok and u_b >= 1
    descend_checked = 0
    for n in range(1, DEPTH + 1):
        lvl = tree.level(n)
        for i, t in enumerate(lvl.types):
            if t == 1:
                descend_checked += 1
                ok = ok and descends_to(tree, n, i, 1)
    q_lower = tree.poset.mask_of({"a"})
    ok = ok and verify_structure(tree, q_lower=q_lower).passed
    verdict(4, ok,
            f"unattached type-b supply on levels 3..{DEPTH}, sizes {sizes}, "
            f"{descend_checked} covered nodes descend to the level-1 cover")


def test_criterion_5_back_and_forth():
    t0 = time.perf_counter()
    ok = True
    details = []
    for seed in range(5):
        left = build_levels(BuildConfig(chain_ab_poset(),
                                        isolated={"a"}), DEPTH)
        right = build_levels(BuildConfig(chain_ab_poset(),
                                         isolated={"a"}), DEPTH)
        run = run_backforth(left, right, seed=seed)
        good = (run.status == "iso" and run.coverage
                and not run.invariant_failures)
        ok = ok and good
        details.append(f"seed {seed}: {run.status}/{run.pairs} pairs")
    left = build_levels(BuildConfig(chain_ab_poset(), isolated={"a"}), DEPTH)
    right = build_levels(BuildConfig(chain_ab_poset()), DEPTH)
    run = run_backforth(left, right)
    w = run.witness
    witness_ok = (run.status == "mismatch" and w is not None
                  and w.side == "left" and w.type_id == "a"
                  and w.needed == 2 and w.available == 1
                  and "isolated" in w.reason)
    elapsed = time.perf_counter() - t0
    verdict(5, ok and witness_ok and elapsed <= 30,
            f"{'; '.join(details)}; isolation mismatch witness "
            f"needed={w.needed} available={w.available}; "
            f"{elapsed:.1f}s (limit 30s)")


def test_criterion_6_chain_completion():
    rng = random.Random(97)
    for trial in range(100):
        p = random_poset(rng, name=f"random{trial}")
        n = p.size
        c = complete_finite(p)
        closures = {ref_down_mask(p, ch, n) for ch in all_chains(p)}
        assert closures == {e.descriptor for e in c.elements}
        assert len(c.elements) == n
        assert c.tokens() == []
        for a in p.prefix(n):
            for b in p.prefix(n):
                assert (ref_carrier_leq(embed(c, a), embed(c, b))
                        == p.leq(a, b))
    omega = family("omega-chain")
    full = complete_over(omega, omega.prefix_mask(8), 8)
    assert len(full.tokens()) == 1
    assert len(full.elements) == 8 + 1
    pair = two_chains_poset()
    double = complete_over(pair, pair.prefix_mask(8), 8)
    assert len(double.tokens()) == 2
    verdict(6, True,
            "100 random posets match the brute-force chain-closure oracle; "
            "omega-chain gains one token, two disjoint chains gain two")


def test_criterion_7_rieger_nishimura():
    t0 = time.perf_counter()
    ran = 0
    for m in range(11):
        for variant in (0, 2):
            tag = f"rn({m},{variant})"
            space = SymbolicSpace(family(tag))
            trace = rieger_nishimura_run(space, space.fin({"p0"}))
            assert check_identities(trace) == []
            cls = classify_algebra(trace)
            assert (cls.case, cls.name) == (1 if variant == 0 else 2,
                                            f"P({m},{variant})")
            for k in range(trace.n_ran + 1):
                if trace.b[k]:
                    assert trace.b[k].ids == {f"p{k}"}
            gen = e_of_p(space)
            assert gen["holds"] is True and gen["checked"] == m
            ran += 1
    for tag, want_case in (("rn-infinity", 3), ("rn-infinity-bot", 4)):
        space = SymbolicSpace(family(tag))
        trace = rieger_nishimura_run(space, space.fin({"p0"}), max_n=30)
        assert check_identities(trace) == []
        assert classify_algebra(trace).case == want_case
        for k in range(trace.n_ran + 1):
            assert trace.b[k].ids == {f"p{k}"}
        gen = e_of_p(space)
        assert gen["holds"] is True and gen["checked"] == 11
        ran += 1
    elapsed = time.perf_counter() - t0
    verdict(7, elapsed <= 5,
            f"{ran} families: identities, classifications, singleton "
            f"layers and generator checks exact, {elapsed:.1f}s (limit 5s)")


def test_criterion_8_dyadic_demo():
    tree = build_levels(BuildConfig(family("dyadic")), DEPTH)
    tree.extend_to(DEPTH + 1)
    axioms = verify_type_axioms(tree, DEPTH, draws=DRAWS, seed=0)
    path = realize_chain(tree, ["1/2", "3/4", "7/8"])
    lab = label_prefix(path)
    verdict(8, axioms["passed"] and lab.kind == "limit"
            and lab.value == "lim→1⁻",
            f"axiom suite {'clean' if axioms['passed'] else 'dirty'}; "
            f"1/2 < 3/4 < 7/8 labels as {lab.kind} {lab.value}")
