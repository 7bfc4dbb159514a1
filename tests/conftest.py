"""Shared fixtures and brute-force oracles for the test suite."""
import random

import pytest

from stonetrim import Poset


def chain_ab_poset() -> Poset:
    return Poset.from_covers("chain", ["a", "b"], [("a", "b")])


def vee_poset() -> Poset:
    return Poset.from_covers("vee", ["a", "b", "c"], [("a", "b"), ("a", "c")])


def diamond_poset() -> Poset:
    return Poset.from_covers("diamond", ["a", "b", "c", "d"],
                             [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@pytest.fixture
def chain_ab():
    return chain_ab_poset()


@pytest.fixture
def vee():
    return vee_poset()


@pytest.fixture
def diamond():
    return diamond_poset()


def random_poset(rng: random.Random, max_size: int = 6,
                 name: str = "random") -> Poset:
    """Random finite poset: strict pairs sampled over a fixed topological order."""
    n = rng.randint(1, max_size)
    ids = [f"e{k}" for k in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return Poset.from_covers(name, ids, pairs)


def all_chains(poset: Poset) -> list[tuple[str, ...]]:
    """Every nonempty chain of a finite poset, listed bottom to top."""
    ids = poset.prefix(poset.size)
    # sort by how much sits strictly below; a chain read upward is then a
    # subsequence of this listing, so each chain is produced exactly once
    topo = sorted(ids, key=lambda p: (sum(poset.lt(q, p) for q in ids),
                                      poset.index(p)))
    out: list[tuple[str, ...]] = []

    def grow(chain: list[str], rest: list[str]) -> None:
        out.append(tuple(chain))
        for k, y in enumerate(rest):
            if poset.lt(chain[-1], y):
                grow(chain + [y], rest[k + 1:])

    for k, x in enumerate(topo):
        grow([x], topo[k + 1:])
    return out


def two_chains_poset() -> Poset:
    """Two disjoint ascending chains x1 < x2 < ... and y1 < y2 < ..."""
    def gen(i: int) -> str:
        k = (i + 1) // 2
        return f"x{k}" if i % 2 else f"y{k}"

    def leq(a: str, b: str) -> bool:
        return a[0] == b[0] and int(a[1:]) <= int(b[1:])

    return Poset.generated("two-chains", gen, leq)


def children(tree, n: int, i: int) -> list:
    """Node views of the children of node (n, i), in index order."""
    start, end = tree.children_span(n, i)
    return [tree.node(n + 1, j) for j in range(start, end)]
