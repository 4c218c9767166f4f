"""Straightening on many vertices, where a float chord order cannot tell
an exchange's children from their parent: pinned two-term results, and
seeded few-edge graphs checked against exact evaluation."""

import random
from fractions import Fraction

import pytest

from graphinv.evaluation import evaluate, evaluate_combination, random_stable_configuration
from graphinv.graphs import Graph, canonicalize, crossing_pairs
from graphinv.straightening import GraphCombination, straighten, straighten_graph

# one crossing pair and its two non-crossing children
PAIRS = (
    ([(1, 3), (2, 4)], [[(1, 2), (3, 4)], [(1, 4), (2, 3)]]),
    ([(1, 4), (2, 5)], [[(1, 2), (4, 5)], [(1, 5), (2, 4)]]),
)


@pytest.mark.parametrize("n", [4000, 10000, 100000])
@pytest.mark.parametrize("edges, children", PAIRS)
def test_one_crossing_pair_straightens_to_its_two_children(n, edges, children):
    g = Graph(n, edges)
    want = {Graph(n, es): 1 for es in children}
    got = straighten_graph(g)
    assert got.terms == want and all(type(k) is int for k in got.terms.values())
    assert got.degree == g.multidegree()
    flipped = Graph(n, [edges[0][::-1], edges[1]])
    assert straighten_graph(flipped).terms == {h: -1 for h in want}
    comb = GraphCombination(n, {g: Fraction(-2, 3), flipped: 5})
    assert straighten(comb).terms == {h: Fraction(-17, 3) for h in want}


def clustered_graph(rng, n):
    """At most 8 edges on n vertices, their endpoints in three narrow
    windows, so that the edges often cross; random orientations."""
    windows = [rng.randint(1, n - 5) for _ in range(3)]
    edges = []
    for _ in range(rng.randint(2, 8)):
        t, h = (rng.choice(windows) + rng.randint(0, 5) for _ in range(2))
        if t != h:
            edges.append((t, h))
    return Graph(n, edges or [(1, n)])


@pytest.mark.parametrize("n", [5000, 25000, 100000])
def test_clustered_graphs_match_the_evaluation_oracle(n):
    rng = random.Random(n)
    c = random_stable_configuration((1,) * n, seed=n)
    crossing = 0
    for _ in range(25):
        g = clustered_graph(rng, n)
        crossing += bool(crossing_pairs(canonicalize(g)[0]))
        got = straighten_graph(g)
        assert all(h.is_noncrossing() for h in got.terms) and got.degree == g.multidegree()
        assert evaluate_combination(got, c) == evaluate(g, c), g
    assert crossing >= 10
