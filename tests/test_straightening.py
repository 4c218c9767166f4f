import random
from fractions import Fraction

import pytest

from graphinv.errors import (
    DegreeMismatch,
    MalformedInput,
    NonContiguousClump,
    SharedEndpoint,
    VertexCountMismatch,
)
from graphinv.evaluation import Configuration, evaluate, evaluate_combination
from graphinv.graphs import Graph, canonicalize
from graphinv.straightening import (
    GraphCombination,
    adjacent_clumps,
    clump_map,
    combination_from_json,
    combination_to_json,
    plucker_exchange,
    straighten,
    straighten_graph,
)


def random_graph(rng, n, max_edges=7):
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        t, h = rng.sample(range(1, n + 1), 2)
        edges.append((t, h))
    return Graph(n, edges)


def configs_for(n):
    base = [
        list(range(n)),
        [x * x + 1 for x in range(n)],
        [-3, 5, 2, 11, -7, 13, 17, -19, 23, 4][:n],
    ]
    return [Configuration.from_affine(vals) for vals in base]


def test_combination_canonicalizes_keys():
    g = Graph(4, [(3, 1), (2, 4)])
    comb = GraphCombination(4, {g: Fraction(5)})
    (key, coeff), = comb.terms.items()
    assert key.edges == ((1, 3), (2, 4))
    assert coeff == -5  # one flip folded into the coefficient


def test_combination_drops_zeros_and_merges():
    a = Graph(4, [(1, 2), (3, 4)])
    b = Graph(4, [(2, 1), (3, 4)])  # same canonical graph, opposite sign
    comb = GraphCombination(4, {})
    assert comb.is_zero
    assert (GraphCombination.from_graph(a) + GraphCombination.from_graph(b)).is_zero


def test_combination_requires_homogeneous():
    with pytest.raises(DegreeMismatch):
        GraphCombination(4, {Graph(4, [(1, 2)]): Fraction(1), Graph(4, [(1, 2), (3, 4)]): Fraction(1)})
    with pytest.raises(VertexCountMismatch):
        GraphCombination(4, {Graph(6, [(1, 2)]): Fraction(1)})


def test_combination_algebra():
    a = GraphCombination.from_graph(Graph(4, [(1, 2), (3, 4)]))
    b = GraphCombination.from_graph(Graph(4, [(1, 4), (2, 3)]))
    s = a + b
    assert 2 * a - a == a
    assert (a - a).is_zero
    assert (-a) + a == GraphCombination.zero(4)
    assert s - b == a
    assert 3 * s == 3 * a + 3 * b


def test_plucker_exchange_crossing_case():
    g = Graph(4, [(1, 3), (2, 4)])
    out = plucker_exchange(g, 0, 1)
    want = {
        Graph(4, [(1, 2), (3, 4)]): Fraction(1),
        Graph(4, [(1, 4), (2, 3)]): Fraction(1),
    }
    assert out.terms == want


def test_plucker_exchange_noncrossing_cases():
    g = Graph(4, [(1, 2), (3, 4)])
    out = plucker_exchange(g, 0, 1)
    assert out.terms == {
        Graph(4, [(1, 3), (2, 4)]): Fraction(1),
        Graph(4, [(1, 4), (2, 3)]): Fraction(-1),
    }
    g = Graph(4, [(1, 4), (2, 3)])
    out = plucker_exchange(g, 0, 1)
    assert out.terms == {
        Graph(4, [(1, 3), (2, 4)]): Fraction(1),
        Graph(4, [(1, 2), (3, 4)]): Fraction(-1),
    }


def test_plucker_exchange_is_evaluation_sound():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.choice([4, 5, 6, 8])
        g = random_graph(rng, n)
        idx = [
            (i, j)
            for i in range(len(g.edges))
            for j in range(i + 1, len(g.edges))
            if len(set(g.edges[i]) | set(g.edges[j])) == 4
        ]
        if not idx:
            continue
        e1, e2 = rng.choice(idx)
        out = plucker_exchange(g, e1, e2)
        for c in configs_for(n):
            assert evaluate(g, c) == evaluate_combination(out, c)


def test_plucker_exchange_shared_endpoint():
    g = Graph(4, [(1, 2), (2, 3)])
    with pytest.raises(SharedEndpoint):
        plucker_exchange(g, 0, 1)


def test_straighten_pinned_crossing_matching():
    s = straighten_graph(Graph(4, [(1, 3), (2, 4)]))
    assert s.terms == {
        Graph(4, [(1, 2), (3, 4)]): Fraction(1),
        Graph(4, [(1, 4), (2, 3)]): Fraction(1),
    }


def test_straighten_three_chord_star():
    # all three long chords of the hexagon pairwise cross
    s = straighten_graph(Graph(6, [(1, 4), (2, 5), (3, 6)]))
    assert all(g.is_noncrossing() for g in s.terms)
    for c in configs_for(6):
        assert evaluate_combination(s, c) == evaluate(Graph(6, [(1, 4), (2, 5), (3, 6)]), c)


def test_straighten_fixes_noncrossing():
    g = Graph(6, [(1, 2), (3, 4), (5, 6)])
    assert straighten_graph(g).terms == {g: Fraction(1)}


def test_straighten_respects_orientation_sign():
    g = Graph(4, [(3, 1), (2, 4)])  # one flip from canonical
    s = straighten_graph(g)
    assert s.terms == {
        Graph(4, [(1, 2), (3, 4)]): Fraction(-1),
        Graph(4, [(1, 4), (2, 3)]): Fraction(-1),
    }


def test_straighten_soundness_random():
    rng = random.Random(431)
    for _ in range(150):
        n = rng.choice([4, 5, 6, 7, 8])
        g = random_graph(rng, n)
        s = straighten_graph(g)
        assert all(h.is_noncrossing() for h in s.terms)
        assert all(h.multidegree() == g.multidegree() for h in s.terms)
        for c in configs_for(n):
            assert evaluate(g, c) == evaluate_combination(s, c)


def test_straighten_is_linear_and_idempotent():
    g1 = Graph(6, [(1, 4), (2, 5), (3, 6)])
    g2 = Graph(6, [(1, 3), (2, 5), (4, 6)])
    comb = 2 * GraphCombination.from_graph(g1) - 5 * GraphCombination.from_graph(g2)
    s = straighten(comb)
    assert s == 2 * straighten_graph(g1) - 5 * straighten_graph(g2)
    assert straighten(s) == s


def test_straighten_integer_coefficients_on_integer_input():
    rng = random.Random(88)
    for _ in range(50):
        g = random_graph(rng, 6)
        for coeff in straighten_graph(g).terms.values():
            assert coeff.denominator == 1


def test_adjacent_clumps():
    assert adjacent_clumps((2, 1, 1)) == [[1, 2], [3], [4]]
    assert adjacent_clumps((1, 1)) == [[1], [2]]
    with pytest.raises(ValueError):
        adjacent_clumps((2, 0))


def test_clump_map_examples():
    clumps = [[1, 2], [3], [4]]
    g = GraphCombination.from_graph(Graph(4, [(1, 3), (2, 4)]))
    out = clump_map(g, clumps)
    assert out.terms == {Graph(3, [(1, 2), (1, 3)]): Fraction(1)}
    # loop inside the first clump kills the term
    dead = clump_map(GraphCombination.from_graph(Graph(4, [(1, 2), (3, 4)])), clumps)
    assert dead.is_zero
    # identity clumping
    same = clump_map(g, [[1], [2], [3], [4]])
    assert same == g


def test_clump_map_degree_bookkeeping():
    g = GraphCombination.from_graph(Graph(4, [(1, 3), (2, 4)]))
    out = clump_map(g, [[1, 2], [3], [4]])
    assert out.degree == (2, 1, 1)


def test_clump_map_rejects_non_contiguous():
    g = GraphCombination.from_graph(Graph(4, [(1, 3), (2, 4)]))
    with pytest.raises(NonContiguousClump):
        clump_map(g, [[1, 3], [2], [4]])
    with pytest.raises(NonContiguousClump):
        clump_map(g, [[1, 2], [3]])
    # an empty clump would be a vertex of degree 0
    with pytest.raises(NonContiguousClump):
        clump_map(g, [[1, 2], [], [3], [4]])


def test_combination_json_round_trip():
    s = straighten_graph(Graph(4, [(1, 3), (2, 4)]))
    j = combination_to_json(s)
    assert j["n"] == 4
    assert j["degree"] == [1, 1, 1, 1]
    assert combination_from_json(j) == s
    half = Fraction(1, 2) * s
    assert combination_from_json(combination_to_json(half)) == half


@pytest.mark.parametrize(
    "doc",
    [
        [1],
        {"n": 4},
        {"n": "4", "terms": []},
        {"n": 4, "terms": "x"},
        {"n": 4, "terms": [{"coeff": "1"}]},
        {"n": 4, "terms": [{"edges": [[1, 3], [2, 4]]}]},
        {"n": 4, "terms": [{"coeff": "x", "edges": [[1, 3], [2, 4]]}]},
        {"n": 4, "terms": [{"coeff": "1", "edges": [[1, "3"], [2, 4]]}]},
        {"n": 4, "terms": [], "degree": 4},
    ],
)
def test_combination_from_json_rejects_malformed(doc):
    with pytest.raises(MalformedInput):
        combination_from_json(doc)
