import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from graphinv.degree import degree_trace, is_boundary, moduli_degree
from graphinv.errors import (
    LengthMismatch,
    LoopEdge,
    MalformedInput,
    OddDegreeSum,
    OddVertexCount,
    VertexCountMismatch,
    VertexCountTooSmall,
    VertexOutOfRange,
)
from graphinv.evaluation import Configuration, random_stable_configuration, stability
from graphinv.graphs import (
    Graph,
    _weights,
    canonicalize,
    crossing_pairs,
    edges_cross,
    enumerate_matchings,
    enumerate_noncrossing,
    graph_from_json,
    graph_to_json,
    multiply,
    noncrossing_matchings,
)
from graphinv.kempe import lift_graph
from graphinv.straightening import adjacent_clumps

from graphs_reference import reference_enumerate_noncrossing


def geometric_cross(n, e, f):
    # independent oracle: do the two chords of the regular n-gon intersect
    # in their interiors?
    if set(e) & set(f):
        return False

    def pt(v):
        return (math.cos(2 * math.pi * v / n), math.sin(2 * math.pi * v / n))

    def orient(p, q, r):
        val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(val) < 1e-12 else (1 if val > 0 else -1)

    a, b = pt(e[0]), pt(e[1])
    c, d = pt(f[0]), pt(f[1])
    return orient(a, b, c) != orient(a, b, d) and orient(c, d, a) != orient(c, d, b)


def brute_force_noncrossing(n, degree):
    # independent oracle: distribute edge multiplicities over all vertex
    # pairs, keep realizations of the multidegree, filter crossings
    pairs = list(combinations_with_replacement(range(1, n + 1), 2))
    pairs = [(a, b) for a, b in pairs if a != b]
    total = sum(degree) // 2
    found = []

    def rec(idx, left, chosen):
        if sum(left) == 0:
            g = Graph(n, [p for p, m in chosen for _ in range(m)])
            if not crossing_pairs(g):
                found.append(g)
            return
        if idx == len(pairs):
            return
        a, b = pairs[idx]
        cap = min(left[a - 1], left[b - 1])
        for m in range(cap + 1):
            left[a - 1] -= m
            left[b - 1] -= m
            rec(idx + 1, left, chosen + [((a, b), m)] if m else chosen)
            left[a - 1] += m
            left[b - 1] += m

    rec(0, list(degree), [])
    return sorted(found)


def test_graph_validation():
    with pytest.raises(LoopEdge):
        Graph(4, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(4, [(1, 5)])
    with pytest.raises(ValueError):
        Graph(0)
    g = Graph(3, [(3, 1), (1, 2)])
    assert g.edges == ((3, 1), (1, 2))  # order and orientation preserved


def test_graph_equality_ignores_edge_order_but_not_orientation():
    assert Graph(4, [(1, 2), (3, 4)]) == Graph(4, [(3, 4), (1, 2)])
    assert Graph(4, [(2, 1)]) != Graph(4, [(1, 2)])
    assert hash(Graph(4, [(1, 2), (3, 4)])) == hash(Graph(4, [(3, 4), (1, 2)]))


def test_multidegree_and_regularity():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert g.multidegree() == (3, 1, 1, 1)
    assert g.regular_valence() is None
    cyc = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert cyc.regular_valence() == 2
    assert multiply(g, cyc).multidegree() == (5, 3, 3, 3)
    with pytest.raises(VertexCountMismatch):
        multiply(g, Graph(6))


def test_canonicalize_sign_counts_flips():
    g = Graph(4, [(3, 1), (2, 4)])
    cg, sign = canonicalize(g)
    assert cg.edges == ((1, 3), (2, 4))
    assert sign == -1
    g2 = Graph(4, [(3, 1), (4, 2)])
    assert canonicalize(g2).sign == 1
    assert canonicalize(canonicalize(g2).graph).sign == 1


def test_edges_cross_matches_geometry():
    rng = random.Random(71)
    for n in (4, 5, 6, 8, 9, 12):
        for _ in range(200):
            e = tuple(rng.sample(range(1, n + 1), 2))
            f = tuple(rng.sample(range(1, n + 1), 2))
            assert edges_cross(e, f) == geometric_cross(n, e, f), (n, e, f)


def test_crossing_pairs_indexes_in_lex_order():
    g = Graph(6, [(1, 4), (2, 5), (3, 6)])
    assert crossing_pairs(g) == [(0, 1), (0, 2), (1, 2)]
    assert Graph(6, [(1, 2), (3, 4), (5, 6)]).is_noncrossing()
    assert Graph(6, [(1, 4), (2, 3), (5, 6)]).is_noncrossing()
    assert not Graph(6, [(1, 4), (2, 5), (3, 6)]).is_noncrossing()


def test_enumerate_noncrossing_agrees_with_brute_force():
    cases = [
        (4, (1, 1, 1, 1)),
        (4, (2, 2, 2, 2)),
        (5, (2, 1, 1, 1, 1)),
        (5, (2, 2, 1, 2, 1)),
        (6, (1, 1, 1, 1, 1, 1)),
        (6, (2, 1, 1, 0, 1, 1)),
        (6, (2, 2, 2, 2, 2, 2)),
        (7, (2, 2, 2, 0, 2, 1, 1)),
    ]
    for n, w in cases:
        fast = enumerate_noncrossing(n, w)
        slow = brute_force_noncrossing(n, w)
        assert fast == slow, (n, w)
        assert all(g.multidegree() == w for g in fast)
        assert len(set(fast)) == len(fast)


def test_enumerate_noncrossing_counts():
    # Catalan numbers for perfect matchings
    for n, want in [(2, 1), (4, 2), (6, 5), (8, 14), (10, 42), (12, 132)]:
        assert len(enumerate_noncrossing(n, (1,) * n)) == want
    # Riordan numbers for 2-regular graphs: 1,0,1,1,3,6,15,36,91 from n=0
    riordan = {2: 1, 3: 1, 4: 3, 5: 6, 6: 15, 7: 36, 8: 91}
    for n, want in riordan.items():
        assert len(enumerate_noncrossing(n, (2,) * n)) == want, n


def test_enumerate_noncrossing_errors():
    with pytest.raises(LengthMismatch):
        enumerate_noncrossing(4, (1, 1, 1))
    with pytest.raises(OddDegreeSum):
        enumerate_noncrossing(4, (1, 1, 1, 0))
    assert enumerate_noncrossing(4, (0, 0, 0, 0)) == [Graph(4)]


def test_enumerate_matchings_double_factorial():
    for k, want in [(2, 1), (4, 3), (6, 15), (8, 105)]:
        assert len(enumerate_matchings(k)) == want
    sub = enumerate_matchings(6, vertices=[2, 3, 5, 6])
    assert len(sub) == 3
    assert all(m.n == 6 for m in sub)
    with pytest.raises(OddVertexCount):
        enumerate_matchings(3)


def test_noncrossing_matchings_sorted_lex():
    ms = noncrossing_matchings(6)
    assert len(ms) == 5
    assert ms == sorted(ms, key=lambda g: g.edges)
    assert ms[0].edges == ((1, 2), (3, 4), (5, 6))
    assert all(m.is_noncrossing() and m.is_matching() for m in ms)


def test_weight_vector():
    assert _weights((2, 1, 1)) == (2, 1, 1)
    assert _weights([1, 1]) == (1, 1)
    w = _weights(iter([3, True]))
    assert w == (3, 1) and all(type(x) is int for x in w)
    with pytest.raises(ValueError, match="weights must be positive integers"):
        _weights((1, 0))
    with pytest.raises(ValueError, match="weight vector may not be empty"):
        _weights(())
    for bad in [(1.5, 1.5, 1, 1), (2.0, 1, 1), ("2", 1, 1), (Fraction(2), 1, 1), (None,)]:
        with pytest.raises(TypeError):
            _weights(bad)


NON_INTEGRAL_INPUTS = [
    ("Graph edge", lambda: Graph(4, [(1.5, 3)])),
    ("Graph vertex count", lambda: Graph(4.7, [(1, 3)])),
    ("Graph string endpoint", lambda: Graph(4, [("1", 3)])),
    ("enumerate_noncrossing", lambda: enumerate_noncrossing(4, (1.9, 1, 1, 1))),
    ("noncrossing_matchings", lambda: noncrossing_matchings(4, [1.2, 2, 3, 4])),
    ("adjacent_clumps", lambda: adjacent_clumps([1.5, 2])),
    ("moduli_degree", lambda: moduli_degree((1.5, 1.5, 1, 1))),
    ("degree_trace", lambda: degree_trace((2, 2, 2, 2.0))),
    ("is_boundary", lambda: is_boundary((3, "1", 1, 1))),
    ("stability", lambda: stability(Configuration.from_affine([0, 1, 2, 3]), (1, 1, 1, 1.5))),
    ("random_stable_configuration", lambda: random_stable_configuration((1, 1, 1.5, 1), seed=0)),
    ("lift_graph", lambda: lift_graph(Graph(2, [(1, 2)] * 2), (2.0, 2))),
]


@pytest.mark.parametrize("call", [c for _, c in NON_INTEGRAL_INPUTS], ids=[i for i, _ in NON_INTEGRAL_INPUTS])
def test_non_integral_inputs_are_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call()


def test_graph_json_round_trip():
    g = Graph(5, [(2, 1), (3, 5)])
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_to_json(g) == {"n": 5, "edges": ((2, 1), (3, 5))}
    assert graph_to_json(g)["edges"] is g.edges


def test_graph_rejects_bad_vertices():
    with pytest.raises(VertexCountTooSmall):
        Graph(0, [])
    with pytest.raises(VertexOutOfRange):
        Graph(4, [(1, 9)])
    with pytest.raises(VertexOutOfRange):
        Graph(4, [(0, 2)])


@pytest.mark.parametrize(
    "obj",
    [{"n": 4}, {"edges": []}, [[1, 2]], "g", None,
     {"n": 4, "edges": [[1]]}, {"n": 4, "edges": [[1, 2, 3]]}, {"n": 4, "edges": [1, 2]},
     {"n": "4", "edges": []}, {"n": 4, "edges": [[1, 2.0]]}, {"n": True, "edges": []}],
)
def test_graph_from_json_rejects_malformed(obj):
    with pytest.raises(MalformedInput):
        graph_from_json(obj)


def filtered_noncrossing_matchings(n, vertices=None):
    """The filter noncrossing_matchings replaced: every perfect matching,
    keeping those with no crossing pair."""
    out = [m for m in enumerate_matchings(n, vertices) if not crossing_pairs(m)]
    return sorted(out, key=lambda g: g.edges)


def test_noncrossing_matchings_match_the_filter():
    for n in range(2, 13, 2):
        assert noncrossing_matchings(n) == filtered_noncrossing_matchings(n)
    for n in (8, 10):
        for quad in combinations(range(1, n + 1), 4):
            rest = [v for v in range(1, n + 1) if v not in quad]
            got = noncrossing_matchings(n, rest)
            assert got == filtered_noncrossing_matchings(n, rest)
            assert [m.edges for m in got] == [m.edges for m in filtered_noncrossing_matchings(n, rest)]


def test_noncrossing_matchings_errors():
    with pytest.raises(OddVertexCount):
        noncrossing_matchings(6, [1, 2, 3])
    with pytest.raises(VertexOutOfRange):
        noncrossing_matchings(6, [1, 7])
    with pytest.raises(LoopEdge):
        noncrossing_matchings(6, [1, 2, 2, 3])


def test_enumerate_noncrossing_is_not_bounded_by_the_recursion_limit():
    # the sweep visits every vertex; far more vertices than the default
    # recursion limit of 1000
    assert noncrossing_matchings(1200, [1, 2]) == [Graph(1200, [(1, 2)])]
    assert enumerate_noncrossing(1200, (1, 1) + (0,) * 1198) == [Graph(1200, [(1, 2)])]
    got = enumerate_noncrossing(1500, (1,) + (0,) * 1497 + (2, 1))
    assert [g.edges for g in got] == [((1, 1499), (1499, 1500))]


def test_enumerate_noncrossing_output_is_sorted():
    for n, w in [(8, (2,) * 8), (9, (3, 1, 2, 2, 1, 3, 2, 1, 3)), (10, (1,) * 10)]:
        got = enumerate_noncrossing(n, w)
        assert [g.edges for g in got] == sorted(g.edges for g in got)
        assert all(g.edges == tuple(sorted(g.edges)) for g in got)


def test_enumerate_noncrossing_skewed_multidegree_is_fast():
    # one graph, the star into vertex n; without the cut on the largest
    # later valence the sweep's time grows about 3.6-fold per two vertices
    n = 40
    t0 = time.perf_counter()
    got = enumerate_noncrossing(n, (1,) * (n - 1) + (n - 1,))
    assert time.perf_counter() - t0 < 1.0
    assert [g.edges for g in got] == [tuple((v, n) for v in range(1, n))]


def test_enumerate_noncrossing_matches_the_unpruned_sweep():
    rng = random.Random(12)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 9)
        w = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n)]
        if checked % 3 == 0:
            w[rng.randrange(n)] = rng.randint(2, 8)  # skewed: one heavy vertex
        if sum(w) % 2:
            w[rng.randrange(n)] += 1
        assert enumerate_noncrossing(n, w) == reference_enumerate_noncrossing(n, w), w
        checked += 1
