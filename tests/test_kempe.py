import math
import random
import time
from fractions import Fraction

import pytest

from graphinv.errors import NotNeutralRegular, NotRegular, NotMultipleOfWeight, OddVertexCount
from graphinv.evaluation import Configuration, evaluate, evaluate_combination
from graphinv.graphs import Graph
from graphinv.kempe import (
    Bipartition,
    MatchingProduct,
    hall_matching,
    kempe_decompose,
    lift_graph,
    matching_product_to_json,
    neutralize,
)

from kempe_reference import reference_hall_matching, reference_kempe_decompose, reference_neutralize


def configs_for(n):
    vals = [list(range(n)), [x * x - 3 for x in range(n)], [5, -2, 9, 1, -6, 3, 14, -11, 7, 0][:n]]
    return [Configuration.from_affine(v) for v in vals]


def eval_products(products, c):
    total = Fraction(0)
    for p in products:
        v = p.coeff
        for f in p.factors:
            v *= evaluate(f, c)
        total += v
    return total


def neutral_regular(rng, half, d):
    """A neutral d-regular graph on 2 * half vertices: d random matchings
    of 1..half onto half+1..2*half."""
    edges = []
    for _ in range(d):
        p = list(range(half + 1, 2 * half + 1))
        rng.shuffle(p)
        edges += [(i + 1, p[i]) for i in range(half)]
    return Graph(2 * half, edges)


def random_regular(rng, n, d):
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(t != h for t, h in pairs):
            return Graph(n, pairs)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition([1, 2], [2, 3])
    with pytest.raises(ValueError):
        Bipartition([1], [2, 3])
    with pytest.raises(ValueError):
        Bipartition([1, 2], [4, 5])
    b = Bipartition.halves(6)
    assert b.positives == frozenset({1, 2, 3})
    assert b.negatives == frozenset({4, 5, 6})
    with pytest.raises(OddVertexCount):
        Bipartition.halves(5)


def test_edge_side():
    b = Bipartition.halves(4)
    assert b.edge_side((1, 2)) == 1
    assert b.edge_side((3, 4)) == -1
    assert b.edge_side((2, 3)) == 0
    assert b.edge_side((4, 1)) == 0


def test_hall_matching_pinned():
    b = Bipartition.halves(4)
    g = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert hall_matching(g, b).edges == ((1, 3), (2, 4))
    double = Graph(4, [(1, 3), (1, 3), (2, 4), (2, 4)])
    assert hall_matching(double, b).edges == ((1, 3), (2, 4))
    m = Graph(4, [(1, 4), (2, 3)])
    assert hall_matching(m, b) == m


def test_hall_matching_needs_augmenting_path():
    # positive vertex order forces displacement: 1 grabs 4, then 2 wants 4
    b = Bipartition.halves(6)
    g = Graph(6, [(1, 4), (1, 5), (2, 4), (2, 4), (3, 6), (3, 6), (1, 6), (2, 5), (3, 5)])
    m = hall_matching(g, b)
    assert m.is_matching()
    used = list(m.edges)
    pool = list(g.edges)
    for e in used:
        assert e in pool
        pool.remove(e)


def test_hall_matching_is_submultiset_property():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([4, 6, 8])
        d = rng.randint(1, 3)
        b = Bipartition.halves(n)
        pos = sorted(b.positives)
        neg = sorted(b.negatives)
        # random neutral d-regular bipartite graph via d interleaved matchings
        edges = []
        for _ in range(d):
            perm = neg[:]
            rng.shuffle(perm)
            edges += [(u, v) for u, v in zip(pos, perm)]
        g = Graph(n, edges)
        m = hall_matching(g, b)
        assert m.is_matching()
        pool = list(g.edges)
        for e in m.edges:
            assert e in pool
            pool.remove(e)


def test_hall_matching_matches_recursive_reference():
    # graphs large enough for long augmenting paths, small enough for the
    # reference's recursion
    rng = random.Random(2718)
    for _ in range(40):
        g = neutral_regular(rng, rng.randint(2, 300), rng.randint(1, 4))
        b = Bipartition.halves(g.n)
        assert hall_matching(g, b) == reference_hall_matching(g, b), g


@pytest.mark.parametrize("seed, half", [(2000, 2000), (2, 4000)])
def test_kempe_on_a_neutral_graph_with_long_augmenting_paths(seed, half):
    # the augmenting paths of the first graph run past the default
    # recursion limit; a search that enters a vertex again from each path
    # reaching it does not finish on the second within minutes
    g = neutral_regular(random.Random(seed), half, 3)
    (product,) = kempe_decompose(g)
    assert product.coeff == 1 and len(product.factors) == 3
    assert sorted(e for f in product.factors for e in f.edges) == sorted(g.edges)


def product_fields(products):
    return [(p.coeff, [f.edges for f in p.factors]) for p in products]


def test_kempe_peeling_matches_the_list_remove_reference():
    # the one-pass peeling drops the same edges in the same order as one
    # list.remove per matched edge, on neutral graphs and on graphs that
    # neutralize into many terms
    rng = random.Random(5150)
    graphs = [neutral_regular(rng, rng.randint(2, 150), rng.randint(1, 4)) for _ in range(100)]
    graphs += [random_regular(rng, rng.choice([4, 6, 8, 10]), rng.randint(0, 3)) for _ in range(100)]
    for g in graphs:
        got, want = kempe_decompose(g), reference_kempe_decompose(g)
        assert product_fields(got) == product_fields(want), g
        assert got == want


def test_kempe_peels_8000_vertices_in_linear_time():
    # one list.remove per matched edge took 0.6-1.0 s here, of which the
    # three Hall matchings were about 0.2 s; best of two runs
    g = neutral_regular(random.Random(2), 4000, 3)
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        (product,) = kempe_decompose(g)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.4
    assert sorted(e for f in product.factors for e in f.edges) == sorted(g.edges)


def test_hall_matching_rejects_bad_input():
    b = Bipartition.halves(4)
    with pytest.raises(NotNeutralRegular):
        hall_matching(Graph(4, [(1, 2), (3, 4)]), b)  # non-neutral edges
    with pytest.raises(NotNeutralRegular):
        hall_matching(Graph(4, [(1, 3), (1, 4), (2, 3)]), b)  # irregular


def test_neutralize_all_neutral_is_identity():
    b = Bipartition.halves(4)
    g = Graph(4, [(1, 3), (2, 4)])
    out = neutralize(g, b)
    assert out.terms == {g: Fraction(1)}


def test_neutralize_worked_example():
    b = Bipartition.halves(4)
    g = Graph(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    out = neutralize(g, b)
    k1 = Graph(4, [(1, 3), (1, 3), (2, 4), (2, 4)])
    k2 = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert set(out.terms) == {k1, k2}
    # signs pinned by evaluation at 0,1,2,3
    for c in configs_for(4):
        assert evaluate_combination(out, c) == evaluate(g, c)
    assert out.terms[k1] == 1
    assert out.terms[k2] == -1


def test_neutralize_output_is_neutral():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.choice([4, 6])
        g = random_regular(rng, n, rng.randint(1, 3))
        b = Bipartition.halves(n)
        out = neutralize(g, b)
        for h in out.terms:
            assert all(b.edge_side(e) == 0 for e in h.edges)
        for c in configs_for(n):
            assert evaluate_combination(out, c) == evaluate(g, c)


def test_neutralize_matches_reference():
    # any bipartition, not only halves; term for term, order included
    rng = random.Random(31)
    for _ in range(150):
        n = rng.choice([4, 6, 8, 10, 12])
        g = random_regular(rng, n, rng.randint(1, 4 if n < 12 else 3))
        vertices = rng.sample(range(1, n + 1), n)
        b = rng.choice([Bipartition.halves(n), Bipartition(vertices[: n // 2], vertices[n // 2:])])
        got, want = neutralize(g, b), reference_neutralize(g, b)
        assert list(got.terms.items()) == list(want.terms.items()), (g, b)
        assert (got.n, got.degree) == (want.n, want.degree)


def test_neutralize_repeated_pairs_merges_per_pair():
    # (1,2)^k (3,4)^k = ((1,3)(2,4) - (1,4)(2,3))^k: k + 1 binomial terms
    b = Bipartition.halves(4)
    for k in (1, 2, 5, 10):
        g = Graph(4, [(1, 2)] * k + [(3, 4)] * k)
        got, want = neutralize(g, b), reference_neutralize(g, b)
        assert list(got.terms.items()) == list(want.terms.items())
    for k in (17, 40):
        g = Graph(4, [(1, 2)] * k + [(3, 4)] * k)
        t0 = time.perf_counter()
        got = neutralize(g, b)
        assert time.perf_counter() - t0 < 1
        want = {
            Graph(4, [(1, 3), (2, 4)] * m + [(1, 4), (2, 3)] * (k - m)): (-1) ** (k - m) * math.comb(k, m)
            for m in range(k + 1)
        }
        assert got.terms == want
        assert len(kempe_decompose(g)) == k + 1


def test_neutralize_rejects_irregular():
    with pytest.raises(NotRegular):
        neutralize(Graph(4, [(1, 2), (1, 3)]), Bipartition.halves(4))


def test_kempe_four_cycle():
    # with the fixed {1,2}|{3,4} split, one exchange is needed first, so the
    # decomposition has two products; their signed sum is still the cycle
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    prods = kempe_decompose(g)
    assert len(prods) == 2
    assert all(len(p.factors) == 2 for p in prods)
    for c in configs_for(4):
        assert eval_products(prods, c) == evaluate(g, c)


def test_kempe_worked_example():
    g = Graph(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    prods = kempe_decompose(g)
    m1 = Graph(4, [(1, 3), (2, 4)])
    m2 = Graph(4, [(1, 4), (2, 3)])
    assert {p.factors for p in prods} == {(m1, m1), (m1, m2)}
    for c in configs_for(4):
        assert eval_products(prods, c) == evaluate(g, c)


def test_kempe_on_matching_is_trivial():
    m = Graph(6, [(1, 4), (2, 5), (3, 6)])
    prods = kempe_decompose(m)
    assert prods == [MatchingProduct(1, [m])]


def test_kempe_degree_zero():
    prods = kempe_decompose(Graph(4))
    assert prods == [MatchingProduct(1, [])]


def test_kempe_soundness_random():
    rng = random.Random(2718)
    for _ in range(100):
        n = rng.choice([4, 6, 8])
        d = rng.randint(1, 3)
        g = random_regular(rng, n, d)
        prods = kempe_decompose(g)
        for p in prods:
            assert len(p.factors) == d
            for f in p.factors:
                assert f.is_matching()
        for c in configs_for(n):
            assert eval_products(prods, c) == evaluate(g, c)


def test_kempe_errors():
    with pytest.raises(OddVertexCount):
        kempe_decompose(Graph(3, [(1, 2), (2, 3), (1, 3)]))
    with pytest.raises(NotRegular):
        kempe_decompose(Graph(4, [(1, 2), (1, 3)]))


def test_matching_product_validates_factors():
    with pytest.raises(NotRegular):
        MatchingProduct(1, [Graph(4, [(1, 2)])])


def test_lift_pinned_example():
    g = Graph(3, [(1, 2), (1, 3)])
    lifted, pi = lift_graph(g, (2, 1, 1))
    assert lifted == Graph(4, [(1, 3), (2, 4)])
    assert pi == (1, 1, 2, 3)


def test_lift_identity_on_unit_weights():
    g = Graph(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    lifted, pi = lift_graph(g, (1, 1, 1, 1))
    assert lifted == g
    assert pi == (1, 2, 3, 4)


def test_lift_structural_properties():
    rng = random.Random(31)
    done = 0
    while done < 100:
        nw = rng.randint(3, 5)
        w = tuple(rng.randint(1, 3) for _ in range(nw))
        d = rng.randint(1, 3)
        deg = tuple(d * x for x in w)
        if sum(deg) % 2 or 2 * max(deg) > sum(deg):
            continue
        g = None
        for _ in range(200):
            stubs = [v for v in range(1, nw + 1) for _ in range(deg[v - 1])]
            rng.shuffle(stubs)
            pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
            if all(t != h for t, h in pairs):
                g = Graph(nw, pairs)
                break
        if g is None:
            continue
        lifted, pi = lift_graph(g, w)
        # (i) preimage of vertex i has w_i copies
        assert len(pi) == sum(w)
        for i in range(1, nw + 1):
            assert pi.count(i) == w[i - 1]
        # (ii) pi maps the lifted edges back onto g's edges, in order
        assert [(pi[t - 1], pi[h - 1]) for t, h in lifted.edges] == list(g.edges)
        # (iii) the lift is d-regular
        assert lifted.regular_valence() == d
        done += 1


def test_lift_errors():
    with pytest.raises(NotMultipleOfWeight):
        lift_graph(Graph(3, [(1, 2), (1, 3)]), (2, 1))  # length mismatch
    with pytest.raises(NotMultipleOfWeight):
        lift_graph(Graph(3, [(1, 2), (1, 3)]), (2, 1, 2))  # not divisible
    with pytest.raises(NotMultipleOfWeight):
        # quotients disagree: degrees (2,1,1) over weights (1,1,1)
        lift_graph(Graph(3, [(1, 2), (1, 3)]), (1, 2, 2))


def test_matching_product_json():
    m = Graph(4, [(1, 3), (2, 4)])
    p = MatchingProduct(Fraction(-3, 2), [m, m])
    j = matching_product_to_json(p)
    assert j == {
        "coeff": "-3/2",
        "factors": [{"n": 4, "edges": ((1, 3), (2, 4))}, {"n": 4, "edges": ((1, 3), (2, 4))}],
    }
