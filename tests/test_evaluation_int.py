"""evaluate over scaled integer points against the Fraction loop it
replaced (tests/evaluation_reference.py), and the functions it drives.

Configurations cover all-integer points, mixed per-point denominators,
the point at infinity, coincident points, negative coordinates and
coordinates around 10^40."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphinv.chart
import graphinv.evaluation
import graphinv.relations
from graphinv.chart import chart_coordinates
from graphinv.errors import LengthMismatch
from graphinv.evaluation import (
    Configuration,
    Stability,
    evaluate,
    evaluate_combination,
    random_stable_configuration,
    stability,
)
from graphinv.graphs import Graph, enumerate_matchings, noncrossing_matchings
from graphinv.relations import (
    GraphPolynomial,
    evaluate_polynomial,
    odd_power_relation,
    plucker_linear_relations,
    segre_cubic,
    simple_binomial_relations,
)
from graphinv.straightening import straighten_graph

from evaluation_reference import evaluate_reference, stability_reference

BIG = 10**40


def integer_point(rng):
    if rng.random() < 0.5:
        return (rng.randint(-50, 50), 1)
    return (rng.randint(-50, 50), rng.choice([-7, -2, 1, 3, 11]))


def mixed_point(rng):
    return (Fraction(rng.randint(-60, 60), rng.randint(1, 12)), Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 13)))


def infinity_point(rng):
    return rng.choice([(1, 0), (Fraction(-2, 3), 0), (7, 0)])


def big_point(rng):
    return (
        Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)),
        Fraction(rng.choice([-1, 1]) * rng.randint(BIG // 2, BIG), rng.randint(1, BIG)),
    )


KINDS = {
    "integer": [integer_point],
    "mixed": [mixed_point],
    "infinity": [infinity_point, integer_point, mixed_point],
    "big": [big_point, integer_point],
}


def random_points(rng, n, kind):
    pts = []
    while len(pts) < n:
        u, v = rng.choice(KINDS[kind])(rng)
        if u or v:
            pts.append((u, v))
    return pts


def with_coincidence(rng, pts):
    """pts with one point replaced by a nonzero multiple of another."""
    pts = list(pts)
    i, j = rng.sample(range(len(pts)), 2)
    lam = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
    pts[j] = (pts[i][0] * lam, pts[i][1] * lam)
    return pts


def random_graph(rng, n, max_edges=8):
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        t, h = rng.sample(range(1, n + 1), 2)
        edges.append((t, h))
    return Graph(n, edges)


def assert_same(g, c):
    got, want = evaluate(g, c), evaluate_reference(g, c)
    assert type(got) is Fraction
    assert got == want and repr(got) == repr(want)
    return got


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_evaluate_matches_the_fraction_loop(kind):
    rng = random.Random(f"evaluate:{kind}")
    for n in range(2, 13):
        for _ in range(40):
            c = Configuration(random_points(rng, n, kind))
            for _ in range(3):
                assert_same(random_graph(rng, n), c)


def test_coincident_points_evaluate_to_zero():
    rng = random.Random(8112)
    for n in range(2, 13):
        for kind in sorted(KINDS):
            pts = with_coincidence(rng, random_points(rng, n, kind))
            c = Configuration(pts)
            i = next(k for k in range(n) for j in range(k) if c.coincide(j + 1, k + 1))
            j = next(j for j in range(i) if c.coincide(j + 1, i + 1))
            g = Graph(n, list(random_graph(rng, n).edges) + [(i + 1, j + 1)])
            assert assert_same(g, c) == 0
            assert assert_same(Graph(n, [(j + 1, i + 1)]), c) == 0


def test_edge_cases():
    c = Configuration([(Fraction(1, 3), Fraction(2, 5)), (1, 0), (-BIG, 3)])
    assert assert_same(Graph(3), c) == 1
    for edges in ([(1, 2)], [(2, 1)], [(1, 3), (3, 2), (2, 1)], [(1, 2)] * 5):
        assert_same(Graph(3, edges), c)
    with pytest.raises(LengthMismatch):
        evaluate(Graph(2, [(1, 2)]), c)


fraction = st.fractions(min_value=-(10**42), max_value=10**42, max_denominator=10**41)
point = st.tuples(fraction, fraction).filter(lambda p: p[0] or p[1])


@st.composite
def graph_and_points(draw):
    n = draw(st.integers(2, 12))
    pts = draw(st.lists(st.one_of(point, st.just((1, 0))), min_size=n, max_size=n))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=10))
    return Graph(n, edges), Configuration(pts)


@settings(max_examples=100, deadline=None)
@given(graph_and_points())
def test_evaluate_property(case):
    g, c = case
    assert_same(g, c)


@pytest.fixture
def reference_evaluation(monkeypatch):
    """Route every caller of evaluate to the Fraction loop."""

    def install():
        for module in (graphinv.evaluation, graphinv.relations, graphinv.chart):
            monkeypatch.setattr(module, "evaluate", evaluate_reference)

    return install


def configurations(n, seed):
    rng = random.Random(seed)
    return [Configuration(random_points(rng, n, kind)) for kind in sorted(KINDS) for _ in range(3)]


def test_drivers_agree_with_the_reference(reference_evaluation):
    rng = random.Random(5151)
    combos = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * straighten_graph(random_graph(rng, 6)), 6)
              for _ in range(10)]
    combos += [(c, 6) for c in plucker_linear_relations(6)[:10]]
    m8 = enumerate_matchings(8)
    polys = [(p, 8) for p in simple_binomial_relations(8)[:8]]
    polys += [(segre_cubic(8), 8), (odd_power_relation(6, noncrossing_matchings(6)[0], 3), 6)]
    for _ in range(5):
        terms = {tuple(rng.choice(m8) for _ in range(2)): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(4)}
        polys.append((GraphPolynomial(8, terms, degree=2), 8))
    charts = [Configuration.from_affine(v) for v in (
        [0, 1, 2, 3, 4, 5, 6, "inf"],
        ["1/2", "2/3", "3/4", "-5/6", 7, "8/3", "-1/9", "inf"],
        [0, 0, 1, "inf"],
        ["1/2", "1/3", "1/5", "1/7", 2, 3, 4, 5, 6, "inf"],
    )]
    charts.append(Configuration([(Fraction(3, 4), Fraction(5, 6)), (1, 0), (-2, Fraction(7, 3)),
                                 (0, 1), (Fraction(10, 9), -4), (5, Fraction(5, 11))]))

    def run():
        values = [evaluate_combination(comb, c) for comb, n in combos for c in configurations(n, 1)]
        values += [evaluate_polynomial(poly, c) for poly, n in polys for c in configurations(n, 2)]
        return values, [repr(chart_coordinates(c)) for c in charts]

    fast, fast_charts = run()
    reference_evaluation()
    assert graphinv.relations.evaluate is evaluate_reference
    slow, slow_charts = run()
    assert all(type(x) is Fraction for x in fast)
    assert [repr(x) for x in fast] == [repr(x) for x in slow]
    assert fast_charts == slow_charts


def test_random_stable_configuration_points_are_unchanged():
    for w in [(1,) * 4, (1,) * 9, (2, 1, 1, 1), (3,) * 12]:
        for seed in range(10):
            rng = random.Random(seed)
            xs = []
            while len(xs) < len(w):
                x = rng.randint(-10000, 10000)
                if x not in xs:
                    xs.append(x)
            c = random_stable_configuration(w, seed)
            assert c.points == tuple((Fraction(x), Fraction(1)) for x in xs)
            assert all(type(u) is Fraction and type(v) is Fraction for u, v in c.points)
            assert c == Configuration([(Fraction(x), Fraction(1)) for x in xs])


def rescaled(rng, p):
    """p times a nonzero rational, negative ones included."""
    lam = Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.choice([1, 2, 9]))
    return (Fraction(p[0]) * lam, Fraction(p[1]) * lam)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stability_matches_the_pairwise_loop(kind):
    # a few base points, each repeated rescaled, so classes of every size
    # meet; the zero point and the point at infinity among them
    rng = random.Random(f"stability:{kind}")
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 14)
        base = random_points(rng, rng.randint(1, 4), kind) + [(0, rng.choice([-3, 1])), (rng.choice([-2, 5]), 0)]
        pts = [rescaled(rng, rng.choice(base)) for _ in range(n)]
        w = [rng.randint(1, 4) for _ in range(n)]
        c = Configuration(pts)
        got = stability(c, w)
        assert got is stability_reference(c, w)
        seen.add(got)
    assert seen == set(Stability)
