"""evaluate over scaled integer points against the Fraction loop it
replaced (tests/evaluation_reference.py); the callers that sum integer
brackets against sums of that loop's values; and Configuration, which
keeps only integer triples, against the one that also kept Fractions.

Configurations cover all-integer points, mixed per-point denominators,
the point at infinity, coincident points, negative coordinates and
coordinates around 10^40."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.acceptance import _clumped_terms, _eval_products
from graphinv.chart import chart_coordinates
from graphinv.errors import LengthMismatch, MalformedInput
from graphinv.evaluation import (
    Configuration,
    Stability,
    _ratio_sum,
    configuration_to_json,
    evaluate,
    evaluate_combination,
    random_stable_configuration,
    stability,
)
from graphinv.graphs import Graph, enumerate_matchings, noncrossing_matchings
from graphinv.kempe import kempe_decompose
from graphinv.relations import (
    GraphPolynomial,
    evaluate_polynomial,
    odd_power_relation,
    plucker_linear_relations,
    segre_cubic,
    simple_binomial_relations,
)
from graphinv.straightening import GraphCombination, adjacent_clumps, clump_map, straighten_graph

from chart_reference import chart_coordinates_reference
from evaluation_reference import ConfigurationReference, evaluate_reference, stability_reference

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


def configurations(n, seed):
    rng = random.Random(seed)
    return [Configuration(random_points(rng, n, kind)) for kind in sorted(KINDS) for _ in range(3)]


def product_reference(coeff, factors, c):
    value = Fraction(coeff)
    for f in factors:
        value *= evaluate_reference(f, c)
    return value


def combination_reference(comb, c):
    return sum((coeff * evaluate_reference(g, c) for g, coeff in comb.terms.items()), Fraction(0))


def polynomial_reference(p, c):
    return sum((product_reference(coeff, mono, c) for mono, coeff in p.terms.items()), Fraction(0))


def assert_same_value(got, want):
    assert type(got) is Fraction
    assert repr(got) == repr(want)


def test_drivers_agree_with_the_reference():
    # the callers that sum integer brackets, against sums of the Fraction
    # loop's values on the same inputs
    rng = random.Random(5151)
    combos = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * straighten_graph(random_graph(rng, 6)), 6)
              for _ in range(10)]
    combos += [(c, 6) for c in plucker_linear_relations(6)[:10]]
    for _ in range(5):  # coefficients of several denominators
        terms = [(g, k * Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                 for g, k in straighten_graph(random_graph(rng, 6)).terms.items()]
        combos.append((GraphCombination(6, terms), 6))
    m8 = enumerate_matchings(8)
    polys = [(p, 8) for p in simple_binomial_relations(8)[:8]]
    polys += [(segre_cubic(8), 8), (odd_power_relation(6, noncrossing_matchings(6)[0], 3), 6)]
    for _ in range(5):
        terms = {tuple(rng.choice(m8) for _ in range(2)): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(4)}
        polys.append((GraphPolynomial(8, terms, degree=2), 8))
    for comb, n in combos:
        for c in configurations(n, 1):
            assert_same_value(evaluate_combination(comb, c), combination_reference(comb, c))
    for poly, n in polys:
        for c in configurations(n, 2):
            assert_same_value(evaluate_polynomial(poly, c), polynomial_reference(poly, c))
    for n in (4, 6, 8):
        for _ in range(6):
            g = random_regular_graph(rng, n)
            prods = kempe_decompose(g)
            for c in configurations(n, 3):
                want = sum((product_reference(p.coeff, p.factors, c) for p in prods), Fraction(0))
                assert_same_value(_eval_products(prods, c), want)
                assert want == evaluate_reference(g, c)
    charts = [Configuration.from_affine(v) for v in (
        [0, 1, 2, 3, 4, 5, 6, "inf"],
        ["1/2", "2/3", "3/4", "-5/6", 7, "8/3", "-1/9", "inf"],
        [0, 0, 1, "inf"],
        ["1/2", "1/3", "1/5", "1/7", 2, 3, 4, 5, 6, "inf"],
    )]
    charts.append(Configuration([(Fraction(3, 4), Fraction(5, 6)), (1, 0), (-2, Fraction(7, 3)),
                                 (0, 1), (Fraction(10, 9), -4), (5, Fraction(5, 11))]))
    for c in charts:
        assert repr(chart_coordinates(c)) == repr(chart_coordinates_reference(c))
    with pytest.raises(LengthMismatch):
        evaluate_combination(combos[0][0], configurations(8, 4)[0])
    with pytest.raises(LengthMismatch):
        evaluate_polynomial(polys[0][0], configurations(6, 4)[0])


def random_regular_graph(rng, n):
    d = rng.randint(1, 3)
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(t != h for t, h in pairs):
            return Graph(n, pairs)


def test_clumped_terms_agree_with_the_reference():
    w = (2, 1, 1, 1, 1, 1, 1)
    clumps = adjacent_clumps(w)
    rng = random.Random(7171)
    cases = 0
    for p in simple_binomial_relations(8)[12:24]:  # the first 15 lose every monomial to the clumping
        images = []
        for mono, coeff in p.terms.items():
            clumped = [clump_map(GraphCombination.from_graph(f), clumps) for f in mono]
            if not any(f.is_zero for f in clumped):
                images.append((Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) * coeff, clumped))
        for c in configurations(7, 5)[:6]:
            want = Fraction(0)
            for coeff, clumped in images:
                value = Fraction(coeff)
                for f in clumped:
                    value *= combination_reference(f, c)
                want += value
            num, den = _ratio_sum(_clumped_terms(images, c))
            assert den > 0 and Fraction(num, den) == want
            cases += bool(want)
    assert cases


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


COORDINATES = [0, 1, -3, BIG, -BIG, True, False, Fraction(-7, 3), Fraction(BIG, 3), Fraction(6, 2),
               "5", "-2/6", " 1.25 ", "3e2", "-1e-3", str(-BIG), 0.5, -2.75, 1e20]


def assert_configurations_agree(new, ref, rng):
    assert new.n == ref.n
    assert new.points == ref.points
    assert all(type(x) is Fraction for p in new.points for x in p)
    assert [repr(x) for p in new.points for x in p] == [repr(x) for p in ref.points for x in p]
    assert repr(new) == repr(ref)
    assert configuration_to_json(new) == configuration_to_json(ref)
    assert new._scaled == ref._scaled
    assert all(type(x) is int for t in new._scaled for x in t)
    for i in range(1, new.n + 1):
        for j in range(1, new.n + 1):
            assert new.coincide(i, j) == ref.coincide(i, j)
    w = [rng.randint(1, 3) for _ in range(new.n)]
    assert stability(new, w) is stability_reference(ref, w)


def test_configuration_matches_the_reference_on_every_input_type():
    # int, bool, Fraction, str, float and "inf", and integers of 41 digits,
    # in every position; equal inputs of different types give equal
    # configurations exactly when the reference's are equal
    rng = random.Random(6063)
    built = []
    for _ in range(300):
        n = rng.randint(1, 6)
        if rng.random() < 0.3:
            values = [rng.choice(COORDINATES + ["inf", " INF", None, "oo"]) for _ in range(n)]
            new, ref = Configuration.from_affine(values), ConfigurationReference.from_affine(values)
        else:
            pts = [(rng.choice(COORDINATES), rng.choice(COORDINATES)) for _ in range(n)]
            try:
                ref = ConfigurationReference(pts)
            except MalformedInput as exc:
                with pytest.raises(MalformedInput, match=re.escape(str(exc))):
                    Configuration(pts)
                continue
            new = Configuration(pts)
        assert_configurations_agree(new, ref, rng)
        built.append((new, ref))
    for a, b in zip(built, built[1:] + built[:1]):
        assert (a[0] == b[0]) == (a[1] == b[1])
    same = [[(True, 2), (-BIG, 1)], [(1, 2), (str(-BIG), "1")], [(Fraction(1), "2"), (Fraction(-BIG), 1.0)],
            [("1", 2.0), ("-1e40", True)]]
    configs = [Configuration(pts) for pts in same]
    assert all(c == configs[0] for c in configs)
    assert configs[0]._scaled[0] == (1, 2, 1) and type(configs[0]._scaled[0][0]) is int
    # == compares the pairs, not the projective points
    rescaled = Configuration([(2, 4), (-BIG, 1)])
    assert configs[0] != rescaled and ConfigurationReference(same[0]) != ConfigurationReference([(2, 4), (-BIG, 1)])
    assert configs[0] != same[0]


def test_over_long_coordinates_are_refused():
    limit = sys.get_int_max_str_digits()
    for bad in (f"1e{limit}", "-1e100000000", "1e-100000000", "2.5e" + "9" * 40, "1/" + "3" * (limit + 1),
                Fraction(10**limit), Fraction(1, 10**limit), 10**limit, -(10**limit)):
        with pytest.raises(MalformedInput):
            Configuration([(bad, 1)])
        if isinstance(bad, str):
            with pytest.raises(MalformedInput):
                Configuration.from_affine([bad])
    for good, value in ((f"1e{limit - 1}", 10 ** (limit - 1)), ("0e100000000", 0), ("-0.00e-100000000", 0),
                        (10**limit - 1, 10**limit - 1), (f"0.01e{limit + 1}", 10 ** (limit - 1))):
        assert Configuration([(good, 1)]).points == ((Fraction(value), Fraction(1)),)
