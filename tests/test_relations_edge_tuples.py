"""Monomial matrix, reduction to non-crossing variables and ideal
membership assembled on sorted edge tuples with int coefficients, against
the references that go through public objects (tests/relations_reference.py);
and what that assembly makes cheap: the degree-3 multiplication map at
n=10."""

import random
from fractions import Fraction

import pytest

import relations_reference as ref
from graphinv import relations
from graphinv.errors import DegreeMismatch, VertexCountMismatch
from graphinv.graphs import Graph, enumerate_matchings, enumerate_noncrossing
from graphinv.linalg import rank
from graphinv.relations import (
    GraphPolynomial,
    ideal_membership,
    noncrossing_monomial_matrix,
    polynomial_from_json,
    polynomial_to_json,
    reduce_to_noncrossing_vars,
    segre_cubic,
    simple_binomial_relations,
)


@pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (6, 3), (8, 1), (8, 2), (8, 3), (10, 2)])
def test_monomial_matrix_matches_reference(n, k):
    fast = noncrossing_monomial_matrix(n, k)
    slow = ref.noncrossing_monomial_matrix_reference(n, k)
    assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
    assert fast._columns == slow._columns
    assert all(type(v) is int for col in fast._columns for v in col.values())


def random_polynomial(rng, n, degree):
    """A few terms over every perfect matching, crossing ones included,
    some factors reversed, with Fraction coefficients."""
    matchings = enumerate_matchings(n)
    terms = []
    for _ in range(rng.randint(1, 4)):
        mono = []
        for _ in range(degree):
            edges = list(rng.choice(matchings).edges)
            mono.append(Graph(n, [(h, t) if rng.random() < 0.3 else (t, h) for t, h in edges]))
        terms.append((tuple(mono), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return GraphPolynomial(n, terms, degree=degree)


def test_reduction_matches_reference_on_seeded_polynomials():
    rng = random.Random(1501)
    for _ in range(120):
        n = rng.choice((4, 6, 8))
        p = random_polynomial(rng, n, rng.randint(1, 3))
        fast, slow = reduce_to_noncrossing_vars(p), ref.reduce_to_noncrossing_vars_reference(p)
        assert fast == slow
        assert list(fast.terms.items()) == list(slow.terms.items())
        assert fast.degree == slow.degree
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in fast.terms.values())


def test_one_call_reduces_every_polynomial_as_the_reference_does():
    # each call holds crossing factors, variables shared between its
    # polynomials and repeated within a monomial, and a zero polynomial
    rng = random.Random(2408)
    for _ in range(40):
        n = rng.choice((4, 6, 8))
        polys = [random_polynomial(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        held = [f for p in polys for mono in p.terms for f in mono] or enumerate_matchings(n)
        m = rng.choice(held)
        polys.append(GraphPolynomial(n, {(m,) * 3: 2, (m, m, rng.choice(held)): Fraction(-1, 2)}))
        polys.insert(rng.randrange(len(polys) + 1), GraphPolynomial.zero(n, rng.randint(0, 3)))
        got = relations._reduced_terms(*polys)
        want = [
            {tuple(f.edges for f in mono): c for mono, c in ref.reduce_to_noncrossing_vars_reference(p).terms.items()}
            for p in polys
        ]
        assert got == want


def random_member(rng, generators, matchings, size=4):
    """Sum of size terms coeff * cofactor * generator, cofactors drawn from
    every perfect matching: the benchmark's membership recipe."""
    while True:
        recipe = [
            (rng.randrange(len(generators)), rng.randrange(len(matchings)), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(size)
        ]
        terms = {}
        for gi, mi, coeff in recipe:
            for mono, c in generators[gi].terms.items():
                key = (matchings[mi],) + mono
                terms[key] = terms.get(key, 0) + coeff * c
        poly = GraphPolynomial(matchings[0].n, terms, degree=3)
        if not poly.is_zero:
            return poly


def assert_membership_matches(candidate, generators, k):
    """ideal_membership agrees with the reference by repr, with each
    certificate coefficient an int when integral and a Fraction otherwise
    (the reference's are all Fractions)."""
    fast = ideal_membership(candidate, generators, k)
    member, cert = ref.ideal_membership_reference(candidate, generators, k)
    if cert is not None:
        cert = [(gi, cof, c.numerator if c.denominator == 1 else c) for gi, cof, c in cert]
    assert repr(fast) == repr((member, cert))
    return fast


@pytest.mark.parametrize("n", [6, 8])
def test_membership_of_segre_matches_reference(n):
    member, cert = assert_membership_matches(segre_cubic(n), simple_binomial_relations(n), 3)
    assert member == (n == 8)


def test_segre_certificate_is_int_where_integral():
    member, cert = ideal_membership(segre_cubic(8), simple_binomial_relations(8), 3)
    coeffs = [c for _, _, c in cert]
    assert member and len(coeffs) == 84
    assert {c.denominator for c in coeffs} == {1, 3}
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in coeffs)


def test_membership_of_seeded_candidates_matches_reference():
    rng = random.Random(1502)
    generators = simple_binomial_relations(8)
    matchings = enumerate_matchings(8)
    for _ in range(6):
        poly = random_member(rng, generators, matchings)
        member, cert = assert_membership_matches(poly, generators, 3)
        assert member and cert
        extra = tuple(matchings[rng.randrange(len(matchings))] for _ in range(3))
        poly = poly + GraphPolynomial(8, {extra: rng.choice((-2, -1, 1, 2))}, degree=3)
        # through JSON, as the CLI reads it
        poly = polynomial_from_json(polynomial_to_json(poly))
        assert assert_membership_matches(poly, generators, 3) == (False, None)


def test_membership_edge_cases_match_reference():
    gens = simple_binomial_relations(8)
    assert assert_membership_matches(GraphPolynomial.zero(8, 3), gens, 3) == (True, [])
    assert assert_membership_matches(segre_cubic(6), [], 3) == (False, None)
    assert assert_membership_matches(GraphPolynomial.zero(6, 3), [], 3) == (True, [])
    assert assert_membership_matches(GraphPolynomial.zero(6, 3), [GraphPolynomial.zero(6, 2)], 3) == (True, [])
    # a generator that reduces to zero is skipped; one of degree 0 takes every monomial as cofactor
    assert_membership_matches(segre_cubic(8), [GraphPolynomial.zero(8, 2)] + gens, 3)
    unit = GraphPolynomial(6, {(): 1}, degree=0)
    member, cert = assert_membership_matches(segre_cubic(6), [unit], 3)
    assert member and len(cert) == 6
    for k in (2, -1):
        for fn in (ideal_membership, ref.ideal_membership_reference):
            with pytest.raises(DegreeMismatch):
                fn(GraphPolynomial.zero(6, 2), [segre_cubic(6)], k)


def test_membership_with_fractional_coefficients_matches_reference():
    """Generators and candidates with non-integral coefficients: the columns
    then hold Fractions and the certificate several denominators."""
    rng = random.Random(1616)
    generators = [Fraction(rng.choice((1, 2, 3)), rng.choice((2, 3, 5))) * g for g in simple_binomial_relations(8)]
    matchings = enumerate_matchings(8)
    member, cert = assert_membership_matches(Fraction(2, 7) * segre_cubic(8), generators, 3)
    assert member and len({coeff.denominator for _, _, coeff in cert}) > 1
    for _ in range(2):
        poly = Fraction(1, 3) * random_member(rng, generators, matchings)
        member, cert = assert_membership_matches(poly, generators, 3)
        assert member and cert
        extra = tuple(matchings[rng.randrange(len(matchings))] for _ in range(3))
        poly = poly + GraphPolynomial(8, {extra: Fraction(1, 2)}, degree=3)
        assert assert_membership_matches(poly, generators, 3) == (False, None)


def test_generators_on_other_vertex_counts_are_refused():
    with pytest.raises(VertexCountMismatch):
        ideal_membership(segre_cubic(8), simple_binomial_relations(10), 3)
    with pytest.raises(VertexCountMismatch):
        ideal_membership(segre_cubic(10), simple_binomial_relations(8), 3)


def test_degree_3_multiplication_map_is_onto_at_10():
    basis = len(enumerate_noncrossing(10, (3,) * 10))
    assert basis == 4269
    m = noncrossing_monomial_matrix(10, 3)
    assert (m.rows, m.cols) == (basis, 13244)
    assert rank(m) == basis

