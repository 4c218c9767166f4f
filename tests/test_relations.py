import itertools
import math
import random
from fractions import Fraction

import pytest

from graphinv.errors import (
    BadExponent,
    DegreeMismatch,
    NotAMatching,
    OddVertexCount,
    VertexCountMismatch,
    VertexCountTooSmall,
)
from graphinv.evaluation import (
    Configuration,
    evaluate,
    evaluate_combination,
    random_stable_configuration,
)
from graphinv.graphs import Graph, noncrossing_matchings
from graphinv.linalg import RationalMatrix, rank
from graphinv.relations import (
    GraphPolynomial,
    certificate_to_json,
    evaluate_polynomial,
    expand_variable,
    ideal_membership,
    noncrossing_monomials,
    odd_power_relation,
    plucker_linear_relations,
    polynomial_from_json,
    polynomial_to_json,
    quadric_relation_space,
    reduce_to_noncrossing_vars,
    ring_normal_form,
    segre_cubic,
    simple_binomial_relations,
)
from graphinv.straightening import straighten


def stable_configs(n, count=10, seed=100):
    w = (1,) * n
    return [random_stable_configuration(w, seed=seed + t) for t in range(count)]


def as_poly(comb):
    return GraphPolynomial(comb.n, {(g,): c for g, c in comb.terms.items()}, degree=1)


M1_4 = Graph(4, [(1, 2), (3, 4)])
M2_4 = Graph(4, [(1, 4), (2, 3)])
MX_4 = Graph(4, [(1, 3), (2, 4)])


def test_polynomial_construction_folds_orientation():
    p = GraphPolynomial(4, {(Graph(4, [(2, 1), (3, 4)]),): 3})
    assert p.terms == {(M1_4,): Fraction(-3)}
    q = GraphPolynomial(4, {(M1_4, MX_4): 2, (MX_4, M1_4): -2})
    assert q.is_zero and q.degree == 2


def test_polynomial_validation():
    with pytest.raises(NotAMatching):
        GraphPolynomial(4, {(Graph(4, [(1, 2), (1, 3)]),): 1})
    with pytest.raises(VertexCountMismatch):
        GraphPolynomial(4, {(Graph(6, [(1, 2), (3, 4), (5, 6)]),): 1})
    with pytest.raises(DegreeMismatch):
        GraphPolynomial(4, {(M1_4,): 1, (M1_4, M2_4): 1})


def test_polynomial_algebra():
    p = GraphPolynomial(4, {(M1_4,): 1})
    q = GraphPolynomial(4, {(M1_4,): 2, (M2_4,): -1})
    assert (p + q).terms == {(M1_4,): Fraction(3), (M2_4,): Fraction(-1)}
    assert (q - 2 * p).terms == {(M2_4,): Fraction(-1)}
    assert GraphPolynomial.zero(4, 2).is_zero
    c = Configuration.from_affine([0, 1, 2, 5])
    assert evaluate_polynomial(q, c) == 2 * Fraction(1 * 3) - Fraction(5 * 1)


def test_plucker_counts():
    assert len(plucker_linear_relations(4)) == 1
    assert len(plucker_linear_relations(6)) == 15
    with pytest.raises(OddVertexCount):
        plucker_linear_relations(5)


def test_plucker_relations_straighten_to_zero():
    for rel in plucker_linear_relations(4) + plucker_linear_relations(6):
        assert straighten(rel).is_zero
        assert reduce_to_noncrossing_vars(as_poly(rel)).is_zero


def test_binomial_counts():
    assert simple_binomial_relations(6) == []
    assert len(simple_binomial_relations(8)) == 35
    assert len(simple_binomial_relations(10)) == 210


def test_binomial_relations_vanish():
    configs = stable_configs(8)
    rels = simple_binomial_relations(8)
    for rel in rels[::7]:
        assert ring_normal_form(rel).is_zero
        for c in configs:
            assert evaluate_polynomial(rel, c) == 0


def test_binomials_span_quadric_space():
    reduced = [reduce_to_noncrossing_vars(r) for r in simple_binomial_relations(8)]
    monos = noncrossing_monomials(8, 2)
    index = {m: t for t, m in enumerate(monos)}
    cols = [{index[mono]: c for mono, c in r.terms.items()} for r in reduced]
    assert rank(RationalMatrix.from_columns(cols, height=len(monos))) == 14


def test_noncrossing_monomials():
    ms = noncrossing_matchings(6)
    monos = noncrossing_monomials(6, 2)
    assert monos == list(itertools.combinations_with_replacement(ms, 2))
    assert len(noncrossing_monomials(8, 2)) == 105
    assert len(noncrossing_monomials(6, 3)) == 35
    assert noncrossing_monomials(4, 0) == [()]


def test_quadric_space_dimensions():
    assert quadric_relation_space(4) == []
    assert quadric_relation_space(6) == []
    vecs = quadric_relation_space(8)
    assert len(vecs) == 14
    monos = noncrossing_monomials(8, 2)
    configs = stable_configs(8, count=3)
    for v in vecs[:3]:
        p = GraphPolynomial(8, {m: c for m, c in zip(monos, v) if c}, degree=2)
        assert ring_normal_form(p).is_zero
        for c in configs:
            assert evaluate_polynomial(p, c) == 0


def test_segre_cubic_six():
    s = segre_cubic(6)
    assert s.degree == 3 and len(s.terms) == 6
    coeffs = sorted(s.terms.values())
    assert coeffs == [Fraction(-1)] + [Fraction(1)] * 5
    assert all(c.denominator == 1 for c in s.terms.values())
    g = 0
    for c in s.terms.values():
        g = math.gcd(g, int(c))
    assert g == 1
    assert next(iter(s.terms.values())) > 0
    for c in stable_configs(6):
        assert evaluate_polynomial(s, c) == 0
    assert ring_normal_form(s).is_zero
    assert not reduce_to_noncrossing_vars(s).is_zero


def test_segre_cubic_eight_extends_six():
    s6 = segre_cubic(6)
    s8 = segre_cubic(8)
    lifted = {}
    for mono, c in s6.terms.items():
        key = tuple(Graph(8, list(f.edges) + [(7, 8)]) for f in mono)
        lifted[key] = c
    assert s8 == GraphPolynomial(8, lifted, degree=3)
    for c in stable_configs(8, count=5):
        assert evaluate_polynomial(s8, c) == 0
    assert ring_normal_form(s8).is_zero
    with pytest.raises(VertexCountTooSmall):
        segre_cubic(4)


def test_odd_power_relation():
    base = noncrossing_matchings(6)[0]
    p = odd_power_relation(6, base, 3)
    assert len(p.terms) == 15
    assert all(len(m) == 3 and m[0] == m[1] == m[2] for m in p.terms)
    for c in stable_configs(6, count=5):
        assert evaluate_polynomial(p, c) == 0
    assert ring_normal_form(p).is_zero


def test_odd_power_is_segre_up_to_scalar():
    base = noncrossing_matchings(6)[0]
    r_odd = reduce_to_noncrossing_vars(odd_power_relation(6, base, 3))
    r_seg = reduce_to_noncrossing_vars(segre_cubic(6))
    mono = next(iter(r_seg.terms))
    ratio = Fraction(r_odd.terms[mono], r_seg.terms[mono])
    assert ratio == 288
    assert r_odd == ratio * r_seg


def test_odd_power_errors():
    base = noncrossing_matchings(6)[0]
    for bad in (2, 4, 1, -1, 5, 7):
        with pytest.raises(BadExponent):
            odd_power_relation(6, base, bad)
    with pytest.raises(NotAMatching):
        odd_power_relation(6, Graph(6, [(1, 2), (1, 3), (5, 6)]), 3)
    with pytest.raises(OddVertexCount):
        odd_power_relation(5, base, 3)


def test_expand_variable():
    nc = Graph(4, [(1, 2), (3, 4)])
    assert expand_variable(nc).terms == {nc: Fraction(1)}
    out = expand_variable(MX_4)
    assert out.terms == {M1_4: Fraction(1), M2_4: Fraction(1)}
    with pytest.raises(NotAMatching):
        expand_variable(Graph(4, [(1, 2), (1, 3)]))
    for m in (MX_4, Graph(6, [(1, 4), (2, 6), (3, 5)])):
        cc = Configuration.from_affine([x * x + 1 for x in range(m.n)])
        assert evaluate_combination(expand_variable(m), cc) == evaluate(m, cc)


def test_reduce_to_noncrossing_vars():
    p = GraphPolynomial(4, {(M1_4, M2_4): 3})
    assert reduce_to_noncrossing_vars(p) == p
    q = GraphPolynomial(4, {(MX_4, MX_4): 1})
    r = reduce_to_noncrossing_vars(q)
    assert set(r.terms) == {(M1_4, M1_4), (M1_4, M2_4), (M2_4, M2_4)}
    for c in stable_configs(4, count=5):
        assert evaluate_polynomial(r, c) == evaluate_polynomial(q, c)


def test_ring_normal_form_zero_cases():
    assert ring_normal_form(GraphPolynomial.zero(6, 2)).is_zero
    for rel in plucker_linear_relations(6)[:4]:
        assert ring_normal_form(as_poly(rel)).is_zero
    # a non-relation has nonzero normal form
    p = GraphPolynomial(4, {(M1_4,): 1})
    assert not ring_normal_form(p).is_zero


def test_ideal_membership_segre8():
    gens = simple_binomial_relations(8)
    ok, cert = ideal_membership(segre_cubic(8), gens, 3)
    assert ok and cert
    reduced = [reduce_to_noncrossing_vars(g) for g in gens]
    acc = GraphPolynomial.zero(8, 3)
    for gi, cof, coeff in cert:
        terms = {}
        for mono, c in reduced[gi].terms.items():
            key = tuple(sorted(mono + cof, key=lambda g: g.edges))
            terms[key] = terms.get(key, Fraction(0)) + coeff * c
        acc = acc + GraphPolynomial(8, terms, degree=3)
    assert acc == reduce_to_noncrossing_vars(segre_cubic(8))


def test_ideal_membership_segre6_fails():
    ok, cert = ideal_membership(segre_cubic(6), simple_binomial_relations(6), 3)
    assert not ok and cert is None


def test_ideal_membership_trivia():
    gens = simple_binomial_relations(8)[:2]
    ok, cert = ideal_membership(GraphPolynomial.zero(8, 3), gens, 3)
    assert ok and cert == []
    with pytest.raises(DegreeMismatch):
        ideal_membership(segre_cubic(6), [], 2)


def test_polynomial_json_round_trip():
    p = segre_cubic(6)
    j = polynomial_to_json(p)
    assert j["n"] == 6
    assert all(set(t) == {"coeff", "monomial"} for t in j["terms"])
    assert polynomial_from_json(j) == p
    # reversed edges in the wire form fold back into coefficients
    q = GraphPolynomial(4, {(MX_4,): Fraction(1, 2)})
    j2 = polynomial_to_json(q)
    j2["terms"][0]["monomial"][0]["edges"] = [[3, 1], [2, 4]]
    assert polynomial_from_json(j2).terms == {(MX_4,): Fraction(-1, 2)}


def test_certificate_json():
    gens = simple_binomial_relations(8)
    ok, cert = ideal_membership(segre_cubic(8), gens, 3)
    assert ok
    rows = certificate_to_json(cert)
    assert len(rows) == len(cert)
    for row, (gi, cof, coeff) in zip(rows, cert):
        assert row["generator_index"] == gi
        assert Fraction(row["coeff"]) == coeff
        assert len(row["cofactor_monomial"]) == len(cof)
