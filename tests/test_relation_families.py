"""The relation families built canonical, and the quadric kernel vectors.

plucker_linear_relations and simple_binomial_relations build their terms
through the trusted constructors; they must give, term for term and in
iteration order, what the validated constructions in
tests/relations_reference.py give, and the Plucker family holds one Graph
object per matching.  quadric_relation_space(10) is pinned by the SHA-256
of its repr."""

import hashlib
import math
from fractions import Fraction

import pytest

from graphinv.graphs import Graph
from graphinv.linalg import _ZERO
from graphinv.relations import (
    GraphPolynomial,
    plucker_linear_relations,
    quadric_relation_space,
    simple_binomial_relations,
)
from graphinv.straightening import GraphCombination

from relations_reference import plucker_linear_relations_reference, simple_binomial_relations_reference

# sha256(repr(quadric_relation_space(10))) of the dense Fraction kernel
# vectors: 300 vectors of length 903
QUADRIC_10_REPR_SHA256 = "ce09a764c6f74de286a694fcb07c264908b0d751af9bf6f32c9875c27564be1b"


def graph_fields(g: Graph):
    assert type(g.edges) is tuple and all(type(e) is tuple and len(e) == 2 for e in g.edges)
    assert all(type(x) is int for e in g.edges for x in e)
    return g.n, g.edges, g._key, hash(g)


def key_fields(key):
    if isinstance(key, Graph):
        return graph_fields(key)
    return tuple(graph_fields(f) for f in key)


def term_list(c):
    for coeff in c.terms.values():
        assert type(coeff) is (int if coeff.denominator == 1 else Fraction)
    return [(key_fields(k), coeff) for k, coeff in c.terms.items()]


def assert_same_family(got, want, cls):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is cls and type(b) is cls
        assert (a.n, a.degree) == (b.n, b.degree)
        assert term_list(a) == term_list(b)
        assert a == b


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_plucker_matches_the_validated_construction(n):
    # C(n,4) quadruples times (n-5)!! matchings of the rest: 51,975 at n=12
    got = plucker_linear_relations(n)
    assert len(got) == math.comb(n, 4) * math.prod(range(n - 5, 0, -2))
    assert_same_family(got, plucker_linear_relations_reference(n), GraphCombination)


@pytest.mark.parametrize("n, distinct", [(4, 3), (6, 15), (8, 105), (10, 945)])
def test_plucker_family_shares_one_graph_per_matching(n, distinct):
    # every matching of 1..n is one Graph object, held by every relation
    # that holds it
    graphs = [g for c in plucker_linear_relations(n) for g in c.terms]
    assert len({id(g) for g in graphs}) == distinct
    first = {}
    for g in graphs:
        assert first.setdefault(g._key, g) is g
    assert len(first) == distinct


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_simple_binomials_match_the_validated_construction(n):
    assert_same_family(simple_binomial_relations(n), simple_binomial_relations_reference(n), GraphPolynomial)


@pytest.mark.parametrize("n", [8, 10, 12, 14])
def test_simple_binomials_share_the_complement_matchings(n):
    # the first two matchings of 1..n-4, relabelled onto each complement,
    # are those that noncrossing_matchings(n, complement) gives per subset
    assert repr(simple_binomial_relations(n)) == repr(simple_binomial_relations_reference(n))


def test_family_terms_are_canonical():
    for c in plucker_linear_relations(8):
        for g in c.terms:
            assert list(g.edges) == sorted(g.edges) and all(t < h for t, h in g.edges)
            assert g == Graph(g.n, g.edges)
    for p in simple_binomial_relations(10):
        for mono in p.terms:
            assert list(mono) == sorted(mono, key=lambda f: f.edges)
            for f in mono:
                assert list(f.edges) == sorted(f.edges) and all(t < h for t, h in f.edges)
                assert f.is_matching()


def test_quadric_relation_space_10_is_pinned():
    q = quadric_relation_space(10)
    assert len(q) == 300 and all(len(v) == 903 for v in q)
    assert hashlib.sha256(repr(q).encode()).hexdigest() == QUADRIC_10_REPR_SHA256
    zeros = [x for v in q for x in v if not x]
    assert zeros and all(x is _ZERO for x in zeros)
    assert all(type(x) is Fraction for v in q for x in v)
