"""The contract of the combination core shared by GraphCombination and
GraphPolynomial: one canonical result whatever the input form, order or
orientations, and a trusted path that agrees with the checked one."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.errors import DegreeMismatch, VertexCountMismatch
from graphinv.graphs import Graph, enumerate_matchings
from graphinv.relations import GraphPolynomial
from graphinv.straightening import GraphCombination

N = 6
MATCHINGS = enumerate_matchings(N)


def scrambled(g: Graph, rng: random.Random) -> Graph:
    """g with random edge orientations and a random edge order."""
    edges = [(h, t) if rng.random() < 0.5 else (t, h) for t, h in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, edges)


def random_pairs(cls, seed: int, count: int, degree: int):
    """count (key, coefficient) pairs for cls: monomials of `degree`
    matchings, or graphs that are products of `degree` matchings."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        factors = [scrambled(rng.choice(MATCHINGS[:4]), rng) for _ in range(degree)]
        if cls is GraphCombination:
            edges = [e for f in factors for e in f.edges]
            rng.shuffle(edges)
            key = Graph(N, edges)
        else:
            key = tuple(factors)
        pairs.append((key, Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
    return pairs


def as_dict(pairs):
    acc = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return acc


def items(c):
    return list(c.terms.items())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([GraphCombination, GraphPolynomial]),
    st.integers(0, 2**32),
    st.integers(0, 12),
    st.integers(1, 3),
)
def test_every_input_form_gives_one_canonical_result(cls, seed, count, degree):
    pairs = random_pairs(cls, seed, count, degree)
    built = cls(N, pairs)
    assert items(cls(N, as_dict(pairs))) == items(built)
    shuffled = pairs[:]
    random.Random(seed + 1).shuffle(shuffled)
    assert items(cls(N, shuffled)) == items(built)
    assert all(c and type(c) is (int if c.denominator == 1 else Fraction) for c in built.terms.values())

    canonical = []
    for key, coeff in pairs:
        if coeff:
            ckey, sign, d = cls._canonical_key(N, key)
            canonical.append((ckey, sign * coeff))
    trusted = cls._of(N, canonical, built.degree)
    assert items(trusted) == items(built) and trusted.degree == built.degree


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([GraphCombination, GraphPolynomial]), st.integers(0, 2**32), st.integers(1, 8))
def test_arithmetic_agrees_with_construction(cls, seed, count):
    p = cls(N, random_pairs(cls, seed, count, 2))
    q = cls(N, random_pairs(cls, seed + 1, count, 2))
    assert items(p + q) == items(cls(N, [*p.terms.items(), *q.terms.items()]))
    assert (p - p).is_zero and (p - p).degree == p.degree
    assert items(-p) == [(k, -c) for k, c in p.terms.items()]
    assert (0 * p).is_zero
    assert p == cls(N, p.terms) and (p == q) == (items(p) == items(q))


def test_a_list_degree_is_stored_as_a_tuple():
    g = Graph(4, [(1, 2)])
    c = GraphCombination(4, {g: 1}, degree=[1, 1, 0, 0])
    assert c.degree == (1, 1, 0, 0)
    assert GraphCombination.zero(4, degree=[1, 1, 0, 0]).degree == (1, 1, 0, 0)
    with pytest.raises(DegreeMismatch):
        GraphCombination(4, {g: 1}, degree=[1, 1, 1, 1])


def test_mixed_degrees_and_vertex_counts_are_refused():
    m = MATCHINGS[0]
    with pytest.raises(DegreeMismatch):
        GraphCombination(N, [(m, 1), (Graph(N, m.edges + m.edges), 1)])
    with pytest.raises(DegreeMismatch):
        GraphPolynomial(N, [((m,), 1), ((m, m), 1)])
    with pytest.raises(DegreeMismatch):
        GraphPolynomial(N, [((m,), 1)]) + GraphPolynomial(N, [((m, m), 1)])
    with pytest.raises(VertexCountMismatch):
        GraphCombination(N, [(m, 1)]) + GraphCombination(4, [(Graph(4, [(1, 2), (3, 4)]), 1)])
