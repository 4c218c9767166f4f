"""Test-only references for the relation families: the direct sum over all
n! vertex permutations that the orbit sum of odd_power_relation replaces,
and the validated constructions of plucker_linear_relations and
simple_binomial_relations, which canonicalize every term again."""

import itertools
from fractions import Fraction

from graphinv.graphs import Graph, canonicalize, enumerate_matchings, multiply, noncrossing_matchings
from graphinv.relations import GraphPolynomial, _perm_sign
from graphinv.straightening import GraphCombination


def odd_power_relation_reference(n: int, g: Graph, i: int) -> GraphPolynomial:
    """Alternating sum over all vertex permutations of the i-th power of
    one matching variable; inputs are assumed valid."""
    cg, _ = canonicalize(g)
    acc: dict[tuple[Graph, ...], int] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        img = Graph(n, [(perm[t - 1], perm[h - 1]) for t, h in cg.edges])
        ci, s = canonicalize(img)
        key = (ci,) * i
        # s**i == s for odd i
        acc[key] = acc.get(key, 0) + _perm_sign(perm) * s
    return GraphPolynomial(n, {k: Fraction(v) for k, v in acc.items() if v}, degree=i)


def plucker_linear_relations_reference(n: int) -> list[GraphCombination]:
    """{ij,kl} - {ik,jl} + {il,jk} for each i<j<k<l and each matching of
    the rest, every term a validated Graph; n is assumed even and >= 4."""
    out = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        i, j, k, l = quad
        rest = [v for v in range(1, n + 1) if v not in quad]
        for gamma in enumerate_matchings(n, rest):
            base = list(gamma.edges)
            terms = {
                Graph(n, base + [(i, j), (k, l)]): Fraction(1),
                Graph(n, base + [(i, k), (j, l)]): Fraction(-1),
                Graph(n, base + [(i, l), (j, k)]): Fraction(1),
            }
            out.append(GraphCombination(n, terms, degree=(1,) * n))
    return out


def simple_binomial_relations_reference(n: int) -> list[GraphPolynomial]:
    """X_{G1.D1} X_{G2.D2} - X_{G1.D2} X_{G2.D1} per 4-subset (only those
    holding vertex 1 at n=8, none at n=6), every factor a validated
    product Graph; n is assumed even and >= 6."""
    if n == 6:
        return []
    quads = itertools.combinations(range(1, n + 1), 4)
    if n == 8:
        quads = [q for q in quads if 1 in q]
    out = []
    for quad in quads:
        i, j, k, l = quad
        d1 = Graph(n, [(i, j), (k, l)])
        d2 = Graph(n, [(i, l), (j, k)])
        rest = [v for v in range(1, n + 1) if v not in quad]
        g1, g2 = noncrossing_matchings(n, rest)[:2]
        terms = {
            (multiply(g1, d1), multiply(g2, d2)): Fraction(1),
            (multiply(g1, d2), multiply(g2, d1)): Fraction(-1),
        }
        out.append(GraphPolynomial(n, terms, degree=2))
    return out
