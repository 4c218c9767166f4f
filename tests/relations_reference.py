"""Test-only references for the relation families: the direct sum over all
n! vertex permutations that the orbit sum of odd_power_relation replaces,
and the validated constructions of plucker_linear_relations and
simple_binomial_relations, which canonicalize every term again.  Also the
assembly of the monomial matrix, the reduction to non-crossing variables
and ideal membership through public objects: every product a validated
Graph straightened by straighten_graph, every coefficient a Fraction, and
membership columns keyed by tuples of Graph."""

import itertools
from fractions import Fraction
from typing import Sequence

from graphinv.errors import DegreeMismatch
from graphinv.graphs import Graph, canonicalize, enumerate_matchings, enumerate_noncrossing, multiply, noncrossing_matchings
from graphinv.linalg import RationalMatrix, in_span
from graphinv.relations import GraphPolynomial, _factor_key, _perm_sign, expand_variable, noncrossing_monomials
from graphinv.straightening import GraphCombination, straighten_graph


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


def noncrossing_monomial_matrix_reference(n: int, k: int) -> RationalMatrix:
    """Column t is the straightened product graph of the t-th degree-k
    monomial, on the non-crossing multidegree-(k,...,k) basis."""
    monos = noncrossing_monomials(n, k)
    basis = enumerate_noncrossing(n, (k,) * n)
    index = {g: i for i, g in enumerate(basis)}
    columns = []
    for mono in monos:
        prod = Graph(n, [e for f in mono for e in f.edges])
        columns.append({index[g]: c for g, c in straighten_graph(prod).terms.items()})
    return RationalMatrix.from_columns(columns, height=len(basis))


def reduce_to_noncrossing_vars_reference(p: GraphPolynomial) -> GraphPolynomial:
    """Every matching variable replaced by its expand_variable combination,
    multiplied out term by term."""
    pairs = []
    for mono, coeff in p.terms.items():
        expansions = [list(expand_variable(f).terms.items()) for f in mono]
        for combo in itertools.product(*expansions):
            c = coeff
            for _, c2 in combo:
                c = c * c2
            pairs.append((tuple(sorted((g for g, _ in combo), key=_factor_key)), c))
    return GraphPolynomial._of(p.n, pairs, p.degree)


def _attach_monomial(mono: tuple[Graph, ...], cof: tuple[Graph, ...]) -> tuple[Graph, ...]:
    return tuple(sorted(mono + cof, key=_factor_key))


def ideal_membership_reference(
    candidate: GraphPolynomial,
    generators: Sequence[GraphPolynomial],
    k: int,
) -> tuple[bool, list[tuple[int, tuple[Graph, ...], Fraction]] | None]:
    """(member, certificate) with columns, cofactors and target keyed by
    tuples of Graph, re-verified through a rebuilt GraphPolynomial."""
    if k < 0:
        raise DegreeMismatch(f"the degree of a slice must be nonnegative, got {k}")
    if candidate.degree is not None and candidate.degree != k:
        raise DegreeMismatch(f"candidate has degree {candidate.degree}, expected {k}")
    n = candidate.n
    monos_k = noncrossing_monomials(n, k)
    index = {m: t for t, m in enumerate(monos_k)}

    reduced = [reduce_to_noncrossing_vars_reference(g) for g in generators]
    cofactors: dict[int, list[tuple[Graph, ...]]] = {}
    columns: list[dict[int, Fraction]] = []
    provenance: list[tuple[int, tuple[Graph, ...]]] = []
    for gi, red in enumerate(reduced):
        if red.is_zero:
            continue
        if red.degree > k:
            raise DegreeMismatch(f"generator {gi} has degree {red.degree} > {k}")
        d = k - red.degree
        if d not in cofactors:
            cofactors[d] = noncrossing_monomials(n, d)
        for cof in cofactors[d]:
            columns.append({index[_attach_monomial(mono, cof)]: c for mono, c in red.terms.items()})
            provenance.append((gi, cof))

    red_cand = reduce_to_noncrossing_vars_reference(candidate)
    target = {index[mono]: c for mono, c in red_cand.terms.items()}
    if not columns:
        return (True, []) if not target else (False, None)
    x = in_span(target, RationalMatrix.from_columns(columns, height=len(monos_k)))
    if x is None:
        return (False, None)
    cert = [(provenance[t][0], provenance[t][1], x[t]) for t in range(len(x)) if x[t]]

    check = ((_attach_monomial(m, cof), coeff * c) for gi, cof, coeff in cert for m, c in reduced[gi].terms.items())
    if GraphPolynomial._of(n, check, k) != red_cand:
        raise AssertionError("membership certificate failed re-verification")
    return (True, cert)
