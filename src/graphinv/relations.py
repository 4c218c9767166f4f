"""Relation families of the invariant ring, normal forms, and exact
ideal-membership certificates.

Polynomials here live in the ring whose variables are perfect matchings
of 1..n.  Linear relations (sign flips and three-term exchanges) let every
variable be rewritten in the non-crossing matchings, and products of
non-crossing variables are compared through the non-crossing basis of the
regular multidegrees, which decides whether a polynomial is a relation.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadExponent,
    DegreeMismatch,
    LengthMismatch,
    MalformedInput,
    NotAMatching,
    OddVertexCount,
    VertexCountMismatch,
    VertexCountTooSmall,
)
from .evaluation import Configuration, _bracket, _fraction, _ratio_sum
from .graphs import (
    Combination,
    Graph,
    _coefficient,
    _exact,
    _terms_document,
    canonicalize,
    enumerate_matchings,
    enumerate_noncrossing,
    graph_from_json,
    graph_to_json,
    noncrossing_matchings,
)
from .linalg import RationalMatrix, _dependencies, in_span, kernel_basis
from .straightening import GraphCombination, _expand, _normal_form, straighten, straighten_graph


def _factor_key(g: Graph):
    return g.edges


class GraphPolynomial(Combination):
    """Polynomial in perfect-matching variables.

    terms maps a monomial, stored as a sorted tuple of canonical matchings,
    to a nonzero rational coefficient; all monomials share one length (the
    degree).  Orientation flips fold into the coefficients on construction.
    """

    __slots__ = ()

    @staticmethod
    def _canonical_key(n: int, mono: tuple[Graph, ...]):
        sign = 1
        canon = []
        for f in mono:
            if f.n != n:
                raise VertexCountMismatch(f"factor on {f.n} vertices in a polynomial on {n}")
            cf, s = canonicalize(f)
            if not cf.is_matching():
                raise NotAMatching(f"{f!r} is not a perfect matching")
            sign *= s
            canon.append(cf)
        return tuple(sorted(canon, key=_factor_key)), sign, len(canon)

    @staticmethod
    def _order(mono: tuple[Graph, ...]):
        return tuple(g.edges for g in mono)

    def __repr__(self):
        if self.is_zero:
            return f"GraphPolynomial({self.n}; 0)"
        return f"GraphPolynomial({self.n}; {len(self.terms)} terms, degree {self.degree})"


def evaluate_polynomial(p: GraphPolynomial, c: Configuration) -> Fraction:
    """Sum over terms of coeff times the product of factor evaluations.

    A monomial's product is the bracket of its factors' edges taken
    together, so each term is one integer (num, den)."""
    if p.n != c.n:
        raise LengthMismatch(f"polynomial on {p.n} vertices, configuration of {c.n} points")
    pts = c._scaled
    terms = ((coeff, *_bracket([e for f in mono for e in f.edges], pts)) for mono, coeff in p.terms.items())
    return _fraction(*_ratio_sum(terms))


def _check_vertex_count(n: int, least: int) -> None:
    if n % 2:
        raise OddVertexCount(f"{n} vertices admit no perfect matchings")
    if n < least:
        raise VertexCountTooSmall(f"need at least {least} vertices")


def _canonical_graph(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """The graph on valid edges, each oriented tail < head, once sorted;
    built without re-checking them."""
    return Graph._canonical(n, tuple(sorted(edges)))


def _canonical_monomial(n: int, *factors: tuple[tuple[int, int], ...]) -> tuple[Graph, ...]:
    """The canonical monomial of matchings given as tail < head edge tuples."""
    return tuple(sorted((_canonical_graph(n, f) for f in factors), key=_factor_key))


def plucker_linear_relations(n: int) -> list[GraphCombination]:
    """Three-term exchange relations among matchings: for each four vertices
    i<j<k<l and each matching of the rest, {ij,kl} - {ik,jl} + {il,jk}."""
    _check_vertex_count(n, 4)
    degree = (1,) * n
    out = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        i, j, k, l = quad
        rest = [v for v in range(1, n + 1) if v not in quad]
        for gamma in enumerate_matchings(n, rest):
            base = gamma.edges
            terms = (
                (_canonical_graph(n, base + ((i, j), (k, l))), 1),
                (_canonical_graph(n, base + ((i, k), (j, l))), -1),
                (_canonical_graph(n, base + ((i, l), (j, k))), 1),
            )
            out.append(GraphCombination._of(n, terms, degree))
    return out


def simple_binomial_relations(n: int) -> list[GraphPolynomial]:
    """Quadric binomials X_{G1.D1} X_{G2.D2} - X_{G1.D2} X_{G2.D1}.

    The D's are the two non-crossing matchings of a 4-subset and the G's the
    first two non-crossing matchings of its complement.  Both monomials have
    the same underlying edge multiset, so each binomial vanishes identically.
    For n=8 the 4-subset and its complement play symmetric roles, so only
    subsets containing vertex 1 are used (35 of them); n=6 has none.
    """
    _check_vertex_count(n, 6)
    if n == 6:
        return []
    if n == 8:
        quads = [q for q in itertools.combinations(range(1, 9), 4) if 1 in q]
    else:
        quads = list(itertools.combinations(range(1, n + 1), 4))
    out = []
    for quad in quads:
        i, j, k, l = quad
        d1 = ((i, j), (k, l))
        d2 = ((i, l), (j, k))
        rest = [v for v in range(1, n + 1) if v not in quad]
        g1, g2 = (g.edges for g in noncrossing_matchings(n, rest)[:2])
        terms = (
            (_canonical_monomial(n, g1 + d1, g2 + d2), 1),
            (_canonical_monomial(n, g1 + d2, g2 + d1), -1),
        )
        out.append(GraphPolynomial._of(n, terms, 2))
    return out


def noncrossing_monomials(n: int, k: int) -> list[tuple[Graph, ...]]:
    """Degree-k monomials in the non-crossing matching variables, in
    combinations-with-replacement order over the lex-ordered variables."""
    return list(itertools.combinations_with_replacement(noncrossing_matchings(n), k))


def noncrossing_monomial_matrix(n: int, k: int) -> RationalMatrix:
    """Matrix of the multiplication map: column t is the normal form of the
    t-th degree-k monomial's product graph, in the non-crossing
    multidegree-(k,...,k) basis.

    Built on sorted edge tuples with int coefficients: each distinct
    product is expanded once by the straightening kernel and goes straight
    to its basis rows."""
    monos = noncrossing_monomials(n, k)
    index = {g.edges: i for i, g in enumerate(enumerate_noncrossing(n, (k,) * n))}
    expanded: dict[tuple, dict[int, int]] = {}
    columns = []
    for mono in monos:
        prod = tuple(sorted([e for f in mono for e in f.edges]))
        col = expanded.get(prod)
        if col is None:
            col = expanded[prod] = {index[es]: c for es, c in _expand(n, {prod: 1}).items()}
        columns.append(col)
    return RationalMatrix.from_columns(columns, height=len(index))


def quadric_relation_space(n: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis of the degree-2 monomial multiplication map, i.e. the
    quadric relations in non-crossing matching variables, as primitive
    integer coordinate vectors over noncrossing_monomials(n, 2)."""
    _check_vertex_count(n, 4)
    return kernel_basis(noncrossing_monomial_matrix(n, 2))


@functools.cache
def _segre6() -> GraphPolynomial:
    monos = noncrossing_monomials(6, 3)
    ker = kernel_basis(noncrossing_monomial_matrix(6, 3))
    assert len(ker) == 1, "the cubic relation space for n=6 must be one-dimensional"
    vec = ker[0]
    poly = GraphPolynomial(6, {monos[t]: vec[t] for t in range(len(monos)) if vec[t]}, degree=3)
    return (-1) * poly if next(iter(poly.terms.values())) < 0 else poly


def segre_cubic(n: int) -> GraphPolynomial:
    """The cubic relation among matching variables.

    For n=6 it is the unique cubic relation (kernel generator of the
    degree-3 multiplication map, primitive integer coefficients, positive
    leading term in lexicographic monomial order).  For larger even n every
    factor is extended by the horizontal edges (7,8), (9,10), ..., which
    multiplies every evaluation by the same nonzero factor, so the result
    is again a relation."""
    _check_vertex_count(n, 6)
    base = _segre6()
    if n == 6:
        return base
    extra = [(v, v + 1) for v in range(7, n, 2)]
    terms = {
        tuple(Graph(n, list(f.edges) + extra) for f in mono): coeff
        for mono, coeff in base.terms.items()
    }
    return GraphPolynomial(n, terms, degree=3)


def _perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def odd_power_relation(n: int, g: Graph, i: int) -> GraphPolynomial:
    """Alternating sum over all vertex permutations of the i-th power of one
    matching variable; a relation for odd i with 1 < i < n-1.

    Summed as an orbit: the permutations that carry g onto a matching m
    form a coset of g's stabilizer (2^(n/2) (n/2)! permutations), on which
    sign(perm) times the orientation sign is constant.  So m gets
    2^(n/2) (n/2)! sign(pi), pi sending the k-th edge of canonical g onto
    the k-th edge of m (s**i == s for odd i)."""
    if n % 2:
        raise OddVertexCount(f"{n} vertices admit no perfect matchings")
    cg, _ = canonicalize(g)
    if cg.n != n or not cg.is_matching():
        raise NotAMatching(f"{g!r} is not a perfect matching on {n} vertices")
    if i % 2 == 0 or not (1 < i < n - 1):
        raise BadExponent(f"exponent must be odd with 1 < i < {n - 1}, got {i}")
    weight = 2 ** (n // 2) * math.factorial(n // 2)
    pairs = []
    for m in enumerate_matchings(n):
        pi = [0] * n
        for (a, b), (c, d) in zip(cg.edges, m.edges):
            pi[a - 1], pi[b - 1] = c, d
        pairs.append(((m,) * i, weight * _perm_sign(pi)))
    return GraphPolynomial._of(n, pairs, i)


def expand_variable(m: Graph) -> GraphCombination:
    """One matching variable rewritten on the non-crossing matchings."""
    cm, _ = canonicalize(m)
    if not cm.is_matching():
        raise NotAMatching(f"{m!r} is not a perfect matching")
    return straighten_graph(m)


@functools.cache
def _variable(m: Graph) -> dict[tuple, int]:
    """_normal_form of a canonical matching: the table of matching
    variables, at most (n-1)!! entries per n.  Values are shared between
    callers; never mutate one."""
    return _normal_form(m)


def _reduced_terms(p: GraphPolynomial) -> dict[tuple, int | Fraction]:
    """The terms of reduce_to_noncrossing_vars(p) as {sorted tuple of
    factor edge tuples: nonzero coefficient}, in no particular order."""
    acc: dict[tuple, int | Fraction] = {}
    for mono, coeff in p.terms.items():
        for combo in itertools.product(*(_variable(f).items() for f in mono)):
            c = coeff
            for _, k in combo:
                c *= k
            key = tuple(sorted([es for es, _ in combo]))
            acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def reduce_to_noncrossing_vars(p: GraphPolynomial) -> GraphPolynomial:
    """Substitute the non-crossing expansion for every matching variable and
    expand; the image of p in the polynomial ring on non-crossing matching
    variables (the quotient by sign and exchange linear relations)."""
    n = p.n
    pairs = ((tuple(Graph._canonical(n, es) for es in mono), c) for mono, c in _reduced_terms(p).items())
    return GraphPolynomial._of(n, pairs, p.degree)


def ring_normal_form(p: GraphPolynomial) -> GraphCombination:
    """Multiply out each monomial into one graph, straighten, and sum.

    p vanishes on every configuration iff the result is the zero
    combination, by linear independence of the non-crossing basis."""
    prods = [(Graph(p.n, [e for f in mono for e in f.edges]), coeff) for mono, coeff in p.terms.items()]
    deg = (p.degree,) * p.n if p.degree is not None else None
    return straighten(GraphCombination(p.n, prods, degree=deg))


def ideal_membership(
    candidate: GraphPolynomial,
    generators: Sequence[GraphPolynomial],
    k: int,
) -> tuple[bool, list[tuple[int, tuple[Graph, ...], int | Fraction]] | None]:
    """Decide degree-k membership in the homogeneous ideal of the generators.

    Everything is first pushed into the polynomial ring on non-crossing
    matching variables; the degree-k slice of the ideal there is spanned by
    cofactor-monomial times reduced-generator products.  Returns (member,
    certificate); the certificate lists (generator index, cofactor monomial,
    coefficient) triples, each coefficient an int when integral, with
        candidate = sum coeff * cofactor * generator
    as reduced polynomials, re-verified exactly before returning."""
    if k < 0:
        raise DegreeMismatch(f"the degree of a slice must be nonnegative, got {k}")
    if candidate.degree is not None and candidate.degree != k:
        raise DegreeMismatch(f"candidate has degree {candidate.degree}, expected {k}")
    n = candidate.n
    for gi, g in enumerate(generators):
        if g.n != n:
            raise VertexCountMismatch(f"generator {gi} is on {g.n} vertices, the candidate on {n}")
    # monomials as sorted tuples of factor edge tuples; Graphs only in the certificate
    graph_of = {g.edges: g for g in noncrossing_matchings(n)}
    index = {m: t for t, m in enumerate(itertools.combinations_with_replacement(graph_of, k))}

    reduced = [_reduced_terms(g) for g in generators]
    by_degree: dict[int, list[int]] = {}
    for gi, red in enumerate(reduced):
        if not red:
            continue
        if generators[gi].degree > k:
            raise DegreeMismatch(f"generator {gi} has degree {generators[gi].degree} > {k}")
        by_degree.setdefault(generators[gi].degree, []).append(gi)
    # a generator in the span of earlier ones of its degree only adds
    # columns in the span of earlier columns (generator-major order), so
    # dropping it leaves the greedy independent columns and the certificate
    redundant = set()
    for gis in by_degree.values():
        mono_row: dict[tuple, int] = {}
        cols = [{mono_row.setdefault(mono, len(mono_row)): c for mono, c in reduced[gi].items()} for gi in gis]
        gens = RationalMatrix._of(len(mono_row), cols)
        redundant.update(gis[j] for j, _, _ in _dependencies(gens, provenance=False))

    cofactors: dict[int, list[tuple]] = {}
    # cofactor -> {monomial: index of monomial * cofactor}, filled as met:
    # the kept generators share most of their monomials (207 terms over 53
    # distinct monomials at n=8, 2,459 over 316 at n=10), so each product
    # is sorted and looked up once, not once per generator holding it
    row_of: dict[tuple, dict[tuple, int]] = {}
    columns: list[dict[int, int | Fraction]] = []
    provenance: list[tuple[int, tuple]] = []
    for gi, red in enumerate(reduced):
        if not red or gi in redundant:
            continue
        d = k - generators[gi].degree
        if d not in cofactors:
            cofactors[d] = list(itertools.combinations_with_replacement(graph_of, d))
        for cof in cofactors[d]:
            at = row_of.setdefault(cof, {})
            # one cofactor maps distinct monomials to distinct ones: no collisions
            col = {}
            for mono, c in red.items():
                row = at.get(mono)
                if row is None:
                    row = at[mono] = index[tuple(sorted(mono + cof))]
                col[row] = c
            columns.append(col)
            provenance.append((gi, cof))

    red_cand = _reduced_terms(candidate)
    target = {index[mono]: c for mono, c in red_cand.items()}
    x = in_span(target, RationalMatrix.from_columns(columns, height=len(index)))
    if x is None:
        return (False, None)
    used = [(*provenance[t], _exact(x[t])) for t in range(len(x)) if x[t]]

    # den * candidate = sum (den * coeff) * cofactor * generator, with every
    # den * coeff an int
    den = math.lcm(*(coeff.denominator for _, _, coeff in used))
    check: dict[tuple, int | Fraction] = {}
    for gi, cof, coeff in used:
        a = coeff.numerator * (den // coeff.denominator)
        for mono, c in reduced[gi].items():
            key = tuple(sorted(mono + cof))
            check[key] = check.get(key, 0) + a * c
    if {key: c for key, c in check.items() if c} != {key: den * c for key, c in red_cand.items()}:
        raise AssertionError("membership certificate failed re-verification")
    return (True, [(gi, tuple(graph_of[f] for f in cof), coeff) for gi, cof, coeff in used])


def polynomial_to_json(p: GraphPolynomial) -> dict:
    return {
        "n": p.n,
        "terms": [
            {"coeff": str(coeff), "monomial": [graph_to_json(f) for f in mono]}
            for mono, coeff in p.terms.items()
        ],
    }


def polynomial_from_json(obj: dict) -> GraphPolynomial:
    """Parse the form polynomial_to_json writes; any other shape raises
    MalformedInput."""
    n, entries = _terms_document(obj, ("coeff", "monomial"))
    terms = []
    for entry in entries:
        if not isinstance(entry["monomial"], list):
            raise MalformedInput('"monomial" must be a list of graphs')
        coeff = _coefficient(entry["coeff"])
        mono = tuple(graph_from_json(g) for g in entry["monomial"])
        # checked here too: the constructor skips the factors of a zero term
        for g in mono:
            if g.n != n:
                raise VertexCountMismatch(f"factor on {g.n} vertices in a polynomial on {n}")
        terms.append((mono, coeff))
    return GraphPolynomial(n, terms)


def certificate_to_json(cert) -> list[dict]:
    return [
        {
            "generator_index": gi,
            "cofactor_monomial": [graph_to_json(f) for f in cof],
            "coeff": str(coeff),
        }
        for gi, cof, coeff in cert
    ]
