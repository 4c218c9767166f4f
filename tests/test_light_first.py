"""Light-first row order in graphinv.linalg: results do not depend on the
order of the rows, the order keeps the fill-in of the membership matrix
down, pruned or not, and the simple quadrics span the degree-3 relations
at n=8."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
import relations_reference as relations_ref
from graphinv import linalg, relations
from graphinv.graphs import Graph, enumerate_noncrossing, noncrossing_matchings
from graphinv.linalg import RationalMatrix, in_span, kernel_basis, rank
from graphinv.relations import (
    GraphPolynomial,
    ideal_membership,
    noncrossing_monomials,
    reduce_to_noncrossing_vars,
    segre_cubic,
    simple_binomial_relations,
)
from test_linalg_sparse import random_sparse_columns, targets_for


def permuted(col, perm):
    return {perm[i]: v for i, v in col.items()}


def assert_row_order_invariant(cols, height, targets, rng):
    """rank, kernel_basis and in_span agree, by repr, on the matrix, on a
    random row permutation of it (targets permuted alike) and in the
    reference engine."""
    perm = list(range(height))
    rng.shuffle(perm)
    m = RationalMatrix.from_columns(cols, height=height)
    pm = RationalMatrix.from_columns([permuted(c, perm) for c in cols], height=height)
    assert rank(m) == rank(pm) == ref.rank(m)
    assert repr(kernel_basis(m)) == repr(kernel_basis(pm)) == repr(ref.kernel_basis(m))
    for v in targets:
        want = ref.in_span([v.get(i, 0) for i in range(height)], m)
        assert repr(in_span(v, m)) == repr(in_span(permuted(v, perm), pm)) == repr(want)


def test_seeded_matrices_do_not_depend_on_row_order():
    rng = random.Random(1990)
    shapes = [(0, 0), (0, 4), (5, 0), (1, 1)] + [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(96)]
    outside = 0
    for t, (nrows, ncols) in enumerate(shapes):
        rational = t % 2 == 1
        cols = random_sparse_columns(rng, nrows, ncols, rng.choice((0.15, 0.3, 0.6)), rational)
        m = RationalMatrix.from_columns(cols, height=nrows)
        targets = targets_for(rng, m, rational)
        outside += sum(in_span(v, m) is None for v in targets)
        assert_row_order_invariant(cols, nrows, targets, rng)
    assert outside > 10  # the random targets leave the span often enough


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.dictionaries(st.integers(0, max(r - 1, 0)), st.integers(-3, 3), max_size=r),
                     max_size=7),
            st.randoms(use_true_random=False),
        )
    )
)
def test_row_order_invariance_property(case):
    height, cols, rng = case
    m = RationalMatrix.from_columns(cols, height=height)
    assert_row_order_invariant(cols, height, targets_for(rng, m, True), rng)


def stored_nonzeros(ech):
    """Entries held by an echelon: each row's vec plus its provenance."""
    return sum(len(vec) + len(expr or ()) for vec, expr in ech.rows.values())


def membership_slice(monkeypatch, module, membership):
    """(target, matrix) that membership, through module's in_span, hands
    over for the n=8 Segre cubic and simple_binomial_relations(8)."""
    seen = []

    def spy(v, m):
        seen.append((v, m))
        return in_span(v, m)

    monkeypatch.setattr(module, "in_span", spy)
    member, cert = membership(segre_cubic(8), simple_binomial_relations(8), 3)
    assert member and len(cert) == 84
    ((target, m),) = seen
    return target, m


def fill_in(monkeypatch, target, m):
    """(nonzeros stored by in_span's echelon, rows lightest first; nonzeros
    stored by an echelon of the columns in natural row order; the rank)."""
    echelons = []

    class Recording(linalg._Echelon):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(linalg, "_Echelon", Recording)
    in_span(target, m)
    (ech,) = echelons

    natural = linalg._Echelon()
    for j, col in enumerate(m._columns):
        natural.insert(linalg._scaled(col, range(m.rows))[0], {j: 1})
    assert len(natural.rows) == len(ech.rows)
    return stored_nonzeros(ech), stored_nonzeros(natural), len(ech.rows)


def test_membership_fill_in_is_pinned(monkeypatch):
    """The unpruned segre n=8 membership matrix, every generator times every
    variable as the reference assembles it, stores 2,766 nonzeros when its
    rows are eliminated lightest first, against 4,619 in natural order."""
    target, m = membership_slice(monkeypatch, relations_ref, relations_ref.ideal_membership_reference)
    assert (m.rows, m.cols) == (560, 490)
    assert fill_in(monkeypatch, target, m) == (2766, 4619, 196)


def test_pruned_membership_fill_in_is_pinned(monkeypatch):
    """ideal_membership builds the same slice from the 14 of 35 generators
    independent of earlier ones: 560 x 196, every column independent.  Its
    lightest-first echelon stores 3,198 nonzeros, more than the unpruned
    slice's 2,766 (the dropped columns changed the row weights), and still
    fewer than the 4,619 of natural order, the same echelon as unpruned."""
    target, m = membership_slice(monkeypatch, relations, ideal_membership)
    assert (m.rows, m.cols) == (560, 196)
    assert fill_in(monkeypatch, target, m) == (3198, 4619, 196)


def spanning_simple_quadrics(n):
    """X_{G1.D1} X_{G2.D2} - X_{G1.D2} X_{G2.D1} for every 4-subset, its two
    non-crossing matchings D1, D2 and every pair G1, G2 of non-crossing
    matchings of the complement."""
    out = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        i, j, k, l = quad
        d1, d2 = ((i, j), (k, l)), ((i, l), (j, k))
        rest = [v for v in range(1, n + 1) if v not in quad]
        for g1, g2 in itertools.combinations((g.edges for g in noncrossing_matchings(n, rest)), 2):
            terms = {
                (Graph(n, g1 + d1), Graph(n, g2 + d2)): 1,
                (Graph(n, g1 + d2), Graph(n, g2 + d1)): -1,
            }
            out.append(GraphPolynomial(n, terms, degree=2))
    return out


def test_simple_quadrics_span_the_cubic_relations_at_n8():
    """The 70 spanning binomials times the 14 variables have rank 196, the
    dimension of the degree-3 relations: 560 monomials less 364 basis
    graphs."""
    n = 8
    binomials = spanning_simple_quadrics(n)
    variables = noncrossing_matchings(n)
    monos = noncrossing_monomials(n, 3)
    index = {mono: t for t, mono in enumerate(monos)}
    columns = []
    for b in binomials:
        red = reduce_to_noncrossing_vars(b)
        for x in variables:
            prod = GraphPolynomial(n, {mono + (x,): c for mono, c in red.terms.items()}, degree=3)
            columns.append({index[mono]: c for mono, c in prod.terms.items()})
    m = RationalMatrix.from_columns(columns, height=len(monos))
    assert (len(binomials), len(variables)) == (70, 14)
    assert (m.rows, m.cols) == (560, 980)
    assert sum(map(len, columns)) == 12152
    assert rank(m) == 196 == len(monos) - len(enumerate_noncrossing(n, (3,) * n))
