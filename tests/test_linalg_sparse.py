"""The sparse integer elimination in graphinv.linalg, checked against the
Fraction reference engine and the dense rank oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from graphinv import relations
from graphinv.errors import DimensionMismatch
from graphinv.linalg import RationalMatrix, _dependencies, in_span, kernel_basis, rank
from graphinv.relations import ideal_membership, quadric_relation_space, segre_cubic, simple_binomial_relations
from test_linalg import dense_rank_oracle


def random_entry(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return rng.randint(-4, 4)


def random_sparse_columns(rng, nrows, ncols, density, rational):
    """{row: value} columns; some columns zero, some multiples or sums of
    earlier ones, so dependent columns are common."""
    cols = []
    for _ in range(ncols):
        kind = rng.random()
        if kind < 0.1:
            col = {}
        elif kind < 0.4 and cols:
            a, b = rng.choice(cols), rng.choice(cols)
            s, t = random_entry(rng, rational), random_entry(rng, rational)
            col = {i: s * a.get(i, 0) + t * b.get(i, 0) for i in set(a) | set(b)}
        else:
            col = {i: random_entry(rng, rational) for i in range(nrows) if rng.random() < density}
        cols.append(col)
    return cols


def assert_same_as_reference(m, targets):
    """rank, kernel_basis and in_span equal the reference's, value and
    type alike, and rank agrees with the dense oracle."""
    assert rank(m) == ref.rank(m) == dense_rank_oracle(m.entries)
    assert repr(kernel_basis(m)) == repr(ref.kernel_basis(m))
    for v in targets:
        want = ref.in_span([Fraction(v.get(i, 0)) for i in range(m.rows)], m)
        assert repr(in_span(v, m)) == repr(want)
        # the certificate is the dependency of v as a last column of [m | v]
        mv = RationalMatrix.from_columns([*ref.columns(m), v], height=m.rows)
        if rank(mv) > rank(m):
            assert want is None
        else:
            last = kernel_basis(mv)[-1]
            assert repr(tuple(-y / last[-1] for y in last)) == repr((*want, Fraction(-1)))


def targets_for(rng, m, rational):
    """One target in the span (rational coefficients when asked), one
    random sparse vector, and zero."""
    coeffs = [random_entry(rng, True) if rational else rng.randint(-3, 3) for _ in range(m.cols)]
    inside = {i: y for i, y in enumerate(m.matvec(coeffs)) if y}
    other = {i: random_entry(rng, rational) for i in range(m.rows) if rng.random() < 0.3}
    return [inside, other, {}]


@pytest.mark.parametrize("rational", [False, True])
def test_random_sparse_matrices_match_reference(rational):
    rng = random.Random(2024 + rational)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.choice((0.1, 0.3, 0.6))
        cols = random_sparse_columns(rng, nrows, ncols, density, rational)
        m = RationalMatrix.from_columns(cols, height=nrows)
        assert (m.rows, m.cols) == (nrows, ncols)
        assert_same_as_reference(m, targets_for(rng, m, rational))


def test_fully_dependent_and_empty_matrices():
    rng = random.Random(8)
    base = {0: 2, 3: Fraction(-1, 3), 5: 7}
    for _ in range(20):
        scales = [random_entry(rng, True) for _ in range(rng.randint(1, 6))]
        m = RationalMatrix.from_columns([{i: s * v for i, v in base.items()} for s in scales], height=6)
        assert rank(m) == (1 if any(scales) else 0)
        assert_same_as_reference(m, targets_for(rng, m, True) + [{0: 4, 3: Fraction(-2, 3), 5: 14}])
    for rows, cols in [(0, 0), (3, 0), (0, 3)]:
        m = RationalMatrix.from_columns([{}] * cols, height=rows)
        assert (m.rows, m.cols) == (rows, cols)
        assert_same_as_reference(m, [{}])
    zero = RationalMatrix.from_columns([{}, {}], height=2)
    assert kernel_basis(zero) == [(1, 0), (0, 1)]
    assert in_span({1: 1}, zero) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda r: st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=6)
))
def test_small_integer_matrices_match_reference(rows):
    m = ref.from_rows(rows)
    rng = random.Random(repr(rows))
    assert_same_as_reference(m, targets_for(rng, m, False) + targets_for(rng, m, True))


def test_fractional_columns_with_a_planted_dependency_match_reference():
    """Columns with denominators, so that each is scaled by more than 1
    before elimination, and one column a rational combination of earlier
    ones: each dependency is over the original columns, and kernels and
    certificates equal the reference's."""
    rng = random.Random(4141)
    for t in range(80):
        nrows, ncols = rng.randint(1, 8), rng.randint(2, 8)
        cols = [
            {i: Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 7)) for i in range(nrows) if rng.random() < 0.6}
            for _ in range(ncols)
        ]
        at = rng.randint(1, ncols)
        used = rng.sample(range(at), rng.randint(1, at))
        coeffs = {c: Fraction(rng.randint(1, 4) * rng.choice((-1, 1)), rng.randint(1, 5)) for c in used}
        planted = {}
        for c, a in coeffs.items():
            for i, v in cols[c].items():
                planted[i] = planted.get(i, 0) + a * v
        cols.insert(at, planted)
        m = RationalMatrix.from_columns(cols, height=nrows)
        deps = list(_dependencies(m))
        assert at in {j for j, _ in deps}
        for j, expr in deps:
            assert expr[j] and max(expr) == j
            x = [expr.get(c, 0) for c in range(m.cols)]
            assert m.matvec(x) == (Fraction(0),) * nrows, (t, j)
        assert_same_as_reference(m, targets_for(rng, m, True) + [planted])


def test_matvec_matches_the_row_by_row_sum():
    """matvec, which sums on a common denominator of x, against the dense
    Fraction product, for int, Fraction and str entries of x; an entry that
    is not a number still raises."""
    rng = random.Random(1616)
    for t in range(60):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        cols = random_sparse_columns(rng, nrows, ncols, rng.choice((0.2, 0.5)), t % 2 == 1)
        m = RationalMatrix.from_columns(cols, height=nrows)
        x = [random_entry(rng, True) if rng.random() < 0.7 else 0 for _ in range(ncols)]
        want = tuple(sum((a * Fraction(b) for a, b in zip(row, x)), Fraction(0)) for row in m.entries)
        assert repr(m.matvec(x)) == repr(want)
        assert repr(m.matvec([str(b) for b in x])) == repr(want)
    m = ref.from_rows([[1, 2]])
    for bad in (None, "", "one"):
        for x in ([bad, 1], [0, bad]):
            with pytest.raises((TypeError, ValueError)):
                m.matvec(x)


def test_sparse_columns_are_checked():
    with pytest.raises(TypeError):
        RationalMatrix.from_columns([{0: 1}])  # no height
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([{3: 1}], height=3)
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([{-1: 1}], height=3)
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([[1, 2]], height=3)
    with pytest.raises(DimensionMismatch):
        in_span({3: 1}, RationalMatrix.from_columns([{0: 1}], height=3))
    # zero values are range-checked too
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([{0: 1, 5: 0, -2: 0}], height=3)
    with pytest.raises(DimensionMismatch):
        in_span({7: 0, 0: 2}, RationalMatrix.from_columns([{0: 1}], height=3))
    # a row index must be an int, and not a bool
    for key in (1.5, "a", True, Fraction(1), None):
        with pytest.raises(DimensionMismatch):
            RationalMatrix.from_columns([{key: 3}], height=3)
        with pytest.raises(DimensionMismatch):
            RationalMatrix.from_columns([{0: 1, key: 0}], height=3)
        with pytest.raises(DimensionMismatch):
            in_span({key: 1}, RationalMatrix.from_columns([{0: 1}], height=3))


def test_membership_and_quadric_space_match_reference(monkeypatch):
    """The segre n=8 certificate and the n=8 quadric relations come out
    exactly as from the reference engine."""
    gens = simple_binomial_relations(8)
    fast = ideal_membership(segre_cubic(8), gens, 3)
    space = quadric_relation_space(8)

    def reference_in_span(v, m):
        return ref.in_span([v.get(i, 0) for i in range(m.rows)], m)

    monkeypatch.setattr(relations, "in_span", reference_in_span)
    monkeypatch.setattr(relations, "kernel_basis", ref.kernel_basis)
    slow = ideal_membership(segre_cubic(8), gens, 3)
    assert fast[0] and len(fast[1]) > 0
    assert repr(fast) == repr(slow)
    assert len(space) == 14
    assert repr(space) == repr(quadric_relation_space(8))
