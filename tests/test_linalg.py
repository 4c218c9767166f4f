import math
import random
from fractions import Fraction

import pytest

from graphinv.errors import DimensionMismatch
from graphinv.linalg import RationalMatrix, in_span, kernel_basis, rank
from linalg_reference import from_rows


def dense_rank_oracle(entries):
    """Plain dense Gaussian elimination over Fraction."""
    m = [list(map(Fraction, row)) for row in entries]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def random_matrix(rng, nrows, ncols, target_rank):
    a = [[rng.randint(-3, 3) for _ in range(target_rank)] for _ in range(nrows)]
    b = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(target_rank)]
    return [[sum(a[i][k] * b[k][j] for k in range(target_rank)) for j in range(ncols)] for i in range(nrows)]


def test_construction_and_shape():
    m = from_rows([[1, 2], [3, "1/2"]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.entries[1][1] == Fraction(1, 2)


def test_from_columns():
    m = RationalMatrix.from_columns([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}], height=3)
    assert (m.rows, m.cols) == (3, 2)
    assert [row[0] for row in m.entries] == [1, 2, 3]
    empty = RationalMatrix.from_columns([], height=3)
    assert (empty.rows, empty.cols) == (3, 0)
    sparse = RationalMatrix.from_columns([{0: 1, 2: "1/2"}, {}, {0: Fraction(4, 2), 1: 3, 2: 0}], height=3)
    assert sparse.entries == ((1, 0, 2), (0, 0, 3), (Fraction(1, 2), 0, 0))
    assert all(type(x) is Fraction for row in sparse.entries for x in row)
    assert sparse.matvec([2, 5, Fraction(1, 2)]) == (3, Fraction(3, 2), 1)
    assert sparse == from_rows(sparse.entries)
    assert sparse != RationalMatrix.from_columns([{0: 1}, {}, {0: 2, 1: 3}], height=3)


def test_dense_inputs_are_refused():
    """Columns and span targets are {row: value} mappings; dense rows,
    dense columns and dense targets raise DimensionMismatch, and a matrix
    needs its height."""
    with pytest.raises(DimensionMismatch, match="from_columns"):
        RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch, match=r"list where a \{row: value\} mapping belongs"):
        RationalMatrix.from_columns([[1, 2], [3, 4]], height=2)
    with pytest.raises(DimensionMismatch, match=r"tuple where a \{row: value\} mapping belongs"):
        RationalMatrix.from_columns([{0: 1}, (0, 1)], height=2)
    m = from_rows([[1], [2], [3]])
    for target in ([1, 2, 3], (1, 2, 3), m.matvec([1])):
        with pytest.raises(DimensionMismatch, match=r"where a \{row: value\} mapping belongs"):
            in_span(target, m)
    assert in_span({0: 1, 1: 2, 2: 3}, m) == (1,)
    with pytest.raises(TypeError):
        RationalMatrix.from_columns([{0: 1}])


def test_matvec():
    m = from_rows([[1, 2], [3, 4]])
    assert m.matvec([Fraction(1, 2), 1]) == (Fraction(5, 2), Fraction(11, 2))
    with pytest.raises(DimensionMismatch):
        m.matvec([1, 2, 3])


def test_rank_pinned():
    assert rank(from_rows([[1, 0], [0, 1]])) == 2
    assert rank(from_rows([[1, 2], [2, 4]])) == 1
    assert rank(from_rows([[0, 0], [0, 0]])) == 0
    assert rank(RationalMatrix.from_columns([], height=4)) == 0


def test_rank_matches_dense_oracle():
    rng = random.Random(5)
    for _ in range(80):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        r = rng.randint(0, min(nrows, ncols))
        entries = random_matrix(rng, nrows, ncols, r)
        assert rank(from_rows(entries)) == dense_rank_oracle(entries)


def test_kernel_basis_properties():
    rng = random.Random(23)
    for _ in range(60):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        r = rng.randint(0, min(nrows, ncols))
        m = from_rows(random_matrix(rng, nrows, ncols, r))
        ker = kernel_basis(m)
        assert len(ker) == m.cols - rank(m)
        for v in ker:
            assert m.matvec(v) == (Fraction(0),) * m.rows
            ints = [x for x in v]
            assert all(x.denominator == 1 for x in ints)
            g = 0
            for x in ints:
                g = math.gcd(g, int(x))
            assert g == 1
            lead = next(x for x in ints if x)
            assert lead > 0
        if ker:
            assert rank(RationalMatrix.from_columns([dict(enumerate(v)) for v in ker], m.cols)) == len(ker)


def test_kernel_pinned():
    # x + y + z = 0 has the two standard primitive kernel vectors
    ker = kernel_basis(from_rows([[1, 1, 1]]))
    assert ker == [(1, -1, 0), (1, 0, -1)]


def test_in_span_positive():
    rng = random.Random(77)
    for _ in range(60):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        m = from_rows([[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)])
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        v = m.matvec(coeffs)
        cert = in_span(dict(enumerate(v)), m)
        assert cert is not None
        assert m.matvec(cert) == v


def test_in_span_negative():
    m = RationalMatrix.from_columns([{0: 1, 1: 1}, {1: 1, 2: 1}], height=3)
    assert in_span({0: 1, 2: 1}, m) is None
    assert in_span({0: 1, 1: 2, 2: 1}, m) == (1, 1)


def test_in_span_edge_cases():
    m = RationalMatrix.from_columns([], height=3)
    assert in_span({}, m) == ()
    assert in_span({0: 0, 2: 0}, m) == ()
    assert in_span({0: 1}, m) is None
    with pytest.raises(DimensionMismatch):
        in_span({3: 1}, from_rows([[1], [2], [3]]))
