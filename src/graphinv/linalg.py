"""Exact rational linear algebra: rank, kernel bases, span membership.

Matrices are given and stored as sparse columns ({row: value}, int wherever
a value is integral); that is the one input form, for columns and span
targets alike.  One fraction-free elimination pass serves all three
operations: it scales each column to integers by the lcm of its
denominators, inserts it into a sparse column-echelon that can track how
each row was formed from the original columns, and yields each column that
depends on the earlier ones, with that dependency over the original
columns.  rank counts them, kernel_basis reads each as a kernel vector, and
in_span adds its target as a last column and reads the target's own
dependency as the certificate.  Rows are renumbered lightest first, so the
sparsest rows become pivots and fill-in stays low (structured Gaussian
elimination); results are indexed by column and do not depend on the row
order.  Fractions appear only in results.  No floating point anywhere.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .graphs import _exact

_ZERO = Fraction(0)


def _column(c: Mapping[int, object], height: int) -> dict[int, int | Fraction]:
    """A {row: value} mapping with int rows in 0..height-1 as a sparse column."""
    if not isinstance(c, Mapping):
        raise DimensionMismatch(f"a {type(c).__name__} where a {{row: value}} mapping belongs")
    if {*map(type, c)} - {int} and any(not isinstance(i, int) or isinstance(i, bool) for i in c):
        raise DimensionMismatch("a row index that is not an int")
    if c and (min(c) < 0 or max(c) >= height):
        raise DimensionMismatch(f"a row index outside 0..{height - 1}")
    return {i: x for i, v in c.items() if (x := v if type(v) is int else _exact(v))}


class RationalMatrix:
    """Immutable matrix of exact rationals, stored as sparse columns."""

    __slots__ = ("rows", "cols", "_columns")

    def __init__(self, *args, **kwargs):
        raise DimensionMismatch("build a RationalMatrix with from_columns({row: value} columns, height)")

    @classmethod
    def _of(cls, height: int, columns: list[dict[int, int | Fraction]]) -> "RationalMatrix":
        m = cls.__new__(cls)
        m.rows, m.cols, m._columns = height, len(columns), tuple(columns)
        return m

    @classmethod
    def from_columns(cls, columns: Iterable[Mapping[int, object]], height: int) -> "RationalMatrix":
        """The matrix with these {row: value} columns and height rows."""
        return cls._of(height, [_column(c, height) for c in columns])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows, built from the sparse columns."""
        dense = [[_ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                dense[i][j] = Fraction(v)
        return tuple(map(tuple, dense))

    def matvec(self, x: Sequence) -> tuple[Fraction, ...]:
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector of length {len(x)} against {self.cols} columns")
        used = []
        den = 1
        for j, xj in enumerate(x):
            if type(xj) is not Fraction:
                xj = Fraction(xj)
            if xj:
                used.append((j, xj))
                den = math.lcm(den, xj.denominator)
        # den * x is integral: accumulate on it, then divide each row once
        acc: dict[int, int | Fraction] = {}
        for j, xj in used:
            a = xj.numerator * (den // xj.denominator)
            for i, v in self._columns[j].items():
                acc[i] = acc.get(i, 0) + v * a
        return tuple(Fraction(acc[i], den) if i in acc else _ZERO for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self._columns == other._columns
        )

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def _light_first(m: RationalMatrix) -> list[int]:
    """new[i], the index of row i once the rows are sorted by how many
    columns hold them, ascending, ties in index order."""
    count = [0] * m.rows
    for col in m._columns:
        for i in col:
            count[i] += 1
    new = [0] * m.rows
    for pos, i in enumerate(sorted(range(m.rows), key=count.__getitem__)):
        new[i] = pos
    return new


def _scaled(col: Mapping[int, int | Fraction], new: Sequence[int]) -> tuple[dict[int, int], int]:
    """(s * col as ints, rows renumbered by new, and s) for s the lcm of
    the denominators of col."""
    s = 1
    for v in col.values():
        if type(v) is not int:
            s = math.lcm(s, v.denominator)
    if s == 1:
        return {new[i]: v for i, v in col.items()}, 1
    return {new[i]: (v * s).numerator for i, v in col.items()}, s


def _subtract(acc: dict[int, int], a: int, row: dict[int, int], skip: int | None = None) -> list[int]:
    """acc -= a * row in place, dropping zeros; returns the new keys."""
    fresh = []
    for k, v in row.items():
        if k == skip:
            continue
        cur = acc.get(k)
        if cur is None:
            acc[k] = -a * v
            fresh.append(k)
        else:
            cur -= a * v
            if cur:
                acc[k] = cur
            else:
                del acc[k]
    return fresh


class _Echelon:
    """Sparse integer echelon rows keyed by pivot index; optional provenance.

    A stored row is primitive (its vec and provenance together have gcd 1)
    with a positive pivot, and pivot = min key, so a vector reduces by
    walking its support in increasing order; each elimination only
    introduces larger indices.  Rows are written only by insert; reduce
    changes just the vector (and provenance) it is given.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, tuple[dict[int, int], dict[int, int] | None]] = {}

    def reduce(self, vec: dict[int, int], expr: dict[int, int] | None) -> int | None:
        """Eliminate vec (in place) against stored rows, fraction-free.

        Returns the leading surviving index, or None when vec reduces to
        zero.  expr, when given, is scaled and updated alongside with the
        rows' provenance, so vec stays sum(expr[j] * column_j) over the
        original columns when expr starts as {j: s} for vec = s * column_j."""
        heap = sorted(vec)
        while heap:
            p = heapq.heappop(heap)
            c = vec.get(p)
            if not c:
                continue
            hit = self.rows.get(p)
            if hit is None:
                return p
            rvec, rexpr = hit
            b = rvec[p]
            if b != 1:
                g = math.gcd(c, b)
                f, c = b // g, c // g
                if f != 1:
                    for k in vec:
                        vec[k] *= f
                    if expr:
                        for k in expr:
                            expr[k] *= f
            del vec[p]
            for col in _subtract(vec, c, rvec, p):
                heapq.heappush(heap, col)
            if expr is not None and rexpr:
                _subtract(expr, c, rexpr)
        return None

    def insert(self, vec: dict[int, int], expr: dict[int, int] | None) -> int | None:
        """Reduce vec and store it when independent; returns its pivot or None."""
        p = self.reduce(vec, expr)
        if p is None:
            return None
        g = math.gcd(*vec.values(), *(expr.values() if expr else ()))
        if vec[p] < 0:
            g = -g
        if g != 1:
            vec = {k: v // g for k, v in vec.items()}
            if expr is not None:
                expr = {k: v // g for k, v in expr.items()}
        self.rows[p] = (vec, expr)
        return p


def _dependencies(m: RationalMatrix, target: dict | None = None, provenance: bool = True):
    """Insert m's columns, then target as column m.cols, into one echelon,
    rows renumbered lightest first by m alone.  Yields (j, expr) for each
    column j dependent on those before it: 0 = sum expr[c] * column_c over
    the original columns, with expr[j] != 0 (expr is None with provenance
    off)."""
    new = _light_first(m)
    ech = _Echelon()
    for j, col in enumerate(m._columns if target is None else (*m._columns, target)):
        vec, s = _scaled(col, new)
        expr = {j: s} if provenance else None
        if ech.insert(vec, expr) is None:
            yield j, expr


def rank(m: RationalMatrix) -> int:
    """Exact rank (column insertion count)."""
    return m.cols - sum(1 for _ in _dependencies(m, provenance=False))


def _primitive(x: Mapping[int, int], length: int) -> tuple[Fraction, ...]:
    """The dense vector of length `length` with the nonzero integers x
    ({index: value}) scaled to coprime ones, the first nonzero entry
    positive; every zero entry is the shared _ZERO."""
    g = math.gcd(*x.values())
    if g and x[min(x)] < 0:
        g = -g
    out = [_ZERO] * length
    for i, v in x.items():
        out[i] = Fraction(v // g)
    return tuple(out)


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Primitive-integer basis of the right kernel, one vector per
    dependent column, in column order; length = cols - rank."""
    return [_primitive(expr, m.cols) for _, expr in _dependencies(m)]


def in_span(v: Mapping[int, object], m: RationalMatrix) -> tuple[Fraction, ...] | None:
    """Certificate x with m @ x = v, or None when v is outside the column
    span.  v is a {row: value} mapping, like a column.  The certificate is
    the unique solution supported on the greedy independent columns, and it
    is re-verified exactly before returning."""
    target = _column(v, m.rows)
    t = m.cols
    for j, expr in _dependencies(m, target):
        if j == t:
            break
    else:
        return None
    # 0 = expr[t] * v + sum expr[c] * column_c
    x = tuple(Fraction(-expr[c], expr[t]) if c in expr else _ZERO for c in range(t))
    if m.matvec(x) != tuple(target.get(i, _ZERO) for i in range(m.rows)):
        raise AssertionError("span certificate failed re-verification")
    return x
