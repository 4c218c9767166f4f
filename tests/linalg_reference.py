"""Reference linear algebra for differential tests.

This is the dense-input, Fraction-valued column echelon that the sparse
integer elimination in graphinv.linalg replaced.  It reads a matrix only
through its dense ``entries`` view, divides every stored row by its pivot,
and re-checks a span certificate with a dense product, so it is slow but
easy to check by eye.  It is not part of the library.  from_rows builds a
matrix from dense rows for tests that write one out, since the library
takes sparse columns only.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Sequence

from graphinv.linalg import RationalMatrix

_ZERO = Fraction(0)


class _Echelon:
    """Sparse echelon rows keyed by pivot index, pivots normalized to 1,
    with optional provenance over the original columns."""

    def __init__(self):
        self.rows: dict[int, tuple[dict[int, Fraction], dict[int, Fraction] | None]] = {}

    def reduce(self, vec: dict[int, Fraction], expr: dict[int, Fraction] | None) -> int | None:
        """Eliminate vec in place; the leading surviving index, or None.
        vec_original + sum(expr[j] * column_j) stays constant for a query
        whose expr starts empty."""
        heap = sorted(vec)
        while heap:
            p = heapq.heappop(heap)
            c = vec.get(p)
            if not c:
                vec.pop(p, None)
                continue
            hit = self.rows.get(p)
            if hit is None:
                return p
            rvec, rexpr = hit
            del vec[p]
            for col, val in rvec.items():
                if col == p:
                    continue
                cur = vec.get(col)
                if cur is None:
                    vec[col] = -c * val
                    heapq.heappush(heap, col)
                else:
                    cur = cur - c * val
                    if cur:
                        vec[col] = cur
                    else:
                        del vec[col]
            if expr is not None and rexpr:
                for col, val in rexpr.items():
                    cur = expr.get(col, _ZERO) - c * val
                    if cur:
                        expr[col] = cur
                    else:
                        expr.pop(col, None)
        return None

    def insert(self, vec: dict[int, Fraction], expr: dict[int, Fraction] | None) -> int | None:
        p = self.reduce(vec, expr)
        if p is None:
            return None
        c = vec[p]
        vec = {k: v / c for k, v in vec.items()}
        if expr is not None:
            expr = {k: v / c for k, v in expr.items()}
        self.rows[p] = (vec, expr)
        return p


def from_rows(rows) -> RationalMatrix:
    """The matrix with these dense rows, as {row: value} columns."""
    rows = [tuple(r) for r in rows]
    width = len(rows[0]) if rows else 0
    return RationalMatrix.from_columns([{i: r[j] for i, r in enumerate(rows)} for j in range(width)], len(rows))


def columns(m: RationalMatrix) -> list[dict[int, Fraction]]:
    """m's columns as {row: value} mappings, read from m.entries."""
    entries = m.entries
    return [{i: entries[i][j] for i in range(m.rows) if entries[i][j]} for j in range(m.cols)]


def rank(m: RationalMatrix) -> int:
    ech = _Echelon()
    return sum(ech.insert(col, None) is not None for col in columns(m))


def _primitive(x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    denom = 1
    for v in x:
        if v:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    ints = [int(v * denom) for v in x]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(Fraction(v) for v in ints)


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    ech = _Echelon()
    out = []
    for j, col in enumerate(columns(m)):
        expr = {j: Fraction(1)}
        if ech.insert(col, expr) is None:
            x = [_ZERO] * m.cols
            for c, val in expr.items():
                x[c] = val
            out.append(_primitive(x))
    return out


def in_span(v: Sequence, m: RationalMatrix) -> tuple[Fraction, ...] | None:
    v = [Fraction(x) for x in v]
    assert len(v) == m.rows
    ech = _Echelon()
    for j, col in enumerate(columns(m)):
        ech.insert(col, {j: Fraction(1)})
    qvec = {i: x for i, x in enumerate(v) if x}
    qexpr: dict[int, Fraction] = {}
    if ech.reduce(qvec, qexpr) is not None:
        return None
    x = [_ZERO] * m.cols
    for c, val in qexpr.items():
        x[c] = -val
    entries = m.entries
    product = [sum((row[j] * x[j] for j in range(m.cols)), _ZERO) for row in entries]
    assert product == v, "reference span certificate failed re-verification"
    return tuple(x)
