"""Affine coordinates around the distinguished strictly semistable point of
the moduli space of 2m points with weight 1.

Vertices 1..m form the first block and m+1..2m the second; an edge is good
when it joins the two blocks.  On the locus where the two blocks stay
disjoint (p_a != p_b whenever a <= m < b) every good matching evaluates
nonzero, and for 1 < i <= m < j < 2m the ratios

    W_ij = eval((1,i),(j,2m), G) / eval((1,j),(i,2m), G)
    Z_ij = eval((1,j),(i,2m), G) / eval((1,2m),(j,i), G)

are independent of the good matching G filling in the leftover vertices.
The last denominator uses the reversed edge (j,i): with tail j and head i
its factor is the negative of the canonical s_ij, and the two-edge exchange
identity s_1j*s_i,2m = s_1i*s_j,2m + s_1,2m*s_ij then gives

    Z_ij * (W_ij - 1) = (num_W - den_W) / den_Z = 1

exactly, which verify_chart checks entrywise together with the vanishing of
all 2x2 minors of W.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .errors import NotInChart, OddVertexCount, VertexCountTooSmall
from .evaluation import Configuration, evaluate
from .graphs import Graph


def good_matching(n: int, i: int, j: int) -> list[tuple[int, int]]:
    """The deterministic good matching on the vertices left over once
    1, i, j, 2m are spoken for: k-th smallest leftover of the first block
    to k-th smallest leftover of the second."""
    return alternative_good_matchings(n, i, j, 1)[0]


def alternative_good_matchings(n: int, i: int, j: int, limit: int = 3) -> list[list[tuple[int, int]]]:
    """Up to limit distinct good matchings on the leftover vertices, the
    canonical one first.  Used to check that chart ratios do not depend on
    the choice."""
    m = n // 2
    left = [a for a in range(2, m + 1) if a != i]
    right = [b for b in range(m + 1, 2 * m) if b != j]
    out = []
    for perm in permutations(right):
        out.append(list(zip(left, perm)))
        if len(out) == limit:
            break
    return out


class ChartPoint:
    """W and Z matrices at a configuration, indexed by 1 < i <= m < j < 2m;
    entry (i, j) lives at [i - 2][j - m - 1]."""

    __slots__ = ("m", "W", "Z")

    def __init__(self, m: int, W, Z):
        self.m = m
        self.W = tuple(tuple(Fraction(x) for x in row) for row in W)
        self.Z = tuple(tuple(Fraction(x) for x in row) for row in Z)

    def row_indices(self) -> range:
        return range(2, self.m + 1)

    def col_indices(self) -> range:
        return range(self.m + 1, 2 * self.m)

    def w_entry(self, i: int, j: int) -> Fraction:
        return self.W[i - 2][j - self.m - 1]

    def z_entry(self, i: int, j: int) -> Fraction:
        return self.Z[i - 2][j - self.m - 1]

    def __repr__(self):
        return f"ChartPoint(m={self.m}, W={self.W}, Z={self.Z})"


def _check_in_chart(c: Configuration) -> None:
    m = len(c.points) // 2
    for a in range(1, m + 1):
        for b in range(m + 1, 2 * m + 1):
            if c.coincide(a, b):
                raise NotInChart(f"points {a} and {b} coincide across the block split")


def chart_coordinates(c: Configuration) -> ChartPoint:
    """Evaluate the W and Z ratios at c.  Requires an even number of
    points, at least 4, with the two blocks disjoint."""
    n = len(c.points)
    if n % 2:
        raise OddVertexCount(f"chart needs an even number of points, got {n}")
    if n < 4:
        raise VertexCountTooSmall(f"chart needs at least 4 points, got {n}")
    m = n // 2
    _check_in_chart(c)
    W = []
    Z = []
    for i in range(2, m + 1):
        wrow = []
        zrow = []
        for j in range(m + 1, 2 * m):
            g = good_matching(n, i, j)
            num_w = evaluate(Graph(n, [(1, i), (j, 2 * m)] + g), c)
            den_w = evaluate(Graph(n, [(1, j), (i, 2 * m)] + g), c)
            den_z = evaluate(Graph(n, [(1, 2 * m), (j, i)] + g), c)
            # in the chart both denominators are products of good edges
            assert den_w != 0 and den_z != 0
            wrow.append(num_w / den_w)
            zrow.append(den_w / den_z)
        W.append(wrow)
        Z.append(zrow)
    return ChartPoint(m, W, Z)


class ChartReport:
    """Outcome of the exact identity checks at one configuration.  Truthy
    when every 2x2 minor of W vanishes and every entry with W != 1 passes
    the Z-identity; entries with W == 1 are skipped and flagged."""

    __slots__ = ("point", "minor_failures", "entry_status")

    def __init__(self, point: ChartPoint, minor_failures, entry_status):
        self.point = point
        self.minor_failures = minor_failures
        self.entry_status = entry_status

    def __bool__(self):
        return not self.minor_failures and "failed" not in self.entry_status.values()

    @property
    def skipped_entries(self):
        return sorted(k for k, v in self.entry_status.items() if v == "skipped")

    def __repr__(self):
        fails = sum(1 for v in self.entry_status.values() if v == "failed")
        return (
            f"ChartReport(ok={bool(self)}, minor_failures={len(self.minor_failures)}, "
            f"entry_failures={fails}, skipped={len(self.skipped_entries)})"
        )


def verify_chart(c: Configuration) -> ChartReport:
    """Check, exactly, that W has rank at most 1 and that Z is the
    entrywise inverse of W - 1.  Returns a truthy per-entry report."""
    pt = chart_coordinates(c)
    m = pt.m
    minor_failures = []
    rows = list(pt.row_indices())
    cols = list(pt.col_indices())
    for i1, i2 in combinations(rows, 2):
        for j1, j2 in combinations(cols, 2):
            det = pt.w_entry(i1, j1) * pt.w_entry(i2, j2) - pt.w_entry(i1, j2) * pt.w_entry(i2, j1)
            if det != 0:
                minor_failures.append((i1, i2, j1, j2))
    entry_status = {}
    for i in rows:
        for j in cols:
            w = pt.w_entry(i, j)
            if w == 1:
                # unreachable for configurations in the chart; kept so a
                # report never divides by zero conceptually
                entry_status[(i, j)] = "skipped"
            elif pt.z_entry(i, j) * (w - 1) == 1:
                entry_status[(i, j)] = "ok"
            else:
                entry_status[(i, j)] = "failed"
    return ChartReport(pt, minor_failures, entry_status)


def chart_point_to_json(pt: ChartPoint) -> dict:
    return {
        "m": pt.m,
        "W": [[str(x) for x in row] for row in pt.W],
        "Z": [[str(x) for x in row] for row in pt.Z],
    }
