"""Test-only reference for the chart: W and Z as quotients of Fraction
evaluations of validated Graphs, and verify_chart's decisions taken on
those Fractions, which the integer pass of graphinv.chart replaces."""

from itertools import combinations

from graphinv.chart import ChartPoint, ChartReport, _check_in_chart, good_matching
from graphinv.errors import OddVertexCount, VertexCountTooSmall
from graphinv.evaluation import Configuration
from graphinv.graphs import Graph

from evaluation_reference import evaluate_reference


def chart_coordinates_reference(c: Configuration) -> ChartPoint:
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
            num_w = evaluate_reference(Graph(n, [(1, i), (j, 2 * m)] + g), c)
            den_w = evaluate_reference(Graph(n, [(1, j), (i, 2 * m)] + g), c)
            den_z = evaluate_reference(Graph(n, [(1, 2 * m), (j, i)] + g), c)
            assert den_w != 0 and den_z != 0
            wrow.append(num_w / den_w)
            zrow.append(den_w / den_z)
        W.append(wrow)
        Z.append(zrow)
    return ChartPoint(m, W, Z)


def report_reference(pt: ChartPoint) -> ChartReport:
    """verify_chart's checks on the Fraction entries of pt."""
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
                entry_status[(i, j)] = "skipped"
            elif pt.z_entry(i, j) * (w - 1) == 1:
                entry_status[(i, j)] = "ok"
            else:
                entry_status[(i, j)] = "failed"
    return ChartReport(pt, minor_failures, entry_status)


def verify_chart_reference(c: Configuration) -> ChartReport:
    return report_reference(chart_coordinates_reference(c))
