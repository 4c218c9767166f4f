"""The chart's integer pass against the Fraction code it replaced
(tests/chart_reference.py).

verify_chart and chart_coordinates must give the same W and Z, minor
failures, entry statuses, reprs and errors on integer, mixed-denominator
and point-at-infinity configurations of 1 to 12 points, at the
semistable limit, and on generated configurations.  The decisions are
also compared on synthetic integer entries, where minors fail, W is 1 and
the Z-identity breaks, which no configuration in the chart reaches."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.chart import _decide, _point, chart_coordinates, verify_chart
from graphinv.errors import GraphInvError
from graphinv.evaluation import Configuration

from chart_reference import chart_coordinates_reference, report_reference, verify_chart_reference
from test_evaluation_int import KINDS, random_points


def outcome(f, c):
    try:
        return f(c)
    except GraphInvError as exc:
        return type(exc)


def assert_same_chart(c):
    """verify_chart and chart_coordinates at c agree with the reference;
    returns the report, or the error type both raised."""
    got, want = outcome(verify_chart, c), outcome(verify_chart_reference, c)
    point = outcome(chart_coordinates, c)
    if isinstance(want, type):
        assert got is want and point is want
        assert outcome(chart_coordinates_reference, c) is want
        return want
    for mat, ref in ((got.point.W, want.point.W), (got.point.Z, want.point.Z), (point.W, want.point.W),
                     (point.Z, want.point.Z)):
        assert mat == ref
        assert all(type(x) is Fraction for row in mat for x in row)
    assert repr(got.point) == repr(point) == repr(want.point)
    assert got.minor_failures == want.minor_failures
    assert list(got.entry_status.items()) == list(want.entry_status.items())
    assert repr(got) == repr(want) and bool(got) == bool(want)
    return got


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_chart_matches_the_reference(kind):
    rng = random.Random(f"chart:{kind}")
    verified = 0
    for n in range(1, 13):
        for _ in range(24 if n >= 4 and n % 2 == 0 else 3):
            rep = assert_same_chart(Configuration(random_points(rng, n, kind)))
            verified += not isinstance(rep, type) and bool(rep)
    assert verified >= 40


def test_rescaled_points_give_the_same_chart():
    # rescaling every point by its own nonzero factor changes the scales
    # s of the integer triples but not one ratio
    rng = random.Random(4411)
    for n in (4, 6, 8, 10, 12):
        for kind in sorted(KINDS):
            pts = random_points(rng, n, kind)
            c = Configuration(pts)
            lams = [Fraction(rng.choice([-7, -1, 2, 5]), rng.choice([1, 3, 8])) for _ in pts]
            d = Configuration([(Fraction(u) * lam, Fraction(v) * lam) for (u, v), lam in zip(pts, lams)])
            a, b = assert_same_chart(c), assert_same_chart(d)
            if not isinstance(a, type):
                assert repr(a.point) == repr(b.point)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_semistable_limit_matches_the_reference(m):
    for pts in (
        [(0, 1)] * m + [(1, 0)] * m,
        [(Fraction(0), Fraction(1))] * m + [(Fraction(1), Fraction(0))] * m,
        [(0, Fraction(k + 2, 3)) for k in range(m)] + [(Fraction(-k - 1, 5), 0) for k in range(m)],
    ):
        rep = assert_same_chart(Configuration(pts))
        assert rep and all(x == 0 for row in rep.point.W for x in row)
        assert all(z == -1 for row in rep.point.Z for z in row)


def entry(rng, w, ok):
    """(num_W, den_W, num_Z, den_Z) of W = w, each pair scaled by its own
    nonzero factor; Z satisfies Z*(W - 1) = 1 when ok, else is random."""
    lam, mu = rng.choice([-3, -1, 1, 2, 7]), rng.choice([-2, 1, 5])
    if ok and w != 1:
        z = 1 / (w - 1)
    else:
        z = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return (w.numerator * lam, w.denominator * lam, z.numerator * mu, z.denominator * mu)


def random_rows(rng, m):
    """Entries of a W of rank 1, of a W with random entries, or of a rank-1
    W with one entry moved; some entries 1, some Z-identities broken."""
    r, k = m - 1, m - 1
    shape = rng.choice(["rank-1", "random", "moved"])
    a = [Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for _ in range(r)]
    b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
    W = [[x * y if shape != "random" else Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for y in b] for x in a]
    if shape == "moved":
        W[rng.randrange(r)][rng.randrange(k)] += rng.choice([-1, 1])
    if rng.random() < 0.3:
        W[rng.randrange(r)][rng.randrange(k)] = Fraction(1)
    return [[entry(rng, w, rng.random() < 0.8) for w in row] for row in W]


def test_decisions_match_the_reference_on_integer_entries():
    rng = random.Random(9023)
    statuses = set()
    failing = 0
    for _ in range(600):
        m = rng.randint(2, 6)
        rows = random_rows(rng, m)
        minor_failures, entry_status = _decide(m, rows)
        want = report_reference(_point(m, rows))
        assert minor_failures == want.minor_failures
        assert list(entry_status.items()) == list(want.entry_status.items())
        statuses |= set(entry_status.values())
        failing += bool(minor_failures)
    assert statuses == {"ok", "skipped", "failed"}
    assert 100 < failing < 500


coordinate = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6)
point = st.one_of(st.tuples(coordinate, coordinate).filter(lambda p: p[0] or p[1]), st.just((1, 0)))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda m: st.lists(point, min_size=2 * m, max_size=2 * m)))
def test_chart_property(pts):
    assert_same_chart(Configuration(pts))
