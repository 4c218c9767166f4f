"""The int-coded straightening kernel against the tuple-edge reference
kernel it replaced, which orders its worklist by float chord length where
the kernel uses an int potential: equal dicts, and an equal int or
Fraction type for every coefficient, on seeded, structured, large and
generated starts; and the same normal forms with assertions off, in a
``python -O`` child."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import graphinv
from graphinv import straightening
from graphinv.graphs import Graph, canonicalize, crossing_pairs
from graphinv.relations import noncrossing_monomials
from straightening_reference import reference_expand
from test_straightening_kernel import random_column_start, random_multigraph, random_regular_multigraph

TESTS = Path(__file__).resolve().parent
PACKAGE_ROOT = str(Path(graphinv.__file__).resolve().parents[1])


def same_expansion(n, start) -> bool:
    """Whether the kernel and the reference give equal dicts with equal
    coefficient types; a bool, not an assertion, so that it also checks
    under ``python -O``."""
    got, want = straightening._expand(n, start), reference_expand(n, start)
    return got == want and all(type(k) is type(want[es][t]) for es, col in got.items() for t, k in col.items())


def regular_starts(count=300):
    """Seeded random regular multigraphs, n 4-12, valence 2-4, at most 24
    crossing pairs (the reference is slow beyond, and valence 4 on more
    than 8 vertices rarely has so few), each a one-column start with an
    int or a Fraction coefficient."""
    rng = random.Random(2610)
    for _ in range(count):
        n = rng.randint(4, 12)
        valence = rng.choice([v for v in (2, 3, 4) if n * v % 2 == 0 and (n <= 8 or v < 4)])
        while len(crossing_pairs(g := canonicalize(random_regular_multigraph(rng, n, valence))[0])) > 24:
            pass
        yield n, {g.edges: {0: rng.choice((1, -2, Fraction(1, 3)))}}


def column_starts(count=80):
    """Seeded multi-column starts, the last column cancelling to zero."""
    rng = random.Random(2611)
    for _ in range(count):
        n = rng.randint(4, 10)
        yield n, random_column_start(rng, n, rng.randint(1, 6))


def monomial_start(n, k):
    """The start of noncrossing_monomial_matrix(n, k): monomial t is column t."""
    start: dict[tuple, dict[int, int]] = {}
    for t, mono in enumerate(noncrossing_monomials(n, k)):
        start.setdefault(tuple(sorted([e for f in mono for e in f.edges])), {})[t] = 1
    return start


def spread_starts(n, count=12):
    """Seeded multigraphs on 8-12 of n vertices spread apart, with edges
    between far vertices, so that their edge codes are not small ints."""
    rng = random.Random(n)
    for _ in range(count):
        small = rng.randint(8, 12)
        place = [0, *sorted(rng.sample(range(1, n + 1), small))]
        graphs = [random_multigraph(rng, small, 3) for _ in range(2)]
        start: dict[tuple, dict] = {}
        for t, g in enumerate(graphs):
            cg, sign = canonicalize(Graph(n, [(place[a], place[b]) for a, b in g.edges]))
            start.setdefault(cg.edges, {})[t] = sign
        yield n, start


def all_starts():
    yield from regular_starts()
    yield from column_starts()
    yield 8, monomial_start(8, 3)
    yield 10, monomial_start(10, 2)
    yield from spread_starts(300)
    yield from spread_starts(1500)


def digest(starts) -> str:
    """A hash of the kernel's results on starts, coefficient types included."""
    h = hashlib.sha256()
    for n, start in starts:
        got = straightening._expand(n, start)
        h.update(repr(sorted((es, sorted((t, repr(k)) for t, k in col.items())) for es, col in got.items())).encode())
    return h.hexdigest()


def test_regular_multigraphs_match_the_reference():
    starts = list(regular_starts())
    assert len(starts) == 300 and {n for n, _ in starts} == set(range(4, 13))
    assert {len(es) * 2 // n for n, start in starts for es in start} == {2, 3, 4}
    assert all(same_expansion(n, start) for n, start in starts)


def test_column_starts_match_the_reference():
    for n, start in column_starts():
        assert same_expansion(n, start), (n, start)
        last = max(t for col in start.values() for t in col)
        assert not any(col.get(last) for col in straightening._expand(n, start).values())


def test_monomial_matrix_starts_match_the_reference():
    for n, k in ((8, 3), (10, 2)):
        assert same_expansion(n, monomial_start(n, k)), (n, k)


def test_large_vertex_counts_match_the_reference():
    for n in (300, 1500):
        starts = list(spread_starts(n))
        assert max(t << n.bit_length() | h for _, s in starts for es in s for t, h in es) > 256
        assert sum(1 for _, s in starts for es in s if crossing_pairs(Graph(n, es))) >= 6
        assert all(same_expansion(n, start) for n, start in starts)


def multigraph_lists(n):
    """Up to three loopless multigraphs on n vertices, any orientations."""
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    return st.lists(st.lists(edge, min_size=1, max_size=8), min_size=1, max_size=3)


edge_lists = st.integers(4, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        multigraph_lists(n),
        st.lists(st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 4))), min_size=3, max_size=3),
    )
)


@settings(max_examples=150, deadline=None)
@given(edge_lists)
def test_generated_starts_match_the_reference(case):
    n, graphs, coefficients = case
    start: dict[tuple, dict] = {}
    for t, edges in enumerate(graphs):
        cg, sign = canonicalize(Graph(n, edges))
        start.setdefault(cg.edges, {})[t] = sign * coefficients[t]
    assert same_expansion(n, start)


def test_normal_forms_are_equal_with_assertions_off():
    # the kernel's one assertion, that an exchange lowers the int potential,
    # only checks the termination argument: with it stripped the kernel
    # still matches the reference and gives the same results
    child = (
        "import json, test_straightening_differential as d\n"
        "starts = list(d.all_starts())\n"
        "print(json.dumps([__debug__, sum(not d.same_expansion(n, s) for n, s in starts), d.digest(starts)]))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([PACKAGE_ROOT, str(TESTS)] + ([path] if path else [])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, cwd=TESTS, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, 0, digest(all_starts())]
