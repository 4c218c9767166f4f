"""The multi-column worklist kernel behind straightening, checked against
the recursive reference engine, the public exchange and the evaluation
oracle; and the one kernel call that each job makes."""

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

from graphinv import relations, straightening
from graphinv.evaluation import evaluate, evaluate_combination, random_stable_configuration
from graphinv.graphs import Graph, canonicalize, crossing_pairs, edges_cross
from graphinv.relations import ideal_membership, noncrossing_monomial_matrix, segre_cubic, simple_binomial_relations
from graphinv.straightening import plucker_exchange, straighten_graph
from straightening_reference import (
    reference_exchange,
    reference_first_crossing,
    reference_straighten_graph,
)


def random_multigraph(rng, n, max_valence=4):
    """Random loopless multigraph on 1..n with valences at most max_valence
    and random orientations; may have isolated vertices."""
    valence = [0] * (n + 1)
    edges = []
    for _ in range(rng.randint(1, 3 * n // 2)):
        t, h = rng.sample(range(1, n + 1), 2)
        if valence[t] < max_valence and valence[h] < max_valence:
            valence[t] += 1
            valence[h] += 1
            edges.append((t, h))
    return Graph(n, edges or [(1, 2)])


def random_canonical_edges(rng, n, count):
    edges = []
    for _ in range(count):
        t, h = sorted(rng.sample(range(1, n + 1), 2))
        edges.append((t, h))
    return tuple(sorted(edges))


def coded(n, edges):
    """Canonical sorted edges as the kernel's int codes, with their shift."""
    shift = n.bit_length()
    return tuple(t << shift | h for t, h in edges), shift


def decoded(codes, shift):
    return tuple((x >> shift, x & ((1 << shift) - 1)) for x in codes)


def test_kernel_matches_reference_and_oracle():
    rng = random.Random(2024)
    for trial in range(250):
        n = rng.randint(4, 10)
        g = random_multigraph(rng, n)
        got = straighten_graph(g)
        assert got == reference_straighten_graph(g), g
        assert list(got.terms) == sorted(got.terms, key=lambda h: h.edges)
        assert got.degree == g.multidegree()
        c = random_stable_configuration((1,) * n, seed=trial)
        assert evaluate_combination(got, c) == evaluate(g, c), g


def test_first_crossing_is_the_first_crossing_pair():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(4, 10)
        edges = random_canonical_edges(rng, n, rng.randint(1, 12))
        cross = crossing_pairs(Graph(n, edges))
        codes, shift = coded(n, edges)
        assert decoded(codes, shift) == edges and list(codes) == sorted(codes)
        assert straightening._first_crossing(codes, shift) == (cross[0] if cross else None)


def test_exchange_matches_plucker_exchange():
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 10)
        edges = random_canonical_edges(rng, n, rng.randint(2, 10))
        cross = crossing_pairs(Graph(n, edges))
        if not cross:
            continue
        i, j = rng.choice(cross)
        codes, shift = coded(n, edges)
        children = straightening._exchange(codes, i, j, shift)
        assert all(list(child) == sorted(child) for child in children)
        one, two = (decoded(child, shift) for child in children)
        assert list(one) == sorted(one) and list(two) == sorted(two)
        want = plucker_exchange(Graph(n, edges), i, j)
        assert want.terms == {Graph(n, one): Fraction(1), Graph(n, two): Fraction(1)}
        checked += 1


def test_exchange_lowers_the_potential_by_its_drop(monkeypatch):
    # the termination argument: every exchange lowers the int potential by
    # a positive drop, and the kernel keys each graph by its potential
    # negated, the parent's key plus the drop
    def potential(n, codes, shift):
        value = straightening._potential(n, decoded(codes, shift))
        assert type(value) is int and value == sum((h - t) * (n - h + t) for t, h in decoded(codes, shift))
        return value

    events = []  # ("pop" or "push", heap key, edge codes) in call order
    pop, push = straightening.heappop, straightening.heappush

    def spy_pop(heap):
        item = pop(heap)
        events.append(("pop", *item))
        return item

    def spy_push(heap, item):
        events.append(("push", *item))
        push(heap, item)

    monkeypatch.setattr(straightening, "heappop", spy_pop)
    monkeypatch.setattr(straightening, "heappush", spy_push)
    rng = random.Random(23)
    checked = pushes = 0
    while checked < 200:
        n = rng.choice((rng.randint(4, 14), rng.randint(15, 400), rng.randint(400, 10**5)))
        edges = random_canonical_edges(rng, n, rng.randint(2, 7))
        codes, shift = coded(n, edges)
        pair = straightening._first_crossing(codes, shift)
        if pair is None:
            continue
        (a, b), (c, d) = edges[pair[0]], edges[pair[1]]
        drops = (2 * (b - c) * (n - d + a), 2 * (c - a) * (d - b))
        before = potential(n, codes, shift)
        for child, drop in zip(straightening._exchange(codes, *pair, shift), drops):
            assert 0 < drop == before - potential(n, child, shift)
        events.clear()
        straightening._expand(n, {edges: {0: 1}})
        keys = [key for kind, key, _ in events if kind == "pop"]
        assert keys == sorted(keys) and keys[0] == -before
        for kind, key, child in events:
            assert key == -potential(n, child, shift)
            if kind == "pop":
                parent = key
            else:
                assert key > parent
                pushes += 1
        checked += 1
    assert pushes > 200


def test_expand_is_right_in_any_order(monkeypatch):
    # With every start graph at potential 0 the heap cannot tell them
    # apart; the leaf (12)(34) is a start graph, and the exchange of
    # (13)(24) reaches it again.
    monkeypatch.setattr(straightening, "_potential", lambda n, edges: 0)
    crossing, leaf = ((1, 3), (2, 4)), ((1, 2), (3, 4))
    got = straightening._expand(4, {crossing: {0: 1, 1: Fraction(-1, 2)}, leaf: {0: 1, 2: 3}})
    assert got == {leaf: {0: 2, 1: Fraction(-1, 2), 2: 3}, ((1, 4), (2, 3)): {0: 1, 1: Fraction(-1, 2)}}


def test_normal_form_coefficients_are_positive_ints():
    g, _ = canonicalize(Graph(8, [(1, 5), (2, 6), (3, 7), (4, 8), (1, 3), (6, 8)]))
    flat = straightening._expand(8, {g.edges: {0: 1}})
    assert all(list(col) == [0] and type(col[0]) is int and col[0] > 0 for col in flat.values())
    assert all(type(v) is int and v > 0 for v in straighten_graph(g).terms.values())


def test_deep_input_needs_no_recursion():
    # (X13 X24)^60 = (X12 X34 + X14 X23)^60, sixty exchanges deep
    m = 60
    g = Graph(4, [(1, 3)] * m + [(2, 4)] * m)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        s = straighten_graph(g)
    finally:
        sys.setrecursionlimit(limit)
    want = {
        Graph(4, [(1, 2)] * k + [(1, 4)] * (m - k) + [(2, 3)] * (m - k) + [(3, 4)] * k): Fraction(math.comb(m, k))
        for k in range(m + 1)
    }
    assert s.terms == want


def test_normal_form_keeps_no_state():
    for edges in ([(1, 4), (2, 5), (3, 6)], [(1, 2), (3, 4), (5, 6)]):
        g, _ = canonicalize(Graph(6, edges))
        col = {0: 1, 1: 2}
        start = {g.edges: col}
        first = straightening._expand(6, start)
        second = straightening._expand(6, start)
        assert start == {g.edges: {0: 1, 1: 2}} and start[g.edges] is col
        assert first == second and first is not second
        assert all(first[es] is not second[es] and first[es] is not col for es in first)


def random_matching_edges(rng, n):
    """A random perfect matching of 1..n with random orientations."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    return [(verts[k], verts[k + 1]) for k in range(0, n, 2)]


@pytest.mark.parametrize("n", [6, 8])
def test_straighten_combination_matches_reference(n):
    # 2-regular graphs, so that every term has the same multidegree
    rng = random.Random(n)
    gs = [Graph(n, random_matching_edges(rng, n) + random_matching_edges(rng, n)) for _ in range(6)]
    comb = straightening.GraphCombination(n, {g: Fraction(k - 2, 3) for k, g in enumerate(gs)})
    want = straightening.GraphCombination.zero(n)
    for g, c in comb.terms.items():
        want = want + c * reference_straighten_graph(g)
    assert straightening.straighten(comb) == want
    c = random_stable_configuration((1,) * n, seed=n)
    assert evaluate_combination(want, c) == evaluate_combination(comb, c)


def test_straighten_builds_the_terms_of_the_merging_constructor():
    # straighten hands its leaves to the trusted constructor: the terms must
    # be those _of makes of the same leaves, in order, value and type
    rng = random.Random(31)
    kinds, cancelled = set(), 0
    for trial in range(80):
        n = rng.choice([6, 8])
        gs = [Graph(n, random_matching_edges(rng, n) + random_matching_edges(rng, n)) for _ in range(rng.randint(1, 4))]
        coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 1)]
        comb = straightening.GraphCombination(n, {g: rng.choice(coeffs) for g in gs})
        if trial % 2:
            # take back every other term of the result, so those cancel
            s = straightening.straighten(comb)
            comb = comb - straightening.GraphCombination._of(n, [*s.terms.items()][::2], s.degree)
        flat = straightening._expand(n, {g.edges: {0: k} for g, k in comb.terms.items()})
        leaves = ((Graph._canonical(n, es), col[0]) for es, col in flat.items())
        want = straightening.GraphCombination._of(n, leaves, comb.degree)
        got = straightening.straighten(comb)
        assert [(g.edges, c, type(c)) for g, c in got.terms.items()] == [
            (g.edges, c, type(c)) for g, c in want.terms.items()
        ]
        assert (got.n, got.degree) == (want.n, want.degree) == (n, (2,) * n)
        kinds.update(map(type, got.terms.values()))
        cancelled += sum(not col[0] for col in flat.values())
    assert kinds == {int, Fraction} and cancelled > 0


def random_regular_multigraph(rng, n, valence):
    """A random loopless valence-regular multigraph on 1..n, by pairing
    shuffled stubs until no pair is a loop."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(valence)]
        rng.shuffle(stubs)
        edges = [(stubs[k], stubs[k + 1]) for k in range(0, len(stubs), 2)]
        if all(t != h for t, h in edges):
            return Graph(n, edges)


def test_resumed_crossing_search_matches_full_search_and_reference(monkeypatch):
    first_crossing, exchange = straightening._first_crossing, straightening._exchange
    exchanged = []  # the index i of each exchanged pair, in call order
    searched = []

    def spy_exchange(codes, i, j, shift):
        exchanged.append(i)
        return exchange(codes, i, j, shift)

    def spy(codes, shift, start=0):
        # a start graph is searched from 0, a child from its parent's i ...
        assert start == (exchanged[-1] if exchanged else 0), (codes, start)
        # ... before which no edge crosses any edge ...
        edges = decoded(codes, shift)
        assert not any(edges_cross(e, f) for e in edges[:start] for f in edges), (edges, start)
        # ... so the search from it finds the lex-first pair
        got = first_crossing(codes, shift, start)
        assert got == first_crossing(codes, shift, 0), (edges, start)
        searched.append(start)
        return got

    monkeypatch.setattr(straightening, "_first_crossing", spy)
    monkeypatch.setattr(straightening, "_exchange", spy_exchange)
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(6, 12)
        valence = rng.choice([v for v in (2, 3, 4) if n * v % 2 == 0 and (n <= 8 or v < 4)])
        gs = []
        while len(gs) < 2:
            g = random_regular_multigraph(rng, n, valence)
            if len(crossing_pairs(g)) <= 24:  # the reference is slow beyond
                gs.append(canonicalize(g)[0])
        # the first graph in both columns, the second in column 1 only
        exchanged.clear()
        got = straightening._expand(n, {gs[0].edges: {0: 1, 1: 1}, gs[1].edges: {1: 1}})
        first = reference_straighten_graph(gs[0])
        want = [first, first + reference_straighten_graph(gs[1])]
        for t in (0, 1):
            assert {Graph(n, es): Fraction(col[t]) for es, col in got.items() if col.get(t)} == want[t].terms, gs
    assert max(searched) > 0


def random_column_start(rng, n, columns):
    """A seeded start of the given number of columns on canonical sorted
    edges: graphs shared across columns with negative and Fraction
    coefficients, the last column cancelling to zero, a crossing graph
    minus its two children."""
    graphs = [canonicalize(random_multigraph(rng, n))[0].edges for _ in range(rng.randint(1, 5))]
    while (pair := reference_first_crossing(graphs[0])) is None:
        graphs[0] = canonicalize(random_multigraph(rng, n))[0].edges
    start: dict[tuple, dict] = {}
    for t in range(columns - 1):
        for es in rng.sample(graphs, rng.randint(1, len(graphs))):
            start.setdefault(es, {})[t] = rng.choice((-3, -1, 1, 2, Fraction(-2, 3), Fraction(5, 7)))
    k = rng.choice((1, -2, Fraction(3, 4)))
    start.setdefault(graphs[0], {})[columns - 1] = k
    for child in reference_exchange(graphs[0], *pair):
        col = start.setdefault(child, {})
        col[columns - 1] = col.get(columns - 1, 0) - k
    return start


def reference_column(n, start, t):
    """Column t of start expanded alone by the reference engine, as
    {canonical sorted edges: nonzero Fraction}."""
    acc: dict[tuple, Fraction] = {}
    for es, col in start.items():
        if t in col:
            for h, k in reference_straighten_graph(Graph(n, es)).terms.items():
                acc[h.edges] = acc.get(h.edges, 0) + col[t] * k
    return {es: c for es, c in acc.items() if c}


def test_each_column_of_one_call_is_its_own_expansion():
    rng = random.Random(2407)
    for _ in range(80):
        n = rng.randint(4, 10)
        columns = rng.randint(1, 6)
        start = random_column_start(rng, n, columns)
        got = straightening._expand(n, start)
        for t in range(columns):
            want = reference_column(n, start, t)
            assert {es: col[t] for es, col in got.items() if col.get(t)} == want, (n, start, t)
        assert not want  # the last column cancels


def spy_on_expand(monkeypatch) -> list[int]:
    """Record the number of start graphs of every kernel call."""
    expand = straightening._expand
    calls = []

    def spy(n, start):
        calls.append(len(start))
        return expand(n, start)

    monkeypatch.setattr(straightening, "_expand", spy)
    monkeypatch.setattr(relations, "_expand", spy)
    return calls


def test_each_job_is_one_kernel_call(monkeypatch):
    comb = straightening.GraphCombination(
        6,
        {
            Graph(6, [(1, 4), (2, 5), (3, 6)]): 2,
            Graph(6, [(1, 3), (2, 5), (4, 6)]): Fraction(-1, 3),
            Graph(6, [(1, 2), (3, 5), (4, 6)]): 1,
        },
    )
    candidate, generators = segre_cubic(8), simple_binomial_relations(8)
    calls = spy_on_expand(monkeypatch)
    noncrossing_monomial_matrix(8, 3)
    assert len(calls) == 1
    straightening.straighten(comb)
    assert calls[1:] == [3]
    member, _ = ideal_membership(candidate, generators, 3)
    assert member and len(calls) == 3
