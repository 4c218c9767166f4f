import math
import random
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import degree
from graphinv.degree import (
    degree_trace,
    greedy_multigraph,
    is_boundary,
    moduli_degree,
)
from graphinv.errors import DegenerateModuli, EmptyModuli, OddTotalWeight
from graphinv.graphs import Graph, enumerate_noncrossing

from degree_reference import reference_degree_trace, reference_moduli_degree

GOLDEN = [
    ((1, 1, 1, 1, 1, 1), 3),
    ((2, 2, 2, 2, 2), 5),
    ((1, 1, 1, 1, 1, 1, 1, 1), 40),
    ((1,) * 10, 1225),
    ((3, 3, 3, 3), 3),
    ((3, 2, 1), 1),
    ((2, 2, 1, 1), 1),
    ((1, 1, 1, 1), 1),
]


def test_golden_degrees():
    for w, d in GOLDEN:
        assert moduli_degree(w) == d, w


def test_balanced_quadruples():
    for d in range(1, 6):
        assert moduli_degree((d, d, d, d)) == d


def test_scaling_law():
    # degree of the d-fold weight is d^(n-3) times the original
    assert moduli_degree((2,) * 6) == 8 * 3
    assert moduli_degree((3,) * 6) == 27 * 3
    assert moduli_degree((2,) * 8) == 32 * 40


def test_input_canonicalization():
    assert moduli_degree([1, 2, 2, 1]) == 1
    assert moduli_degree((5, 1, 2, 2)) == moduli_degree((2, 5, 1, 2))


def test_errors():
    with pytest.raises(OddTotalWeight) as exc:
        moduli_degree((1, 1, 1))
    assert "double" in str(exc.value)
    with pytest.raises(EmptyModuli):
        moduli_degree((5, 1, 1, 1))
    with pytest.raises(DegenerateModuli):
        moduli_degree((1, 1))
    with pytest.raises(ValueError):
        moduli_degree(())  # not even a weight vector


def test_greedy_multigraph():
    assert greedy_multigraph((2, 2, 2)).edges == ((1, 2), (1, 3), (2, 3))
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(3, 7)
        w = tuple(rng.randint(1, 4) for _ in range(n))
        if sum(w) % 2 or 2 * max(w) > sum(w):
            continue
        g = greedy_multigraph(w)
        assert g.multidegree() == w
        assert all(t != h for t, h in g.edges)
        assert greedy_multigraph(w) == g
    with pytest.raises(ValueError):
        greedy_multigraph((3, 1))
    with pytest.raises(ValueError):
        greedy_multigraph((1, 1, 1))


def random_builder(seed):
    def build(w):
        rng = random.Random(f"{seed}:{w}")
        stubs = [v for v in range(1, len(w) + 1) for _ in range(w[v - 1])]
        for _ in range(500):
            rng.shuffle(stubs)
            pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
            if all(t != h for t, h in pairs):
                return Graph(len(w), pairs)
        raise RuntimeError(f"no loopless pairing found for {w}")

    return build


def test_degree_independent_of_multigraph_choice(monkeypatch):
    rng = random.Random(99)
    vectors = []
    while len(vectors) < 20:
        n = rng.randint(4, 8)
        w = tuple(rng.randint(1, 4) for _ in range(n))
        if sum(w) % 2 == 0 and 2 * max(w) <= sum(w):
            vectors.append(w)
    # the recursion behind degree_trace; moduli_degree uses no multigraph
    base = [degree_trace(w)[0] for w in vectors]
    for s in range(5):
        monkeypatch.setattr(degree, "greedy_multigraph", random_builder(s))
        assert [degree_trace(w)[0] for w in vectors] == base, s


def test_memo_transparency():
    for w in [(1,) * 8, (2, 2, 2, 1, 1), (3, 2, 2, 2, 1)]:
        assert moduli_degree(w) == reference_moduli_degree(w, use_memo=False)


def test_is_boundary():
    assert is_boundary((3, 1, 1, 1))
    assert is_boundary((2, 1, 1))
    assert not is_boundary((1, 1, 1, 1))
    assert not is_boundary((2, 2, 2, 2, 2))


def test_boundary_weights_still_run():
    assert moduli_degree((3, 1, 1, 1)) == 1
    assert moduli_degree((2, 1, 1)) == 1


def check_trace(node):
    action = node["action"]
    if action == "point":
        assert node["degree"] == 1
        assert len(node["weights"]) == 3
    elif action == "balanced-quadruple":
        assert node["degree"] == node["weights"][0]
        assert len(set(node["weights"])) == 1 and len(node["weights"]) == 4
    elif action == "pair-reduction":
        assert node["degree"] == node["child"]["degree"]
        check_trace(node["child"])
    elif action == "multigraph":
        total = 0
        for b in node["branches"]:
            if "child" in b:
                assert b["contribution"] == b["multiplicity"] * b["child"]["degree"]
                check_trace(b["child"])
            else:
                assert b["contribution"] == 0
                assert "note" in b
            total += b["contribution"]
        assert node["degree"] == total
        assert node["graph_edges"]
    elif action == "memoized":
        assert "degree" in node
    else:
        raise AssertionError(f"unknown action {action}")


def test_degree_trace():
    for w in [(1,) * 6, (1,) * 8, (3, 1, 1, 1), (2, 2, 2, 2, 2)]:
        value, trace = degree_trace(w)
        assert value == moduli_degree(w)
        assert trace["degree"] == value
        assert trace["weights"] == sorted(w, reverse=True)
        check_trace(trace)


def test_trace_shows_zero_contribution_note():
    # (2,2,1,1,1,1): the 2+2 edge sums to half the total if present; use a
    # vector guaranteed to have a half-total pair in the greedy graph
    value, trace = degree_trace((2, 2, 2, 1, 1))
    assert value == moduli_degree((2, 2, 2, 1, 1))
    notes = []

    def walk(node):
        for b in node.get("branches", []):
            if "note" in b:
                notes.append(b["note"])
            if "child" in b:
                walk(b["child"])
        if "child" in node:
            walk(node["child"])

    walk(trace)
    assert all("not a component" in s for s in notes)


def reference_vectors(seed, count):
    """count seeded weight vectors of lengths 3-9 with entries 1-6, valid or
    not (about half have an odd total), then as many boundary and
    empty-moduli ones."""
    rng = random.Random(seed)
    vectors = [tuple(rng.randint(1, 6) for _ in range(rng.randint(3, 9))) for _ in range(count)]
    while len(vectors) < 2 * count:
        rest = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
        if sum(rest) <= 4:
            vectors.append(tuple(rest + [sum(rest)]))  # one weight is half the total
            vectors.append(tuple(rest + [sum(rest) + 2]))  # one weight is more than half
    return vectors


def outcome(f, w):
    """f(w), or the type of the exception it raised."""
    try:
        return f(w)
    except Exception as exc:  # noqa: BLE001 - the type is the answer compared
        return type(exc)


def test_reference_vectors_cover_every_case():
    vectors = reference_vectors(17, 120)
    assert any(is_boundary(w) for w in vectors if sum(w) % 2 == 0)
    outcomes = {outcome(moduli_degree, w) for w in vectors}
    assert {OddTotalWeight, EmptyModuli} <= outcomes
    assert any(isinstance(x, int) for x in outcomes)


@pytest.mark.parametrize("seed", [17, 18])
def test_degree_matches_reference(seed):
    for w in reference_vectors(seed, 120):
        assert outcome(moduli_degree, w) == outcome(reference_moduli_degree, w), w
        assert outcome(degree_trace, w) == outcome(reference_degree_trace, w), w


def test_degree_matches_reference_without_memo_and_with_other_builders(monkeypatch):
    # no memo is exponential in the length, so the short vectors only
    vectors = [v for v in reference_vectors(19, 200) if len(v) <= 6]
    for builder in (greedy_multigraph, random_builder(1)):
        monkeypatch.setattr(degree, "greedy_multigraph", builder)
        for w in vectors:
            got = outcome(lambda v: degree_trace(v)[0], w)
            for use_memo in (True, False):
                want = outcome(lambda v: reference_moduli_degree(v, graph_builder=builder, use_memo=use_memo), w)
                assert got == want, (w, use_memo)


def formula_vectors(seed, count):
    """count seeded weight vectors of lengths 1-10 with entries 1-7, valid or
    not (odd totals, lengths below 3, empty moduli), then boundary,
    empty-moduli and degenerate ones, a third each."""
    rng = random.Random(seed)
    vectors = [tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 10))) for _ in range(count)]
    for _ in range(count // 3):
        rest = [rng.randint(1, 3) for _ in range(rng.randint(2, 9))]
        vectors.append(tuple(rest + [sum(rest)]))  # one weight is half the total
        vectors.append(tuple(rest + [sum(rest) + 2]))  # one weight is more than half
        vectors.append((rng.randint(1, 7),) * 2)  # two points: even total, nothing to move
    return vectors


def test_formula_vectors_cover_every_case():
    vectors = formula_vectors(23, 100)
    outcomes = [outcome(reference_moduli_degree, w) for w in vectors]
    assert {OddTotalWeight, EmptyModuli, DegenerateModuli} <= set(outcomes)
    assert sum(is_boundary(w) for w in vectors if sum(w) % 2 == 0) >= 33
    assert sum(isinstance(x, int) for x in outcomes) >= 60
    assert {len(w) for w in vectors} == set(range(1, 11))


def assert_formula_matches_recursion(w):
    want = outcome(reference_moduli_degree, w)
    assert outcome(moduli_degree, w) == want, w
    assert outcome(lambda v: degree_trace(v)[0], w) == want, w


@pytest.mark.parametrize("seed", [23, 24])
def test_formula_matches_reference_recursion(seed):
    for w in formula_vectors(seed, 100):
        assert_formula_matches_recursion(w)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(1, 7), min_size=1, max_size=10),
        st.lists(st.integers(1, 3), min_size=2, max_size=9).map(lambda r: r + [sum(r)]),  # boundary
    )
)
def test_formula_matches_reference_recursion_on_generated_weights(w):
    assert_formula_matches_recursion(tuple(w))


def test_formula_is_invariant_under_permutation():
    rng = random.Random(29)
    for w in formula_vectors(29, 60):
        want = outcome(moduli_degree, w)
        for _ in range(3):
            v = list(w)
            rng.shuffle(v)
            assert outcome(moduli_degree, v) == want, (w, v)


def test_formula_at_scale():
    start = time.perf_counter()
    ones = moduli_degree((1,) * 1000)  # the recursion raised RecursionError here
    assert time.perf_counter() - start < 1.0
    assert ones > 0 and ones.bit_length() > 8000
    d = 10**6
    assert moduli_degree((d,) * 40) == d**37 * moduli_degree((1,) * 40)
    assert moduli_degree((10**7,) * 6) == 3 * 10**21
    assert moduli_degree((200_000, 200_000, 1, 1)) == 1
    assert [moduli_degree((1,) * n) for n in (6, 8, 10, 12)] == [3, 40, 1225, 67956]


@contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_long_pair_reduction_runs_take_no_stack():
    w = (1200, 1198, 3, 2, 2, 1)
    assert moduli_degree(w) == 17
    value, tree = degree_trace(w)
    assert value == 17
    with recursion_limit(10_000):
        assert reference_degree_trace(w) == (value, tree)
        assert reference_moduli_degree(w) == 17


def hilbert_differences(w):
    """The (n-3)-th finite differences of h(k) = #enumerate_noncrossing(n, k*w)
    over k = 0..n-2: the count of non-crossing graphs of multidegree k*w is
    the Hilbert function, whose leading difference is the degree."""
    n = len(w)
    h = [len(enumerate_noncrossing(n, [k * x for x in w])) for k in range(n - 1)]
    for _ in range(n - 3):
        h = [b - a for a, b in zip(h, h[1:])]
    return h


HILBERT_DEGREES = [
    ((1,) * 4, 1),
    ((1,) * 6, 3),
    ((1,) * 8, 40),
    ((2,) * 5, 5),
    ((2, 2, 1, 1, 1, 1), 4),
    ((3, 1, 1, 1, 1, 1), 1),
    ((2, 1, 1, 1, 1, 1, 1), 10),
    ((3, 3, 2, 2, 2), 6),
    ((2, 2, 2, 1, 1), 2),
    ((3, 2, 2, 2, 1), 3),
    ((4, 3, 3, 3, 3), 12),
]


def test_hilbert_function_oracle():
    # an oracle that shares no code with graphinv.degree: the Hilbert function
    for w, d in HILBERT_DEGREES:
        assert hilbert_differences(w) == [d, d], w
        assert moduli_degree(w) == d, w
    # at n=6, h(k) = C(k+4,4) - C(k+1,4): one cubic hypersurface in P^4
    assert [len(enumerate_noncrossing(6, (k,) * 6)) for k in range(7)] == [
        math.comb(k + 4, 4) - math.comb(k + 1, 4) for k in range(7)
    ]


def test_hilbert_function_oracle_on_random_weights():
    rng = random.Random(2718)
    checked = 0
    while checked < 12:
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(4, 6)))
        if sum(w) % 2 or 2 * max(w) >= sum(w):  # odd total, boundary or empty
            continue
        d = moduli_degree(w)
        assert hilbert_differences(w) == [d, d], w
        checked += 1
