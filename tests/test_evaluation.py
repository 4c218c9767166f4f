import random
from fractions import Fraction

import pytest

from graphinv.errors import LengthMismatch, MalformedInput, NoStableConfiguration
from graphinv.evaluation import (
    Configuration,
    Stability,
    configuration_from_json,
    configuration_to_json,
    evaluate,
    evaluate_combination,
    random_stable_configuration,
    stability,
)
from graphinv.graphs import Graph, canonicalize
from graphinv.straightening import GraphCombination


def eval_oracle(g, c):
    # independent restatement of the product-of-determinants semantics
    out = Fraction(1)
    for t, h in g.edges:
        ut, vt = c.points[t - 1]
        uh, vh = c.points[h - 1]
        out *= uh * vt - ut * vh
    return out


def random_graph(rng, n, max_edges=6):
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        t, h = rng.sample(range(1, n + 1), 2)
        edges.append((t, h))
    return Graph(n, edges)


def random_config(rng, n):
    pts = []
    for _ in range(n):
        if rng.random() < 0.1:
            pts.append((Fraction(1), Fraction(0)))
        else:
            pts.append((Fraction(rng.randint(-20, 20)), Fraction(rng.randint(1, 5))))
    return Configuration(pts)


def test_configuration_rejects_zero_point():
    with pytest.raises(ValueError):
        Configuration([(0, 0), (1, 1)])


@pytest.mark.parametrize("token", ["1/0", "abc", "", "1/2/3", "nan", float("inf"), [1]])
def test_from_affine_rejects_bad_tokens(token):
    with pytest.raises(MalformedInput):
        Configuration.from_affine([0, 1, token])


@pytest.mark.parametrize("points", [[(0, 0)], [(1,)], [(1, 2, 3)], ["01"], [("1", "0/0")]])
def test_configuration_rejects_bad_points(points):
    with pytest.raises(MalformedInput):
        Configuration(points)


def test_from_affine_tokens():
    c = Configuration.from_affine(["0", "3/2", "inf", None, "oo", "-4"])
    assert c.points[0] == (0, 1)
    assert c.points[1] == (Fraction(3, 2), 1)
    assert c.points[2] == (1, 0)
    assert c.points[3] == (1, 0)
    assert c.points[4] == (1, 0)
    assert c.points[5] == (-4, 1)


def test_coincide_is_projective():
    c = Configuration([(1, 2), (2, 4), (1, 0), (3, 0)])
    assert c.coincide(1, 2)
    assert c.coincide(3, 4)
    assert not c.coincide(1, 3)


def test_evaluate_matches_oracle():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.choice([3, 4, 6, 8])
        g = random_graph(rng, n)
        c = random_config(rng, n)
        assert evaluate(g, c) == eval_oracle(g, c)


def test_evaluate_pinned_value():
    g = Graph(4, [(1, 2), (3, 4)])
    c = Configuration.from_affine([0, 1, 2, 3])
    assert evaluate(g, c) == 1  # (1-0)*(3-2)
    g2 = Graph(4, [(1, 3), (2, 4)])
    assert evaluate(g2, c) == 4  # (2-0)*(3-1)


def test_reversing_one_edge_negates():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([4, 6])
        g = random_graph(rng, n)
        c = random_config(rng, n)
        k = rng.randrange(len(g.edges))
        flipped = list(g.edges)
        t, h = flipped[k]
        flipped[k] = (h, t)
        assert evaluate(Graph(n, flipped), c) == -evaluate(g, c)


def test_canonicalize_sign_is_evaluation_correct():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.choice([4, 5, 6])
        g = random_graph(rng, n)
        c = random_config(rng, n)
        cg, sign = canonicalize(g)
        assert evaluate(g, c) == sign * evaluate(cg, c)


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate(Graph(4, [(1, 2)]), Configuration.from_affine([0, 1, 2]))


def test_evaluate_combination_is_linear():
    g1 = Graph(4, [(1, 2), (3, 4)])
    g2 = Graph(4, [(1, 4), (2, 3)])
    comb = GraphCombination(4, {g1: Fraction(2), g2: Fraction(-3)})
    c = Configuration.from_affine([0, 1, 5, 7])
    assert evaluate_combination(comb, c) == 2 * evaluate(g1, c) - 3 * evaluate(g2, c)


def test_stability_classification():
    w = (1, 1, 1, 1)
    assert stability(Configuration.from_affine([0, 1, 2, 3]), w) == Stability.STABLE
    assert stability(Configuration.from_affine([0, 0, 1, 2]), w) == Stability.STRICTLY_SEMISTABLE
    assert stability(Configuration.from_affine([0, 0, 0, 1]), w) == Stability.UNSTABLE
    # weighted: point 1 alone carries half the total
    assert stability(Configuration.from_affine([0, 1, 2]), (2, 1, 1)) == Stability.STRICTLY_SEMISTABLE
    assert stability(Configuration.from_affine([0, 1, 2]), (3, 1, 1)) == Stability.UNSTABLE
    # coincidence at infinity counts too
    assert stability(Configuration.from_affine(["inf", "inf", 0, 1]), w) == Stability.STRICTLY_SEMISTABLE


def test_stability_enum_values():
    assert Stability.STABLE.value == "stable"
    assert Stability.STRICTLY_SEMISTABLE.value == "strictlySemistable"
    assert Stability.UNSTABLE.value == "unstable"


def test_random_stable_configuration_deterministic_and_stable():
    w = (1, 1, 1, 1, 1, 1)
    a = random_stable_configuration(w, seed=42)
    b = random_stable_configuration(w, seed=42)
    assert a == b
    assert a != random_stable_configuration(w, seed=43)
    for seed in range(20):
        c = random_stable_configuration(w, seed=seed)
        assert stability(c, w) == Stability.STABLE
    c = random_stable_configuration((2, 1, 1, 1), seed=0)
    assert stability(c, (2, 1, 1, 1)) == Stability.STABLE


def test_random_stable_configuration_impossible():
    with pytest.raises(NoStableConfiguration):
        random_stable_configuration((2, 1, 1), seed=0)
    with pytest.raises(NoStableConfiguration):
        random_stable_configuration((5, 1, 1), seed=0)


def test_random_stable_configuration_beyond_20001_points():
    # [-10^4, 10^4] holds 20,001 numerators; one more point needs a wider range
    w = (1,) * 20002
    c = random_stable_configuration(w, seed=5)
    assert c.n == 20002 and all(v == 1 and u.denominator == 1 for u, v in c.points)
    # distinct points: no class carries more than weight 1 of 20,002, so c is stable
    assert len({u for u, _ in c.points}) == 20002
    assert c == random_stable_configuration(w, seed=5)


def test_configuration_json_round_trip():
    c = Configuration([(Fraction(1, 2), 1), (1, 0), (-3, 1)])
    j = configuration_to_json(c)
    assert j == {"points": [["1/2", "1"], ["1", "0"], ["-3", "1"]]}
    assert configuration_from_json(j) == c
