"""The report layout of library objects against their JSON values.

A report value may hold ``Graph``, ``GraphCombination`` and
``GraphPolynomial`` objects; the layout must give, byte for byte,
``json.dumps`` of the value with each object replaced by its
``graph_to_json``, ``combination_to_json`` or ``polynomial_to_json`` value.
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import report
from graphinv.graphs import Graph, enumerate_matchings, graph_to_json, noncrossing_matchings
from graphinv.relations import (
    GraphPolynomial,
    plucker_linear_relations,
    polynomial_to_json,
    segre_cubic,
    simple_binomial_relations,
)
from graphinv.straightening import GraphCombination, combination_to_json, straighten_graph

TO_JSON = {Graph: graph_to_json, GraphCombination: combination_to_json, GraphPolynomial: polynomial_to_json}


def to_json(value):
    """value with every library object in it replaced by its JSON value."""
    if type(value) in TO_JSON:
        return TO_JSON[type(value)](value)
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def reference(value, indent: str = "") -> str:
    return json.dumps(to_json(value), indent=2, sort_keys=True).replace("\n", "\n" + indent)


def check(value, batch=None):
    """The layout of value at three indents, whole and as pieces, with
    _BATCH as it is or patched to batch."""
    with mock.patch.object(report, "_BATCH", batch or report._BATCH):
        for indent in ("", "  ", "     "):
            got = report.pieces(value, indent)
            assert "".join(got) == reference(value, indent)
            assert report.dumps(value, indent) == reference(value, indent)


def random_graph(rng, n, m):
    """m edges on 1..n in random order and orientation, repeats allowed."""
    return Graph(n, [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(m)])


def seeded_graphs(seed, count=40):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.randint(0, 9))
        out.append(g)
        if g.edges and rng.random() < 0.5:
            # the same graph with its edges reversed, repeated or reordered
            e = list(g.edges)
            out.append(rng.choice([
                Graph(n, [(h, t) for t, h in e]),
                Graph(n, e + e[:2]),
                Graph(n, e[::-1]),
            ]))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_graphs(seed):
    graphs = seeded_graphs(seed)
    graphs += [Graph(1), Graph(12), Graph(12, [(12, 1)] * 3), Graph(2, [(1, 2), (2, 1), (1, 2)])]
    for g in graphs:
        check(g)
    check({"graphs": graphs, "one": [graphs[0]], "pair": (graphs[1], graphs[1])})


def test_equal_graphs_in_another_edge_order():
    # equal graphs whose edges are listed in different orders, each used
    # many times and interleaved, so the kept text of one meets the other
    a = Graph(6, [(1, 2), (3, 4), (5, 6)])
    b = Graph(6, [(5, 6), (1, 2), (3, 4)])
    assert a == b and hash(a) == hash(b) and a.edges != b.edges
    check([a, b, a, a, b, b, a, b] * 20)
    check(GraphPolynomial(6, {(a, a): 1, (a, b): 2}))
    check({"x": [a] * 3, "y": {"z": [b] * 3}, "w": [[a, b], [b, a]]})


def seeded_combinations(seed, count=12):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice([4, 6, 8, 10])
        g = Graph(n, [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(n)])
        c = straighten_graph(g)
        scale = rng.choice([1, -1, -3, Fraction(1, 2), Fraction(-7, 3)])
        out.append(scale * c)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_combinations(seed):
    combs = seeded_combinations(seed)
    n = 6
    m = noncrossing_matchings(n)
    combs += [
        GraphCombination.zero(n),  # degree None
        GraphCombination.zero(n, degree=(1,) * n),
        GraphCombination._of(n, [(m[0], 2), (m[1], Fraction(-5, 4))], None),  # terms, but degree None
        GraphCombination(n, {m[0]: -1, m[2]: Fraction(3, 2)}),
        GraphCombination(n, {m[1]: 0}),  # zero coefficient dropped: zero with degree None
        # degrees equal to (1, 1, 1, 0) whose entries are not all ints, around it
        GraphCombination.zero(4, degree=(1, True, 1.0, -0.0)),
        GraphCombination.zero(4, degree=(1, 1, 1, 0)),
        GraphCombination.zero(4, degree=(True, 1, 1, False)),
        GraphCombination.zero(2, degree=[1, 1]),  # a list, not a tuple
    ]
    for c in combs:
        check(c)
    check({"relations": combs, "first": [combs[0]], "by": {"name": combs[-3:]}})


def test_a_family_sharing_one_degree_tuple():
    rels = plucker_linear_relations(8)
    assert len({id(r.degree) for r in rels}) == 1
    check({"count": len(rels), "relations": rels})
    check({"relations": rels[:5]}, batch=2)


def matching_monomials(n, degree, rng, count):
    ms = enumerate_matchings(n)
    return [tuple(rng.choice(ms) for _ in range(degree)) for _ in range(count)]


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomials(degree):
    rng = random.Random(degree)
    for n in (2, 4, 6, 8):
        monos = matching_monomials(n, degree, rng, 6)
        coeffs = [1, -2, Fraction(1, 3), Fraction(-9, 2), 10 ** 30]
        p = GraphPolynomial(n, {mono: rng.choice(coeffs) for mono in monos})
        check(p)
        check([p, p, GraphPolynomial.zero(n)])
    check(GraphPolynomial(4, {(): 5}))


def test_relation_families():
    check({"relations": simple_binomial_relations(8), "segre": [segre_cubic(8)]})
    check({"relations": [segre_cubic(10)]}, batch=3)


@pytest.mark.parametrize("batch", [1, 2, 3, 64])
def test_objects_inside_long_lists(batch):
    rng = random.Random(batch)
    graphs = seeded_graphs(batch, count=70)
    combs = seeded_combinations(batch, count=6)
    polys = [GraphPolynomial(6, {m: rng.choice([1, -1, Fraction(1, 2)]) for m in matching_monomials(6, 2, rng, 5)})
             for _ in range(4)]
    value = {
        "graphs": graphs,
        "mixed": [graphs[0], combs[0], polys[0], 1, "x", [graphs[1]], {"g": graphs[2]}] * 12,
        "outputs": {"relations": combs, "one": [combs[1]], "polys": polys},
        "nested": [[graphs[:3], (combs[0],)]],
        "deep": [[[{"a": [polys[0], graphs[3]]}]]],
    }
    check(value, batch)
    # a long straightened combination and a long graph as one-item lists
    big = straighten_graph(Graph(10, [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10), (1, 3), (2, 9)]))
    assert len(big.terms) > 64
    check({"c": [big], "g": Graph(100, [(i, i + 1) for i in range(1, 99)])}, batch)


def test_long_terms_are_laid_out_a_batch_at_a_time():
    big = straighten_graph(Graph(10, [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10), (1, 3), (2, 9)]))
    value = {"outputs": {"combination": big}}
    got = report.pieces(value)
    assert "".join(got) == reference(value)
    # the terms sit at indent 8, a batch of them to a piece
    texts = [report.dumps(t, " " * 8) for t in combination_to_json(big)["terms"]]
    batches = [(",\n" + " " * 8).join(texts[k:k + report._BATCH]) for k in range(0, len(texts), report._BATCH)]
    assert len(batches) == 2
    assert [p for p in got if p in batches] == batches
    # two dict heads, the combination's head, its batches and their
    # separator, its tail and two dict tails
    assert len(got) == 2 + 1 + 3 + 1 + 2


def test_objects_past_the_recursion_limit():
    # the top-down layout runs out of stack and the walk lays out each
    # object it meets on its own
    g = Graph(5, [(3, 1), (2, 5)])
    c = GraphCombination(4, {Graph(4, [(1, 3), (2, 4)]): Fraction(-1, 2)})
    value = {"leaf": [g, c]}
    for k in range(sys.getrecursionlimit()):
        value = {"child": value, "g": g, "c": [c]}
    got = report.pieces(value)
    assert len(got) == 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 5000)  # json.dumps and to_json recurse once per level
    try:
        want = reference(value)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [want]


edge = st.integers(1, 7).flatmap(lambda t: st.integers(1, 7).filter(lambda h: h != t).map(lambda h: (t, h)))
graphs = st.lists(edge, max_size=6).map(lambda es: Graph(7, es))
coefficients = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=6), st.integers(-(10 ** 40), 10 ** 40))
matchings = st.sampled_from(enumerate_matchings(4))
objects = st.one_of(
    graphs,
    st.dictionaries(st.lists(edge, max_size=4).map(lambda es: Graph(7, [(min(e), max(e)) for e in es])),
                    coefficients, max_size=5).map(lambda terms: GraphCombination._of(7, terms.items(), None)),
    st.integers(0, 3).flatmap(lambda d: st.dictionaries(st.tuples(*[matchings] * d), coefficients, max_size=4))
    .map(lambda terms: GraphPolynomial(4, terms)),
)
values = st.recursive(
    st.one_of(objects, st.integers(-2, 2), st.sampled_from(["", "a", None, True])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(values, st.sampled_from([1, 2, 64]))
def test_layout_matches_the_json_values(value, batch):
    check(value, batch)


def test_objects_of_one_value_share_their_texts():
    # every relation of the family is laid out, and each matching's edge
    # text is made at most twice per indent (its first use is not kept)
    rels = plucker_linear_relations(8)
    made = []
    lay = report._pairs

    def spy(edges, indent, memo):
        made.append(edges)
        return lay(edges, indent, memo)

    with mock.patch.object(report, "_pairs", spy):
        text = report.dumps({"relations": rels})
    assert text == reference({"relations": rels})
    uses = [g.edges for r in rels for g in r.terms]
    assert len(uses) == 3 * len(rels)
    assert sorted(made) == sorted(itertools.chain(*[[e] * min(uses.count(e), 2) for e in set(uses)]))
