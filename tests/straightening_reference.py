"""Reference straightening engine for differential tests.

This is the recursive, Fraction-valued engine that the integer worklist
kernel in graphinv.straightening replaced.  Every intermediate graph goes
through the public Graph, crossing_pairs and plucker_exchange, so it is
slow and bounded by the recursion limit, but easy to check by eye.  It is
not part of the library.
"""

from __future__ import annotations

import math
from fractions import Fraction

from graphinv.graphs import Graph, canonicalize, crossing_pairs
from graphinv.straightening import GraphCombination, plucker_exchange


def chord_length(g: Graph) -> float:
    """Total Euclidean chord length with vertices on the unit circle."""
    n = g.n
    total = 0.0
    for t, h in g.edges:
        arc = min(abs(t - h), n - abs(t - h))
        total += math.sin(math.pi * arc / n)
    return total


def _straighten_canonical(g: Graph, memo: dict) -> dict[Graph, Fraction]:
    hit = memo.get(g)
    if hit is not None:
        return hit
    cross = crossing_pairs(g)
    if not cross:
        out = {g: Fraction(1)}
    else:
        e1, e2 = cross[0]
        repl = plucker_exchange(g, e1, e2)
        before = chord_length(g)
        for h in repl.terms:
            assert chord_length(h) < before - 1e-9
        out = {}
        for h, c in repl.terms.items():
            for k, c2 in _straighten_canonical(h, memo).items():
                out[k] = out.get(k, Fraction(0)) + c * c2
        out = {k: v for k, v in sorted(out.items(), key=lambda kv: kv[0].edges) if v}
    memo[g] = out
    return out


def reference_straighten_graph(g: Graph) -> GraphCombination:
    """straighten_graph by recursion on public objects, with a fresh memo."""
    cg, sign = canonicalize(g)
    flat = _straighten_canonical(cg, {})
    return GraphCombination(g.n, {h: sign * c for h, c in flat.items()}, degree=cg.multidegree())
