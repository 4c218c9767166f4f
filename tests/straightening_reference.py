"""Reference straightening engines for differential tests.

reference_straighten_graph is the recursive, Fraction-valued engine that
the integer worklist kernel in graphinv.straightening replaced.  Every
intermediate graph goes through the public Graph, crossing_pairs and
plucker_exchange, so it is slow and bounded by the recursion limit, but
easy to check by eye.

reference_expand is the multi-column worklist kernel on (tail, head) edge
tuples that the int-coded graphinv.straightening._expand replaced, with
its crossing search and exchange.  It takes and returns the same
{canonical sorted edges: {column: coefficient}} as _expand, but orders its
worklist by float chord length where _expand uses an int potential, so a
differential test compares two worklist orders.

Neither is part of the library.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from heapq import heapify, heappop, heappush

from graphinv.graphs import Graph, canonicalize, crossing_pairs
from graphinv.straightening import GraphCombination, plucker_exchange


def chord_length(n: int, edges) -> float:
    """Total Euclidean chord length of edges on n vertices on the unit circle."""
    total = 0.0
    for t, h in edges:
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
        before = chord_length(g.n, g.edges)
        for h in repl.terms:
            assert chord_length(h.n, h.edges) < before - 1e-9
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


def reference_first_crossing(edges: tuple, start: int = 0) -> tuple[int, int] | None:
    """The lex-first index pair i < j of canonical sorted edges (a, b),
    (c, d) with a < c < b < d, or None when no two edges cross; the scan
    starts at i = start, so the caller vouches that no edge before start
    crosses any edge.

    Sorted tails make c >= a, so (a, b) crosses no later edge once c >= b.
    """
    m = len(edges)
    for i in range(start, m - 1):
        a, b = edges[i]
        for j in range(i + 1, m):
            c, d = edges[j]
            if c >= b:
                break
            if c > a and d > b:
                return i, j
    return None


def reference_exchange(edges: tuple, i: int, j: int) -> tuple[tuple, tuple]:
    """The two children, each with coefficient +1, of the crossing pair at
    indices i < j of canonical sorted edges: (a, b), (c, d) with
    a < c < b < d become (a, c), (b, d) and (a, d), (c, b)."""
    a, b = edges[i]
    c, d = edges[j]
    rest = list(edges)
    del rest[j], rest[i]
    one = rest.copy()
    insort(one, (a, c))
    insort(one, (b, d))
    insort(rest, (a, d))
    insort(rest, (c, b))
    return tuple(one), tuple(rest)


def reference_expand(n: int, start: dict[tuple, dict]) -> dict[tuple, dict]:
    """Non-crossing expansion of several combinations at once, on edge
    tuples: every graph, a leaf too, goes through the heap, longest total
    chord length first, and is searched for its first crossing when it is
    taken.  A pending graph's hint is the number of its parent's edges
    with tail < a, where (a, b) is the first edge of the parent's crossing
    pair; a graph reached from several parents keeps the smallest."""
    # canonical sorted edges -> [{column: coefficient}, hint]
    pending = {es: [dict(col), 0] for es, col in start.items()}
    todo = [(-chord_length(n, es), es) for es in pending]
    heapify(todo)
    out: dict[tuple, dict] = {}
    while todo:
        neg_length, es = heappop(todo)
        col, hint = pending.pop(es)
        pair = reference_first_crossing(es, hint)
        if pair is None:
            acc = out.setdefault(es, {})
            for t, k in col.items():
                acc[t] = acc.get(t, 0) + k
            continue
        r = bisect_left(es, (es[pair[0]][0], 0))
        for child in reference_exchange(es, *pair):
            length = chord_length(n, child)
            assert length < -neg_length - 1e-9, "an exchange must shorten the chords"
            entry = pending.get(child)
            if entry is None:
                pending[child] = [col.copy(), r]
                heappush(todo, (-length, child))
            else:
                acc = entry[0]
                for t, k in col.items():
                    acc[t] = acc.get(t, 0) + k
                if r < entry[1]:
                    entry[1] = r
    return out
