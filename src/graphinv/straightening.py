"""Formal combinations of graphs, Plucker exchange, and straightening.

Every invariant of fixed multidegree is a rational combination of
non-crossing graphs.  The straightening algorithm rewrites an arbitrary
combination onto that basis by repeatedly exchanging a crossing pair of
edges through the three-term Plucker identity.  With canonical (tail <
head) orientations on four distinct vertices i < j < k < l the identity
reads

    X_{ik.jl} = X_{ij.kl} + X_{il.jk}

on top of any residual graph; the sign conventions are pinned by the
evaluation oracle in the test suite.

Internally a graph is its canonical sorted edge tuple and a coefficient a
plain int: a crossing exchange of canonical edges has coefficients +1, so
straightening a graph never leaves the positive integers.  Public objects
are built once, from the finished expansion.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from functools import cache
from heapq import heapify, heappop, heappush
from operator import index
from typing import Iterable

from .errors import (
    MalformedInput,
    NonContiguousClump,
    SharedEndpoint,
    VertexCountMismatch,
)
from .graphs import (
    Combination,
    Graph,
    _coefficient,
    _is_int,
    _terms_document,
    canonicalize,
    crossing_pairs,  # noqa: F401  kept as straightening.crossing_pairs, which the benchmark's tracer wraps
    graph_from_json,
)


class GraphCombination(Combination):
    """Rational-linear combination of canonical graphs of one multidegree;
    flip signs fold into the coefficients, and terms iterate in
    lexicographic edge order."""

    __slots__ = ()

    @staticmethod
    def _canonical_key(n: int, g: Graph):
        if g.n != n:
            raise VertexCountMismatch(f"graph on {g.n} vertices in a combination on {n}")
        cg, sign = canonicalize(g)
        return cg, sign, cg.multidegree()

    @staticmethod
    def _order(g: Graph):
        return g.edges

    @classmethod
    def from_graph(cls, g: Graph) -> "GraphCombination":
        return cls(g.n, [(g, 1)])

    def __repr__(self):
        if self.is_zero:
            return f"GraphCombination({self.n}; 0)"
        inner = " + ".join(f"({c})*{g!r}" for g, c in self.terms.items())
        return f"GraphCombination({self.n}; {inner})"


def plucker_exchange(g: Graph, e1: int, e2: int) -> GraphCombination:
    """Rewrite X_g through the three-term identity on edges e1, e2 of g.

    The two edges must have four distinct endpoints i < j < k < l.  The
    crossing pairing {ik, jl} becomes {ij, kl} + {il, jk}; each of the two
    non-crossing pairings becomes the difference of the other two.  All
    other edges pass through untouched, and orientation flips are folded
    into the coefficients.
    """
    edges = list(g.edges)
    a, b = edges[e1], edges[e2]
    if len({a[0], a[1], b[0], b[1]}) < 4:
        raise SharedEndpoint(f"edges {a} and {b} share a vertex")
    sign = 1
    for t, h in (a, b):
        if t > h:
            sign = -sign
    i, j, k, l = sorted((a[0], a[1], b[0], b[1]))
    split_ij = ((i, j), (k, l))
    split_ik = ((i, k), (j, l))
    split_il = ((i, l), (j, k))
    rewrites = {
        frozenset(split_ik): ((split_ij, 1), (split_il, 1)),
        frozenset(split_ij): ((split_ik, 1), (split_il, -1)),
        frozenset(split_il): ((split_ik, 1), (split_ij, -1)),
    }
    pair = frozenset(((min(a), max(a)), (min(b), max(b))))
    rest = [edges[x] for x in range(len(edges)) if x != e1 and x != e2]
    terms = [(Graph(g.n, rest + list(split)), sign * coeff) for split, coeff in rewrites[pair]]
    return GraphCombination(g.n, terms, degree=g.multidegree())


@cache
def _chords(n: int) -> tuple[float, ...]:
    """Euclidean length of a chord of span s = h - t with the n vertices on
    the unit circle, sin(pi * arc / n), indexed by s."""
    return tuple(math.sin(math.pi * min(s, n - s) / n) for s in range(n))


def _chord_length(n: int, edges: tuple) -> float:
    """Total chord length of canonical edges with vertices on the unit circle."""
    chord = _chords(n)
    return sum([chord[h - t] for t, h in edges])


def _first_crossing(edges: tuple, start: int = 0) -> tuple[int, int] | None:
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


def _exchange(edges: tuple, i: int, j: int) -> tuple[tuple, tuple]:
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


def _expand(n: int, start: dict[tuple, int]) -> dict[tuple, int]:
    """Non-crossing expansion of the combination start, given and returned
    as {canonical sorted edges: positive int}.

    Top-down, with an explicit worklist in place of recursion: a graph's
    coefficient collects every parent's before the graph is exchanged, so
    each intermediate graph is exchanged once and only the frontier is
    held.  Graphs are taken longest total chord length first.  The
    exchange of a crossing pair strictly shortens it (asserted under
    __debug__; this is the termination argument), so every parent of a
    graph is taken before it.  The order only saves work: a graph taken
    too early would be exchanged again later, which linearity makes
    harmless.  Coefficients stay positive, so nothing cancels.

    Next to its coefficient each pending graph keeps a hint: an index
    before which no edge crosses any edge, where its crossing search
    starts.  When a parent's lex-first crossing pair (a, b), (c, d) sits
    at indices i < j, its children get the hint r, the number of parent
    edges with tail < a.  Those r edges come before i, so they cross no
    parent edge, and they stay the first r edges of both children, whose
    new edges (a, c), (b, d), (a, d) and (c, b) all have tail >= a.  Nor
    do they cross a new edge: an edge (p, q) with p < a that crossed one
    would cross (a, b) or (c, d) (for (a, c): p < a < q < c < b; for
    (b, d): p < c < b < q < d; for (a, d): p < a < q < b, or
    p < c < q < d when q >= b; for (c, b): p < a < c < q < b).  A child
    reached from several parents keeps the smallest hint.  The search
    still finds each graph's lex-first pair, so the same exchanges happen.
    """
    chord = _chords(n)
    # canonical sorted edges -> [coefficient, hint]
    pending = {es: [k, 0] for es, k in start.items()}
    todo = [(-_chord_length(n, es), es) for es in pending]
    heapify(todo)
    out: dict[tuple, int] = {}
    while todo:
        neg_length, es = heappop(todo)
        k, hint = pending.pop(es)
        pair = _first_crossing(es, hint)
        if pair is None:
            out[es] = out.get(es, 0) + k
            continue
        (a, b), (c, d) = es[pair[0]], es[pair[1]]
        crossed = chord[b - a] + chord[d - c]
        shorter = (chord[c - a] + chord[d - b], chord[d - a] + chord[b - c])
        assert max(shorter) < crossed - 1e-9, "an exchange must shorten the chords"
        r = bisect_left(es, (a, 0))
        for child, length in zip(_exchange(es, *pair), shorter):
            entry = pending.get(child)
            if entry is None:
                pending[child] = [k, r]
                heappush(todo, (neg_length + crossed - length, child))
            else:
                entry[0] += k
                if r < entry[1]:
                    entry[1] = r
    return out


def _normal_form(g: Graph) -> dict[tuple, int]:
    """Expansion of a canonical graph on the non-crossing basis, as a new
    {canonical sorted edges: int}.

    _first_crossing finds the lex-first crossing pair of the canonical
    sorted edges; the first exchange on it goes through the public
    plucker_exchange, and the kernel expands the two children.
    """
    cross = _first_crossing(g.edges)
    if cross is None:
        return {g.edges: 1}
    step = plucker_exchange(g, *cross).terms
    assert all(
        _chord_length(g.n, h.edges) < _chord_length(g.n, g.edges) - 1e-9 for h in step
    ), "an exchange must shorten the chords"
    return _expand(g.n, {h.edges: k for h, k in step.items()})


def _combination(n: int, degree, pairs: Iterable[tuple[tuple, object]]) -> GraphCombination:
    """A GraphCombination of (canonical sorted edges, coefficient) pairs."""
    return GraphCombination._of(n, ((Graph._canonical(n, es), c) for es, c in pairs), degree)


def straighten_graph(g: Graph) -> GraphCombination:
    """Straighten a single graph (any orientations) onto the basis."""
    cg, sign = canonicalize(g)
    return _combination(g.n, cg.multidegree(), ((es, sign * k) for es, k in _normal_form(cg).items()))


def straighten(c: GraphCombination) -> GraphCombination:
    """Rewrite c on the non-crossing basis; exact, linear, idempotent."""
    pairs = ((es, coeff * k) for g, coeff in c.terms.items() for es, k in _normal_form(g).items())
    return _combination(c.n, c.degree, pairs)


def adjacent_clumps(sizes: Iterable[int]) -> list[list[int]]:
    """Intervals of the given sizes covering 1..sum(sizes) in order."""
    out = []
    start = 1
    for s in sizes:
        s = index(s)
        if s < 1:
            raise ValueError("clump sizes must be positive")
        out.append(list(range(start, start + s)))
        start += s
    return out


def clump_map(c: GraphCombination, clumps: Iterable[Iterable[int]]) -> GraphCombination:
    """Identify each clump of consecutive vertices to a single vertex.

    clumps lists the intervals in order, e.g. [[1, 2], [3], [4]].  Edges map
    endpoint-wise; a graph whose image acquires a loop contributes zero.
    """
    clumps = [list(cl) for cl in clumps]
    flat = [v for cl in clumps for v in cl]
    if flat != list(range(1, c.n + 1)):
        raise NonContiguousClump(f"clumps must be consecutive intervals covering 1..{c.n} in order")
    vmap = {}
    for idx, cl in enumerate(clumps, start=1):
        for v in cl:
            vmap[v] = idx
    k = len(clumps)
    images = (([(vmap[t], vmap[h]) for t, h in g.edges], coeff) for g, coeff in c.terms.items())
    out = [(Graph(k, new), coeff) for new, coeff in images if all(t != h for t, h in new)]
    deg = None
    if c.degree is not None:
        deg = tuple(sum(c.degree[v - 1] for v in cl) for cl in clumps)
    return GraphCombination(k, out, degree=deg)


def combination_to_json(c: GraphCombination) -> dict:
    return {
        "n": c.n,
        "degree": list(c.degree) if c.degree is not None else None,
        "terms": [
            {"coeff": str(coeff), "edges": g.edges}
            for g, coeff in c.terms.items()
        ],
    }


def combination_from_json(obj: dict) -> GraphCombination:
    """Parse the form combination_to_json writes; any other shape raises
    MalformedInput."""
    n, entries = _terms_document(obj, ("coeff", "edges"))
    terms = [(graph_from_json({"n": n, "edges": e["edges"]}), _coefficient(e["coeff"])) for e in entries]
    degree = obj.get("degree")
    if degree is not None and not (isinstance(degree, list) and all(map(_is_int, degree))):
        raise MalformedInput('"degree" must be null or a list of integers')
    return GraphCombination(n, terms, degree=tuple(degree) if degree else None)
