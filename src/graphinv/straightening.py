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
from bisect import insort
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .errors import (
    DegreeMismatch,
    MalformedInput,
    NonContiguousClump,
    SharedEndpoint,
    VertexCountMismatch,
)
from .graphs import (
    Graph,
    _coefficient,
    _is_int,
    _terms_document,
    canonicalize,
    crossing_pairs,
    graph_from_json,
)


class GraphCombination:
    """Rational-linear combination of canonical graphs of one multidegree.

    Keys are canonicalized on construction (folding flip signs into the
    coefficients), zero coefficients are dropped, and terms iterate in
    lexicographic edge order.  The zero combination keeps whatever degree
    it was built with, or None when nothing pinned one down.
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, terms: Mapping[Graph, object] | None = None, degree=None):
        acc: dict[Graph, Fraction] = {}
        deg = tuple(degree) if degree is not None else None
        for g, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if g.n != n:
                raise VertexCountMismatch(f"graph on {g.n} vertices in a combination on {n}")
            cg, sign = canonicalize(g)
            d = cg.multidegree()
            if deg is None:
                deg = d
            elif d != deg:
                raise DegreeMismatch(f"mixed multidegrees {deg} and {d}")
            acc[cg] = acc.get(cg, Fraction(0)) + sign * coeff
        self.n = n
        self.degree = deg
        self.terms = {g: c for g, c in sorted(acc.items(), key=lambda kv: kv[0].edges) if c}

    @classmethod
    def _canonical(cls, n: int, terms: dict[Graph, Fraction], degree) -> "GraphCombination":
        """Wrap terms that are already canonical, nonzero and in edge order."""
        c = object.__new__(cls)
        c.n, c.degree, c.terms = n, degree, terms
        return c

    @classmethod
    def from_graph(cls, g: Graph, coeff=1) -> "GraphCombination":
        return cls(g.n, {g: Fraction(coeff)})

    @classmethod
    def zero(cls, n: int, degree=None) -> "GraphCombination":
        return cls(n, {}, degree=degree)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GraphCombination") -> "GraphCombination":
        if self.n != other.n:
            raise VertexCountMismatch(f"{self.n} != {other.n}")
        if self.degree is not None and other.degree is not None and self.degree != other.degree:
            raise DegreeMismatch(f"{self.degree} != {other.degree}")
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms.get(g, Fraction(0)) + c
        return GraphCombination(self.n, terms, degree=self.degree or other.degree)

    def __sub__(self, other: "GraphCombination") -> "GraphCombination":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "GraphCombination":
        scalar = Fraction(scalar)
        return GraphCombination(
            self.n, {g: scalar * c for g, c in self.terms.items()}, degree=self.degree
        )

    def __neg__(self) -> "GraphCombination":
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, GraphCombination)
            and self.n == other.n
            and self.terms == other.terms
        )

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
    terms: dict[Graph, Fraction] = {}
    for split, coeff in rewrites[pair]:
        h = Graph(g.n, rest + list(split))
        terms[h] = terms.get(h, Fraction(0)) + sign * coeff
    return GraphCombination(g.n, terms, degree=g.multidegree())


# Top-level results the straightening memo may hold.  It is checked, and
# cleared when over, only as a top-level call starts.
_MEMO_CAP = 10_000

# (n, canonical sorted edges) -> {non-crossing canonical sorted edges: int}
# for the graphs of top-level calls.  Values are handed to callers as they
# are; never mutate one.
_MEMO: dict[tuple[int, tuple], dict[tuple, int]] = {}


@cache
def _chords(n: int) -> tuple[float, ...]:
    """Euclidean length of a chord of span s = h - t with the n vertices on
    the unit circle, sin(pi * arc / n), indexed by s."""
    return tuple(math.sin(math.pi * min(s, n - s) / n) for s in range(n))


def _chord_length(n: int, edges: tuple) -> float:
    """Total chord length of canonical edges with vertices on the unit circle."""
    chord = _chords(n)
    return sum([chord[h - t] for t, h in edges])


def _first_crossing(edges: tuple) -> tuple[int, int] | None:
    """The lex-first index pair i < j of canonical sorted edges (a, b),
    (c, d) with a < c < b < d, or None when no two edges cross.

    Sorted tails make c >= a, so (a, b) crosses no later edge once c >= b.
    """
    m = len(edges)
    for i in range(m - 1):
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
    """
    chord = _chords(n)
    pending = dict(start)
    todo = [(-_chord_length(n, es), es) for es in pending]
    heapify(todo)
    out: dict[tuple, int] = {}
    while todo:
        neg_length, es = heappop(todo)
        k = pending.pop(es)
        pair = _first_crossing(es)
        if pair is None:
            out[es] = out.get(es, 0) + k
            continue
        (a, b), (c, d) = es[pair[0]], es[pair[1]]
        crossed = chord[b - a] + chord[d - c]
        shorter = (chord[c - a] + chord[d - b], chord[d - a] + chord[b - c])
        assert max(shorter) < crossed - 1e-9, "an exchange must shorten the chords"
        for child, length in zip(_exchange(es, *pair), shorter):
            if child in pending:
                pending[child] += k
            else:
                pending[child] = k
                heappush(todo, (neg_length + crossed - length, child))
    return out


def _normal_form(g: Graph) -> dict[tuple, int]:
    """Expansion of a canonical graph on the non-crossing basis, as
    {canonical sorted edges: int}; the caller must not mutate it.

    A top-level call: it clears an over-full memo, and takes its first
    exchange through the public crossing_pairs and plucker_exchange before
    the kernel expands the two children.
    """
    if len(_MEMO) > _MEMO_CAP:
        _MEMO.clear()
    key = (g.n, g.edges)
    out = _MEMO.get(key)
    if out is not None:
        return out
    cross = crossing_pairs(g)
    if not cross:
        out = {g.edges: 1}
    else:
        step = plucker_exchange(g, *cross[0]).terms
        assert all(
            _chord_length(g.n, h.edges) < _chord_length(g.n, g.edges) - 1e-9 for h in step
        ), "an exchange must shorten the chords"
        out = _expand(g.n, {h.edges: int(k) for h, k in step.items()})
    _MEMO[key] = out
    return out


def _combination(n: int, degree, flat: Mapping[tuple, object], scale=1) -> GraphCombination:
    """scale * flat as a GraphCombination, built once from canonical keys."""
    terms = {}
    for edges, coeff in sorted(flat.items()):
        coeff = Fraction(scale * coeff)
        if coeff:
            terms[Graph._canonical(n, edges)] = coeff
    return GraphCombination._canonical(n, terms, degree)


def straighten_graph(g: Graph) -> GraphCombination:
    """Straighten a single graph (any orientations) onto the basis."""
    cg, sign = canonicalize(g)
    return _combination(g.n, cg.multidegree(), _normal_form(cg), sign)


def straighten(c: GraphCombination) -> GraphCombination:
    """Rewrite c on the non-crossing basis; exact, linear, idempotent."""
    out: dict[tuple, Fraction] = {}
    for g, coeff in c.terms.items():
        for k, v in _normal_form(g).items():
            out[k] = out.get(k, 0) + coeff * v
    return _combination(c.n, c.degree, out)


def adjacent_clumps(sizes: Iterable[int]) -> list[list[int]]:
    """Intervals of the given sizes covering 1..sum(sizes) in order."""
    out = []
    start = 1
    for s in sizes:
        s = int(s)
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
    out: dict[Graph, Fraction] = {}
    for g, coeff in c.terms.items():
        new = [(vmap[t], vmap[h]) for t, h in g.edges]
        if any(t == h for t, h in new):
            continue
        img = Graph(k, new)
        out[img] = out.get(img, Fraction(0)) + coeff
    deg = None
    if c.degree is not None:
        deg = tuple(sum(c.degree[v - 1] for v in cl) for cl in clumps)
    return GraphCombination(k, out, degree=deg)


def combination_to_json(c: GraphCombination) -> dict:
    return {
        "n": c.n,
        "degree": list(c.degree) if c.degree is not None else None,
        "terms": [
            {"coeff": str(coeff), "edges": [[t, h] for t, h in g.edges]}
            for g, coeff in c.terms.items()
        ],
    }


def combination_from_json(obj: dict) -> GraphCombination:
    """Parse the form combination_to_json writes; any other shape raises
    MalformedInput."""
    n, entries = _terms_document(obj, ("coeff", "edges"))
    terms: dict[Graph, Fraction] = {}
    for entry in entries:
        g = graph_from_json({"n": n, "edges": entry["edges"]})
        terms[g] = terms.get(g, Fraction(0)) + _coefficient(entry["coeff"])
    degree = obj.get("degree")
    if degree is not None and not (isinstance(degree, list) and all(map(_is_int, degree))):
        raise MalformedInput('"degree" must be null or a list of integers')
    return GraphCombination(n, terms, degree=tuple(degree) if degree else None)
