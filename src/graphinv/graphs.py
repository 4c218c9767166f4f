"""Directed loopless multigraphs on labeled vertices, and their combinatorics.

Vertices are labeled 1..n and pictured in that order around a circle.  A
graph is a multiset of directed edges (tail, head); reversing an edge flips
the sign of the associated invariant, so every graph has a canonical form
with all edges tail < head together with a flip-parity sign.  Non-crossing
graphs (no two chords cross) index the basis of each graded piece.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import index
from typing import NamedTuple, Sequence

from .errors import (
    DegreeMismatch,
    LengthMismatch,
    LoopEdge,
    MalformedInput,
    OddDegreeSum,
    OddVertexCount,
    VertexCountMismatch,
    VertexCountTooSmall,
    VertexOutOfRange,
)


class Graph:
    """Immutable directed loopless multigraph on vertices 1..n.

    Edge order is preserved as given.  Equality and hashing use the sorted
    edge multiset, so representations differing only in edge order compare
    equal; orientation still matters ({1->2} != {2->1}).
    """

    __slots__ = ("n", "edges", "_key", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = index(n)
        edges = tuple((index(t), index(h)) for t, h in edges)
        if n < 1:
            raise VertexCountTooSmall("vertex count must be positive")
        for t, h in edges:
            if t == h:
                raise LoopEdge(f"loop edge {t}->{h}")
            if not (1 <= t <= n and 1 <= h <= n):
                raise VertexOutOfRange(f"edge {t}->{h} outside 1..{n}")
        self.n = n
        self.edges = edges
        self._key = (n, tuple(sorted(edges)))
        self._hash = hash(self._key)

    @classmethod
    def _canonical(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph on edges that are already valid int pairs, oriented
        tail < head and sorted; built without re-checking them."""
        g = object.__new__(cls)
        g.n, g.edges, g._key = n, edges, (n, edges)
        g._hash = hash(g._key)
        return g

    def multidegree(self) -> tuple[int, ...]:
        d = [0] * self.n
        for t, h in self.edges:
            d[t - 1] += 1
            d[h - 1] += 1
        return tuple(d)

    def regular_valence(self) -> int | None:
        """The common valence if the graph is regular, else None."""
        d = self.multidegree()
        return d[0] if len(set(d)) == 1 else None

    def is_matching(self) -> bool:
        return all(v == 1 for v in self.multidegree())

    def is_noncrossing(self) -> bool:
        return not crossing_pairs(self)

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        inner = ", ".join(f"{t}->{h}" for t, h in self.edges)
        return f"Graph({self.n}; {inner})"


class Canonical(NamedTuple):
    graph: Graph
    sign: int


def canonicalize(g: Graph) -> Canonical:
    """Reorient every edge tail < head and sort; sign is (-1)^flips.

    evaluate(g, c) == sign * evaluate(graph, c) for every configuration c.
    """
    flips = 0
    out = []
    for t, h in g.edges:
        if t > h:
            t, h = h, t
            flips += 1
        out.append((t, h))
    out.sort()
    return Canonical(Graph(g.n, out), -1 if flips % 2 else 1)


def multiply(g: Graph, h: Graph) -> Graph:
    """Edge-multiset union; multidegrees add."""
    if g.n != h.n:
        raise VertexCountMismatch(f"cannot multiply graphs on {g.n} and {h.n} vertices")
    return Graph(g.n, g.edges + h.edges)


def edges_cross(e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Chord-crossing test on the circle; shared endpoints never cross."""
    a, b = min(e), max(e)
    c, d = min(f), max(f)
    if len({a, b, c, d}) < 4:
        return False
    return a < c < b < d or c < a < d < b


def crossing_pairs(g: Graph) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of edges of g that cross, in lex order."""
    es = g.edges
    out = []
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if edges_cross(es[i], es[j]):
                out.append((i, j))
    return out


def enumerate_noncrossing(n: int, degree: Sequence[int]) -> list[Graph]:
    """All non-crossing canonical graphs on 1..n of the given multidegree.

    Sweep the circle once, keeping open arc endpoints on a stack.  At vertex
    v we close some number c of arcs (necessarily the most recently opened
    ones, or a crossing appears) and open the remaining valence as new arcs.
    The stack discipline makes every non-crossing graph appear exactly once.
    A branch is cut when the arcs left open and the later valences cannot
    meet: their total must be even, and no later vertex may need more than
    the open arcs plus the other later valences.  Output sorted
    lexicographically by edge list.
    """
    degree = tuple(map(index, degree))
    if len(degree) != n:
        raise LengthMismatch(f"degree vector has length {len(degree)}, expected {n}")
    if any(x < 0 for x in degree):
        raise ValueError("valences must be nonnegative")
    if sum(degree) % 2:
        raise OddDegreeSum(f"multidegree total {sum(degree)} is odd")

    # sum and max of the valences of vertices v..n
    suffix = [0] * (n + 2)
    suffix_max = [0] * (n + 2)
    for v in range(n, 0, -1):
        suffix[v] = suffix[v + 1] + degree[v - 1]
        suffix_max[v] = max(suffix_max[v + 1], degree[v - 1])

    results: list[Graph] = []
    # depth-first over (next vertex, open arc endpoints, edges so far); an
    # explicit worklist, so the depth is not bounded by the recursion limit
    todo: list[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]] = [(1, (), ())]
    while todo:
        v, stack, edges = todo.pop()
        if v > n:
            if not stack:
                results.append(Graph(n, sorted(edges)))
            continue
        d = degree[v - 1]
        rest, most = suffix[v + 1], suffix_max[v + 1]
        for close in range(min(d, len(stack)) + 1):
            open_after = len(stack) - close + (d - close)
            if open_after > rest or (rest - open_after) % 2 or 2 * most > open_after + rest:
                continue
            keep = len(stack) - close
            todo.append((v + 1, stack[:keep] + (v,) * (d - close), edges + tuple((u, v) for u in stack[keep:])))
    results.sort(key=lambda g: g.edges)
    return results


def enumerate_matchings(n: int, vertices: Iterable[int] | None = None) -> list[Graph]:
    """All perfect matchings of the given vertices (default 1..n), crossing
    or not, as canonical graphs on n vertices.  (k-1)!! of them for k vertices."""
    verts = sorted(vertices) if vertices is not None else list(range(1, n + 1))
    if len(verts) % 2:
        raise OddVertexCount(f"cannot match {len(verts)} vertices")
    out: list[Graph] = []

    def rec(avail: list[int], acc: list[tuple[int, int]]) -> None:
        if not avail:
            out.append(Graph(n, acc))
            return
        a = avail[0]
        for i in range(1, len(avail)):
            rec(avail[1:i] + avail[i + 1:], acc + [(a, avail[i])])

    rec(verts, [])
    return out


def noncrossing_matchings(n: int, vertices: Iterable[int] | None = None) -> list[Graph]:
    """The non-crossing perfect matchings of the given vertices, sorted
    lexicographically by edge list (monomial orders elsewhere rely on this)."""
    verts = list(range(1, n + 1)) if vertices is None else list(map(index, vertices))
    if len(verts) % 2:
        raise OddVertexCount(f"cannot match {len(verts)} vertices")
    if not all(1 <= v <= n for v in verts):
        raise VertexOutOfRange(f"vertices {sorted(verts)} outside 1..{n}")
    chosen = set(verts)
    if len(chosen) < len(verts):
        raise LoopEdge(f"a repeated vertex in {sorted(verts)} would match itself")
    return enumerate_noncrossing(n, [1 if v in chosen else 0 for v in range(1, n + 1)])


def _weights(w: Iterable[int]) -> tuple[int, ...]:
    """The weight vector w as a tuple of positive ints: the one place the
    library checks weights.  Entries are coerced exactly by operator.index,
    so a non-integral entry such as 1.5 or "2" raises TypeError instead of
    being truncated; an empty or non-positive vector raises ValueError."""
    w = tuple(map(index, w))
    if not w:
        raise ValueError("weight vector may not be empty")
    if min(w) < 1:
        raise ValueError("weights must be positive integers")
    return w


def graph_to_json(g: Graph) -> dict:
    """{"n": n, "edges": edges}, with the graph's own edge tuple: the JSON
    text is that of [[tail, head], ...]."""
    return {"n": g.n, "edges": g.edges}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(obj: dict) -> Graph:
    """Parse {"n": int, "edges": [[tail, head], ...]}; any other shape
    raises MalformedInput."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise MalformedInput('a graph is a JSON object with keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not isinstance(edges, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
    ):
        raise MalformedInput('"edges" must be a list of [tail, head] pairs')
    if not (_is_int(n) and all(_is_int(t) and _is_int(h) for t, h in edges)):
        raise MalformedInput("the vertex count and every endpoint must be integers")
    return Graph(n, edges)


def _terms_document(obj, keys: tuple[str, str]) -> tuple[int, list[dict]]:
    """(n, terms) of {"n": int, "terms": [{key: ..., ...}, ...]}; any other
    shape raises MalformedInput."""
    if not isinstance(obj, dict) or not _is_int(obj.get("n")) or not isinstance(obj.get("terms"), list):
        raise MalformedInput('expected a JSON object with an integer "n" and a list "terms"')
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or any(k not in entry for k in keys):
            raise MalformedInput(f'every term is an object with keys "{keys[0]}" and "{keys[1]}"')
    return obj["n"], obj["terms"]


def _exact(v) -> int | Fraction:
    """v as an exact number: an int when integral, else a Fraction."""
    if type(v) is not int:
        if type(v) is not Fraction:
            v = Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


def _coefficient(x) -> Fraction:
    """A JSON coefficient: an integer, a finite number, or a rational
    literal such as "-3/2"; anything else raises MalformedInput."""
    if not isinstance(x, bool):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise MalformedInput(f"a coefficient must be a rational number, got {x!r}")


class Combination:
    """Sparse rational combination of canonical keys, all of one degree.

    The one core behind GraphCombination and GraphPolynomial: keys are
    canonicalized on construction (folding signs into the coefficients),
    equal keys merge, zero coefficients are dropped, and terms iterate in
    the subclass's order.  A coefficient is an int when integral and a
    Fraction otherwise, so the ratio of two is Fraction(a, b), not a / b,
    which would be a float for two ints.  The zero combination keeps
    whatever degree it was built with, or None when nothing pinned one
    down.  A subclass supplies

        _canonical_key(n, key) -> (canonical key, sign, degree), which also
            validates key;
        _order(key), the sort key of a canonical key.
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, terms=None, degree=None):
        """terms is a mapping or an iterable of (key, coefficient) pairs."""
        if isinstance(degree, Iterable):
            degree = tuple(degree)
        if isinstance(terms, Mapping):
            terms = terms.items()
        pairs = []
        for key, coeff in terms or ():
            coeff = _exact(coeff)
            if not coeff:
                continue
            key, sign, d = self._canonical_key(n, key)
            if degree is None:
                degree = d
            elif d != degree:
                raise DegreeMismatch(f"a term of degree {d} in a combination of degree {degree}")
            pairs.append((key, sign * coeff))
        self._merge(n, pairs, degree)

    @classmethod
    def _of(cls, n: int, pairs, degree):
        """Trusted constructor: (key, coefficient) pairs whose keys are
        already canonical and of the given degree.  Still merges, drops
        zeros and sorts."""
        c = object.__new__(cls)
        c._merge(n, pairs, degree)
        return c

    @classmethod
    def _sorted(cls, n: int, terms: dict, degree):
        """Trusted constructor: terms already merged, nonzero, exact and in
        the subclass's order, as _of would leave them."""
        c = object.__new__(cls)
        c.n, c.degree, c.terms = n, degree, terms
        return c

    def _merge(self, n: int, pairs, degree) -> None:
        acc: dict = {}
        for key, coeff in pairs:
            acc[key] = acc.get(key, 0) + coeff
        self.n, self.degree = n, degree
        self.terms = {k: v if type(v) is int else _exact(v) for k in sorted(acc, key=self._order) if (v := acc[k])}

    @classmethod
    def zero(cls, n: int, degree=None):
        return cls(n, (), degree=degree)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise VertexCountMismatch(f"{self.n} != {other.n}")
        if self.degree is not None and other.degree is not None and self.degree != other.degree:
            raise DegreeMismatch(f"{self.degree} != {other.degree}")
        degree = self.degree if self.degree is not None else other.degree
        return self._of(self.n, [*self.terms.items(), *other.terms.items()], degree)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = _exact(scalar)
        return self._of(self.n, ((k, scalar * c) for k, c in self.terms.items()), self.degree)

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms
