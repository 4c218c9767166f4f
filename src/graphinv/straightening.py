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

Internally a graph is its canonical sorted edge tuple, and one kernel
call, on int edge codes, expands many combinations at once, each a column
of coefficients.  A crossing exchange of canonical edges has coefficients
+1, so a start of +1 never leaves the positive integers.  The worklist is
ordered by an int potential that every exchange lowers, so the kernel
works in exact integers throughout.  Public objects are built once, from
the finished expansion.
"""

from __future__ import annotations

from bisect import insort
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


def _potential(n: int, edges) -> int:
    """The sum of s(n - s) over canonical edges (t, h) of span s = h - t."""
    return sum([(h - t) * (n - h + t) for t, h in edges])


def _first_crossing(codes: tuple, shift: int, start: int = 0) -> tuple[int, int] | None:
    """The lex-first index pair i < j of sorted edge codes t << shift | h,
    (a, b) and (c, d) with a < c < b < d, or None when no two edges cross;
    the scan starts at i = start, so the caller vouches that no edge before
    start crosses any edge.  Sorted tails make c >= a, so (a, b) crosses no
    later edge once c >= b, that is once the code reaches b << shift."""
    mask = (1 << shift) - 1
    m = len(codes)
    for i in range(start, m - 1):
        x = codes[i]
        b = x & mask
        stop, low = b << shift, x - b + mask + 1  # tail >= b; tail > a
        j = i + 1
        while j < m and (y := codes[j]) < stop:
            if y >= low and y & mask > b:
                return i, j
            j += 1
    return None


def _exchange(codes: tuple, i: int, j: int, shift: int) -> tuple[tuple, tuple]:
    """The two children, each with coefficient +1, of the crossing pair at
    indices i < j of sorted edge codes: (a, b), (c, d) with a < c < b < d
    become (a, c), (b, d) and (a, d), (c, b)."""
    x, y = codes[i], codes[j]
    b, d = x & ((1 << shift) - 1), y & ((1 << shift) - 1)
    rest = list(codes)
    del rest[j], rest[i]
    one = rest.copy()
    insort(one, x - b + (y >> shift))
    insort(one, b << shift | d)
    insort(rest, x - b + d)
    insort(rest, y - d + b)
    return tuple(one), tuple(rest)


def _expand(n: int, start: dict[tuple, dict]) -> dict[tuple, dict]:
    """Non-crossing expansion of several combinations at once, given and
    returned as {canonical sorted edges: {column: coefficient}}: column t
    of the result expands column t of start, a graph held by several
    columns is exchanged once for all of them, and a coefficient that
    cancels comes back as 0.  start is left unchanged.

    Inside the call the edge (t, h) is the int code t << shift | h, with
    shift = n.bit_length(), which sorts as (t, h) does; each distinct edge
    is decoded once at the end.  Top-down, with an explicit worklist in place
    of recursion: a graph's column dict collects every parent's before the
    graph is exchanged, so each intermediate graph is exchanged once and
    only the frontier is held.

    Graphs are taken highest potential first, the potential being the sum
    of s(n - s) over edge spans s (_potential).  As s -> s(n - s) is
    strictly concave, the exchange of a crossing pair a < c < b < d lowers
    it by exactly 2(b - c)(n - d + a) for the child (a, c), (b, d) and by
    2(c - a)(d - b) for the child (a, d), (c, b): positive ints, as
    1 <= a and d <= n (asserted under __debug__).  So a child's heap key,
    its potential negated, is its parent's key plus its drop, with no
    recomputation; keys are popped in nondecreasing order, and every
    parent of a graph is taken before it.  Each drop is at least 2, so no
    chain of exchanges from a start graph is longer than half its
    potential: this is the termination argument.  The order only saves
    work: a graph taken too early would be exchanged again later, which
    linearity makes harmless.

    A graph is searched for its lex-first crossing pair once, when first
    met: a leaf goes straight into the result and never into the heap, and
    a pending graph keeps its pair.  When a parent's pair (a, b), (c, d)
    sits at indices i < j, its children's search starts at i.  The edges
    before i cross no parent edge and are the first i edges of both
    children: (b, d), (a, d) and (c, b) sort after (a, b), and (a, c) after
    each earlier (a, q), as q <= c lest (a, q) cross (c, d).  Nor do they
    cross a new edge: as c lies between a and b and b between c and d, the
    open interval (p, q) of an edge that crosses neither (a, b) nor (c, d)
    holds all of a, b, c, d but its own ends, or none.
    """
    shift = n.bit_length()
    mask = (1 << shift) - 1
    seen: dict[tuple, list] = {}  # edge codes -> [{column: coefficient}, crossing pair or None]
    todo = []
    for es, col in start.items():
        codes = tuple([t << shift | h for t, h in es])
        seen[codes] = [dict(col), pair := _first_crossing(codes, shift)]
        if pair is not None:
            todo.append((-_potential(n, es), codes))
    heapify(todo)
    while todo:
        key, codes = heappop(todo)
        col, (i, j) = seen.pop(codes)
        x, y = codes[i], codes[j]
        a, b, c, d = x >> shift, x & mask, y >> shift, y & mask
        drops = (2 * (b - c) * (n - d + a), 2 * (c - a) * (d - b))
        assert min(drops) > 0, "an exchange must lower the potential"
        for child, drop in zip(_exchange(codes, i, j, shift), drops):
            entry = seen.get(child)
            if entry is None:
                seen[child] = [col.copy(), pair := _first_crossing(child, shift, i)]
                if pair is not None:
                    heappush(todo, (key + drop, child))
            else:
                acc = entry[0]
                for t, k in col.items():
                    acc[t] = acc.get(t, 0) + k
    # every pending graph has been taken, so only the leaves are left
    edge = {x: (x >> shift, x & mask) for x in set().union(*seen)}
    return {tuple([edge[x] for x in codes]): col for codes, (col, _) in seen.items()}


def straighten_graph(g: Graph) -> GraphCombination:
    """Straighten a single graph (any orientations) onto the basis: its
    canonical form, with the flip sign as coefficient, through straighten."""
    cg, sign = canonicalize(g)
    return straighten(GraphCombination._of(g.n, [(cg, sign)], cg.multidegree()))


def straighten(c: GraphCombination) -> GraphCombination:
    """Rewrite c on the non-crossing basis; exact, linear, idempotent."""
    flat = _expand(c.n, {g.edges: {0: k} for g, k in c.terms.items()})
    return GraphCombination._of(c.n, ((Graph._canonical(c.n, es), col[0]) for es, col in flat.items()), c.degree)


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
    if not all(clumps) or flat != list(range(1, c.n + 1)):
        raise NonContiguousClump(f"clumps must be nonempty consecutive intervals covering 1..{c.n} in order")
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
