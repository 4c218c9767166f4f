"""Decomposition of regular graph invariants into products of matchings.

A d-regular graph invariant equals a signed sum of products of d perfect
matching invariants: first rewrite the graph, by Plucker exchanges pairing
an edge inside the positive half with one inside the negative half, until
every edge crosses the bipartition; then peel off perfect matchings one at
a time (Hall's condition holds at every step because the residual graphs
stay regular and bipartite-neutral).  The same section also provides the
weight-lifting construction that turns a graph of multidegree d*w into a
d-regular graph on sum(w) vertices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import (
    NotMultipleOfWeight,
    NotNeutralRegular,
    NotRegular,
    OddVertexCount,
)
from .graphs import Graph, _weights, canonicalize, graph_to_json
from .straightening import GraphCombination, plucker_exchange


class Bipartition:
    """Split of 1..n into equal positive and negative halves."""

    __slots__ = ("n", "positives", "negatives")

    def __init__(self, positives: Iterable[int], negatives: Iterable[int]):
        pos, neg = frozenset(positives), frozenset(negatives)
        if pos & neg:
            raise ValueError("bipartition sides must be disjoint")
        if len(pos) != len(neg):
            raise ValueError("bipartition sides must have equal sizes")
        n = 2 * len(pos)
        if pos | neg != set(range(1, n + 1)):
            raise ValueError(f"bipartition must cover 1..{n}")
        self.n = n
        self.positives = pos
        self.negatives = neg

    @classmethod
    def halves(cls, n: int) -> "Bipartition":
        """The fixed deterministic split {1..n/2} | {n/2+1..n}."""
        if n % 2:
            raise OddVertexCount(f"cannot halve {n} vertices")
        return cls(range(1, n // 2 + 1), range(n // 2 + 1, n + 1))

    def edge_side(self, e: tuple[int, int]) -> int:
        """+1 inside positives, -1 inside negatives, 0 neutral (crossing)."""
        a = e[0] in self.positives
        b = e[1] in self.positives
        if a and b:
            return 1
        if not a and not b:
            return -1
        return 0

    def __repr__(self):
        return f"Bipartition({sorted(self.positives)} | {sorted(self.negatives)})"


class MatchingProduct:
    """A rational coefficient times an ordered product of perfect matchings."""

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff, factors: Iterable[Graph]):
        self.coeff = Fraction(coeff)
        self.factors = tuple(factors)
        for f in self.factors:
            if not f.is_matching():
                raise NotRegular(f"factor {f!r} is not a perfect matching")

    def __eq__(self, other):
        return (
            isinstance(other, MatchingProduct)
            and self.coeff == other.coeff
            and self.factors == other.factors
        )

    def __repr__(self):
        return f"MatchingProduct({self.coeff}; {list(self.factors)!r})"


def _check_neutral_regular(g: Graph, b: Bipartition) -> int:
    d = g.regular_valence()
    if d is None or d < 1:
        raise NotNeutralRegular(f"graph with multidegree {g.multidegree()} is not regular")
    if g.n != b.n:
        raise NotNeutralRegular(f"graph on {g.n} vertices, bipartition of {b.n}")
    for e in g.edges:
        if b.edge_side(e) != 0:
            raise NotNeutralRegular(f"edge {e} does not cross the bipartition")
    return d


def hall_matching(g: Graph, b: Bipartition) -> Graph:
    """A perfect matching sub-multiset of a neutral d-regular graph.

    Deterministic greedy-first search: each positive vertex, in increasing
    order, takes its smallest free neighbor; only if none is free does it
    displace along an augmenting path (again in increasing vertex order).
    Regularity guarantees Hall's condition, so this always succeeds.

    The path search is depth-first from an explicit stack, so a long path
    nests no calls, and it enters each negative vertex once per search.
    That finds the path a search avoiding only its current path finds: if
    v failed under path P and a later path P' reaches it, a way on from v
    that avoids P' meets P, and from its meeting point b nearest P's root
    it would have served b's subtree, which failed before P' was tried.
    """
    _check_neutral_regular(g, b)
    adj: dict[int, list[int]] = {u: [] for u in sorted(b.positives)}
    for e in g.edges:
        u, v = (e[0], e[1]) if e[0] in b.positives else (e[1], e[0])
        if v not in adj[u]:
            adj[u].append(v)
    for u in adj:
        adj[u].sort()
    match: dict[int, int] = {}

    def assign(u: int) -> bool:
        stack = []  # [vertex, iterator over its neighbors, the one it displaces through]
        seen: set[int] = set()
        while True:
            free = next((v for v in adj[u] if v not in match), None)
            if free is not None:
                match[free] = u
                for w, _, v in stack:
                    match[v] = w
                return True
            stack.append([u, iter(adj[u]), None])
            while stack:
                top = stack[-1]
                v = next((v for v in top[1] if v not in seen), None)
                if v is not None:
                    top[2] = v
                    seen.add(v)
                    u = match[v]
                    break
                stack.pop()
            else:
                return False

    for u in adj:
        if not assign(u):
            raise NotNeutralRegular(f"no perfect matching found in {g!r}")
    edges = sorted((u, v) if u < v else (v, u) for v, u in match.items())
    return Graph(g.n, edges)


def neutralize(g: Graph, b: Bipartition) -> GraphCombination:
    """Rewrite X_g on graphs whose edges all cross the bipartition.

    X_g is the neutral edges times the product, over the pairs of a k-th
    smallest positive and k-th smallest negative edge, of the pair's
    two-term plucker_exchange.  That is what exchanging the smallest
    positive edge with the smallest negative one until none is left gives:
    an exchange touches only its own pair and turns it into two neutral
    edges, so the other positive edges keep their order, the k-th smallest
    always meets the k-th smallest negative one, and the exchanges commute.
    The product is taken pair by pair, merging equal edge tuples after each
    step, so k equal pairs give k + 1 terms, not 2^k.
    """
    if g.regular_valence() is None:
        raise NotRegular(f"graph with multidegree {g.multidegree()} is not regular")
    if g.n != b.n:
        raise NotRegular(f"graph on {g.n} vertices, bipartition of {b.n}")
    cg, sign = canonicalize(g)
    pos, neg, neutral = ([e for e in cg.edges if b.edge_side(e) == s] for s in (1, -1, 0))
    acc: dict[tuple, int] = {(): sign}
    for pair in zip(pos, neg):
        step: dict[tuple, int] = {}
        for h, c in plucker_exchange(Graph(g.n, pair), 0, 1).terms.items():
            for edges, a in acc.items():
                key = tuple(sorted(edges + h.edges))
                step[key] = step.get(key, 0) + a * c
        acc = {edges: a for edges, a in step.items() if a}
    terms = [(Graph(g.n, neutral + list(edges)), a) for edges, a in acc.items()]
    return GraphCombination(g.n, terms, g.multidegree())


def kempe_decompose(g: Graph) -> list[MatchingProduct]:
    """Express a regular graph invariant as matching products.

    Uses the fixed bipartition {1..n/2} | {n/2+1..n}, neutralizes, then
    peels one Hall matching at a time from each resulting graph.  The sum
    of coeff * product(factors) equals X_g exactly.
    """
    if g.n % 2:
        raise OddVertexCount(f"{g.n} vertices cannot split into halves")
    d = g.regular_valence()
    if d is None:
        raise NotRegular(f"graph with multidegree {g.multidegree()} is not regular")
    b = Bipartition.halves(g.n)
    out: list[MatchingProduct] = []
    if d == 0:
        # the empty graph's invariant is the constant 1: one empty product
        return [MatchingProduct(1, [])]
    for h, coeff in neutralize(g, b).terms.items():
        factors = []
        residual = h
        for _ in range(d):
            m = hall_matching(residual, b)
            factors.append(m)
            # drop the first occurrence of each matched edge in one pass;
            # a matching holds each edge once
            drop = set(m.edges)
            remaining = []
            for e in residual.edges:
                if e in drop:
                    drop.remove(e)
                else:
                    remaining.append(e)
            residual = Graph(g.n, remaining)
        assert not residual.edges
        out.append(MatchingProduct(coeff, factors))
    return out


def lift_graph(g: Graph, w) -> tuple[Graph, tuple[int, ...]]:
    """Spread each vertex i into w_i copies, giving a regular graph.

    Requires multidegree(g) = d*w for a positive integer d.  The t-th edge
    endpoint seen at vertex i (in stored edge order) lands on copy t mod
    w_i, so every copy receives exactly d endpoints.  Returns the lifted
    graph and the projection map pi with pi[new_vertex - 1] = old vertex.
    """
    w = _weights(w)
    n = len(w)
    deg = g.multidegree()
    if len(deg) != n:
        raise NotMultipleOfWeight(f"graph on {g.n} vertices, weight vector of length {n}")
    quotients = set()
    for dv, wv in zip(deg, w):
        if dv % wv:
            raise NotMultipleOfWeight(f"multidegree {deg} is not a multiple of {w}")
        quotients.add(dv // wv)
    if len(quotients) != 1 or 0 in quotients:
        raise NotMultipleOfWeight(f"multidegree {deg} is not d*{w} for a single d >= 1")
    start = [0] * (n + 1)
    for i in range(1, n + 1):
        start[i] = start[i - 1] + w[i - 1]
    seen = [0] * (n + 1)

    def copy_of(v: int) -> int:
        c = start[v - 1] + (seen[v] % w[v - 1]) + 1
        seen[v] += 1
        return c

    new_edges = [(copy_of(t), copy_of(h)) for t, h in g.edges]
    pi = tuple(old for old in range(1, n + 1) for _ in range(w[old - 1]))
    return Graph(sum(w), new_edges), pi


def matching_product_to_json(p: MatchingProduct) -> dict:
    return {"coeff": str(p.coeff), "factors": [graph_to_json(f) for f in p.factors]}
