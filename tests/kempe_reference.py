"""Reference neutralization and Hall matching for differential tests.

reference_neutralize is the worklist that graphinv.kempe.neutralize
replaced: it exchanges the smallest positive edge with the smallest
negative edge of each graph through plucker_exchange until no positive edge
is left, and merges the graphs only at the end.  reference_hall_matching is
the recursive augmenting-path search that graphinv.kempe.hall_matching
replaced: it avoids only the vertices on its current path, nests one call
per step of a path and may search a failed branch again from every path
that reaches it, so it only serves graphs whose paths stay short.
reference_kempe_decompose peels each matching off the residual graph
one list.remove per edge, as graphinv.kempe.kempe_decompose did before it
peeled in one pass.  None of them is part of the library.
"""

from __future__ import annotations

from fractions import Fraction

from graphinv.graphs import Graph, canonicalize
from graphinv.kempe import Bipartition, MatchingProduct, hall_matching, neutralize
from graphinv.straightening import GraphCombination, plucker_exchange


def reference_neutralize(g: Graph, b: Bipartition) -> GraphCombination:
    """neutralize by repeated single exchanges; g is assumed regular on
    b.n vertices."""
    cg, sign = canonicalize(g)
    work: list[tuple[Graph, Fraction]] = [(cg, Fraction(sign))]
    done: list[tuple[Graph, Fraction]] = []
    while work:
        h, coeff = work.pop()
        pos = [idx for idx, e in enumerate(h.edges) if b.edge_side(e) == 1]
        neg = [idx for idx, e in enumerate(h.edges) if b.edge_side(e) == -1]
        if not pos:
            assert not neg, f"positive/negative edge counts differ in {h!r}"
            done.append((h, coeff))
            continue
        repl = plucker_exchange(h, pos[0], neg[0])
        for h2, c2 in repl.terms.items():
            work.append((h2, coeff * c2))
    return GraphCombination._of(g.n, done, g.multidegree())


def reference_hall_matching(g: Graph, b: Bipartition) -> Graph:
    """hall_matching by recursion; g is assumed neutral and regular."""
    adj: dict[int, list[int]] = {u: [] for u in sorted(b.positives)}
    for e in g.edges:
        u, v = (e[0], e[1]) if e[0] in b.positives else (e[1], e[0])
        if v not in adj[u]:
            adj[u].append(v)
    for u in adj:
        adj[u].sort()
    match: dict[int, int] = {}

    def assign(u: int, banned: frozenset[int]) -> bool:
        nbrs = [v for v in adj[u] if v not in banned]
        for v in nbrs:
            if v not in match:
                match[v] = u
                return True
        for v in nbrs:
            if assign(match[v], banned | {v}):
                match[v] = u
                return True
        return False

    for u in adj:
        assert assign(u, frozenset()), f"no perfect matching found in {g!r}"
    return Graph(g.n, sorted((u, v) if u < v else (v, u) for v, u in match.items()))


def reference_kempe_decompose(g: Graph) -> list[MatchingProduct]:
    """kempe_decompose with the peeling it replaced: each matched edge is
    taken off the residual edge list by its own list.remove, so peeling
    is quadratic in the edges.  g is assumed regular on an even number of
    vertices."""
    d = g.regular_valence()
    if d == 0:
        return [MatchingProduct(1, [])]
    b = Bipartition.halves(g.n)
    out = []
    for h, coeff in neutralize(g, b).terms.items():
        factors = []
        residual = h
        for _ in range(d):
            m = hall_matching(residual, b)
            factors.append(m)
            remaining = list(residual.edges)
            for e in m.edges:
                remaining.remove(e)
            residual = Graph(g.n, remaining)
        out.append(MatchingProduct(coeff, factors))
    return out
