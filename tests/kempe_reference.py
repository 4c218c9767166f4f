"""Reference neutralization for differential tests.

This is the worklist that graphinv.kempe.neutralize replaced: it exchanges
the smallest positive edge with the smallest negative edge of each graph
through plucker_exchange until no positive edge is left, and merges the
graphs only at the end.  It is not part of the library.
"""

from __future__ import annotations

from fractions import Fraction

from graphinv.graphs import Graph, canonicalize
from graphinv.kempe import Bipartition
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
