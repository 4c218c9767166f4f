"""Recursive computation of the projective degree of the weighted moduli
spaces of points on the line.

The recursion: a 3-point space is a single point (degree 1); while two
weights sum to more than half the total, subtract 1 from each (the pair
can never collide with anything, and the space is unchanged); a balanced
quadruple (d,d,d,d) is a degree-d rational normal curve; otherwise realize
the weights as the multidegree of any loopless multigraph and sum, over
its edges {j,k} with w_j + w_k < total/2, the edge multiplicity times the
degree after merging j and k into one vertex (edges whose weights sum to
exactly half the total contribute nothing).  The result is independent of
the multigraph chosen, which the test suite checks.

The recursion tree is the computation: every call builds its node, and
the degree is the root's.  A run of pair reductions is walked in a loop,
so it takes no stack; only merges recurse, at most one level per point.
"""

from __future__ import annotations

from collections import Counter

from .errors import DegenerateModuli, EmptyModuli, OddTotalWeight
from .graphs import Graph, _weights


def greedy_multigraph(w: tuple[int, ...]) -> Graph:
    """Loopless multigraph of multidegree w: repeatedly join the two
    vertices of largest remaining valence, ties to the smallest index.
    Succeeds whenever total is even and no entry exceeds half the total."""
    remaining = list(w)
    edges = []
    while True:
        order = sorted(range(len(remaining)), key=lambda i: (-remaining[i], i))
        a, b = order[0], order[1]
        if remaining[a] == 0:
            break
        if remaining[b] == 0:
            raise ValueError(f"multidegree {tuple(w)} is not realizable without loops")
        edges.append((min(a, b) + 1, max(a, b) + 1))
        remaining[a] -= 1
        remaining[b] -= 1
    return Graph(len(w), sorted(edges))


def _canon(w) -> tuple[int, ...]:
    return tuple(sorted(w, reverse=True))


def _validate(w: tuple[int, ...]) -> None:
    total = sum(w)
    if total % 2:
        raise OddTotalWeight(
            f"total weight {total} is odd; the smallest invariant degree is 2, so double the weights"
        )
    for x in w:
        if 2 * x > total:
            raise EmptyModuli(f"weight {x} exceeds half of total {total}; no semistable configurations")
    if len(w) < 3:
        raise DegenerateModuli(f"only {len(w)} weighted points remain")


def _degree(w: tuple[int, ...], memo: dict) -> dict:
    """The recursion tree of canonical w, whose "degree" is the degree of w.

    A run of pair reductions is walked in a loop; once it ends, the nodes
    of the run (and their memo entries) are filled in child first.  Merges
    recurse, at most one level per point."""
    chain = []
    while w not in memo:
        _validate(w)
        if len(w) == 3 or 2 * (w[0] + w[1]) <= sum(w):
            break
        # the two largest weights can never coincide with anything else
        chain.append(w)
        w = _canon(x for x in (w[0] - 1, w[1] - 1) + w[2:] if x > 0)
    node: dict = {"weights": list(w)}
    if w in memo:
        node.update(action="memoized", degree=memo[w])
    elif len(w) == 3:
        node.update(action="point", degree=1)
    elif len(w) == 4 and len(set(w)) == 1:
        node.update(action="balanced-quadruple", degree=w[0])
    else:
        total = sum(w)
        g = greedy_multigraph(w)
        mult = Counter((min(t, h), max(t, h)) for t, h in g.edges)
        branches = []
        for (j, k), m in sorted(mult.items()):
            s = w[j - 1] + w[k - 1]
            branch = {"pair": [j, k], "multiplicity": m, "weight_sum": s}
            if 2 * s < total:
                merged = _canon(tuple(x for i, x in enumerate(w) if i not in (j - 1, k - 1)) + (s,))
                child = _degree(merged, memo)
                branch.update(contribution=m * child["degree"], child=child)
            else:
                branch.update(contribution=0, note="pair weight equals half the total; not a component")
            branches.append(branch)
        node.update(action="multigraph", graph_edges=[[t, h] for t, h in g.edges], branches=branches,
                    degree=sum(b["contribution"] for b in branches))
    memo[w] = node["degree"]
    for v in reversed(chain):
        node = {"weights": list(v), "action": "pair-reduction", "pair": [v[0], v[1]], "child": node,
                "degree": node["degree"]}
        memo[v] = node["degree"]
    return node


def moduli_degree(w) -> int:
    """Degree of the moduli space of w-weighted points on the line, under
    its natural projective embedding."""
    return degree_trace(w)[0]


def degree_trace(w) -> tuple[int, dict]:
    """moduli_degree plus the recursion tree that computed it, for display.
    Weight vectors in the tree are sorted descending, as the recursion
    canonicalizes."""
    node = _degree(_canon(_weights(w)), {})
    return node["degree"], node


def is_boundary(w) -> bool:
    """True when stable configurations do not exist but semistable ones do:
    every semistable configuration is strictly semistable, and the degree
    the recursion reports is flagged rather than interpreted."""
    w = _weights(w)
    return 2 * max(w) == sum(w)
