"""Projective degrees of the weighted moduli spaces of points on the line.

`moduli_degree` evaluates the closed form: the degree is the volume of
the polygon space with side lengths w (Takakura 2001; Khoi 2005).  With
n = len(w) and eps_S = 2S - sum(w),

    deg(w) = (-1)^(n+1) 2^-(n-2) sum_{S : eps_S > 0} c[S] eps_S^(n-3),
    c[S]   = sum_{I subset [n], sum_I w = S} (-1)^|I|,

in exact ints.  c is built one class of equal weights at a time, so the
cost is the number of distinct subset sums (n + 1 for equal weights,
whatever their size), not the size of the weights.  On boundary weights
(2 max w = sum w) the formula gives 0; the degree reported there is the
recursion's 1, a single run of pair reductions down to 3 points.

`degree_trace` keeps the recursion, whose tree is its output: a 3-point
space is a single point (degree 1); while two weights sum to more than
half the total, subtract 1 from each (the pair can never collide with
anything, and the space is unchanged); a balanced quadruple (d,d,d,d) is
a degree-d rational normal curve; otherwise realize the weights as the
multidegree of any loopless multigraph and sum, over its edges {j,k}
with w_j + w_k < total/2, the edge multiplicity times the degree after
merging j and k into one vertex (edges whose weights sum to exactly half
the total contribute nothing).  The result is independent of the
multigraph chosen, which the test suite checks.  A run of pair
reductions is walked in a loop, so it takes no stack; only merges
recurse, at most one level per point.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

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
    its natural projective embedding, by the polygon-volume formula."""
    w = _canon(_weights(w))
    _validate(w)
    n, total = len(w), sum(w)
    if 2 * w[0] == total:
        return 1  # boundary: the formula gives 0, the recursion's pair reductions end at a point
    c = {0: 1}  # subset sum S -> c[S]
    for v, m in Counter(w).items():
        signed, binom = [], 1  # (-1)^j C(m, j), j = 0..m
        for j in range(m + 1):
            signed.append(-binom if j % 2 else binom)
            binom = binom * (m - j) // (j + 1)
        step: dict[int, int] = {}
        for s, k in c.items():
            for j, b in enumerate(signed):
                t = s + j * v
                step[t] = step.get(t, 0) + b * k
        c = step
    g = gcd(*w)  # every eps_S is a multiple of g: raise the quotients to the power
    powers = sum(k * ((2 * s - total) // g) ** (n - 3) for s, k in c.items() if 2 * s > total)
    volume, rest = divmod(powers * g ** (n - 3), 1 << (n - 2))
    assert not rest, "the volume sum is a multiple of 2^(n-2)"
    return volume if n % 2 else -volume


def degree_trace(w) -> tuple[int, dict]:
    """The degree by the recursion, equal to moduli_degree, plus the
    recursion tree that computed it, for display.  Weight vectors in the
    tree are sorted descending, as the recursion canonicalizes."""
    node = _degree(_canon(_weights(w)), {})
    return node["degree"], node


def is_boundary(w) -> bool:
    """True when stable configurations do not exist but semistable ones do:
    every semistable configuration is strictly semistable, and the degree
    the recursion reports is flagged rather than interpreted."""
    w = _weights(w)
    return 2 * max(w) == sum(w)
