"""Reference degree recursion for differential tests.

This is the recursion that graphinv.degree replaced: it threads an
optional trace dict through every branch and spends one Python frame per
pair reduction, so long runs of pair reductions need a raised recursion
limit.  It is not part of the library.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from graphinv.degree import _canon, _validate, greedy_multigraph
from graphinv.graphs import _weights


def _degree(w: tuple[int, ...], builder: Callable, memo: dict | None, trace: dict | None) -> int:
    if trace is not None:
        trace["weights"] = list(w)
    if memo is not None and w in memo:
        if trace is not None:
            trace["action"] = "memoized"
            trace["degree"] = memo[w]
        return memo[w]
    _validate(w)
    total = sum(w)
    if len(w) == 3:
        result = 1
        if trace is not None:
            trace["action"] = "point"
    elif 2 * (w[0] + w[1]) > total:
        # the two largest weights can never coincide with anything else
        reduced = _canon(x for x in (w[0] - 1, w[1] - 1) + w[2:] if x > 0)
        child: dict | None = {} if trace is not None else None
        result = _degree(reduced, builder, memo, child)
        if trace is not None:
            trace["action"] = "pair-reduction"
            trace["pair"] = [w[0], w[1]]
            trace["child"] = child
    elif len(w) == 4 and len(set(w)) == 1:
        result = w[0]
        if trace is not None:
            trace["action"] = "balanced-quadruple"
    else:
        g = builder(w)
        if g.multidegree() != w:
            raise ValueError(f"graph builder returned multidegree {g.multidegree()}, wanted {w}")
        mult = Counter((min(t, h), max(t, h)) for t, h in g.edges)
        branches = []
        result = 0
        for (j, k), m in sorted(mult.items()):
            s = w[j - 1] + w[k - 1]
            branch = {"pair": [j, k], "multiplicity": m, "weight_sum": s}
            if 2 * s < total:
                merged = _canon(tuple(x for i, x in enumerate(w) if i not in (j - 1, k - 1)) + (s,))
                child = {} if trace is not None else None
                sub = _degree(merged, builder, memo, child)
                result += m * sub
                branch["contribution"] = m * sub
                if trace is not None:
                    branch["child"] = child
            else:
                branch["contribution"] = 0
                branch["note"] = "pair weight equals half the total; not a component"
            branches.append(branch)
        if trace is not None:
            trace["action"] = "multigraph"
            trace["graph_edges"] = [[t, h] for t, h in g.edges]
            trace["branches"] = branches
    if memo is not None:
        memo[w] = result
    if trace is not None:
        trace["degree"] = result
    return result


def reference_moduli_degree(w, graph_builder: Callable = greedy_multigraph, use_memo: bool = True) -> int:
    """moduli_degree by the frame-per-reduction recursion."""
    memo = {} if use_memo else None
    return _degree(_canon(_weights(w)), graph_builder, memo, None)


def reference_degree_trace(w) -> tuple[int, dict]:
    """degree_trace by the frame-per-reduction recursion."""
    trace: dict = {}
    value = _degree(_canon(_weights(w)), greedy_multigraph, {}, trace)
    return value, trace
