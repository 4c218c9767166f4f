"""Reference non-crossing enumerator for differential tests.

This is the sweep that graphinv.graphs.enumerate_noncrossing ran before it
cut branches on the largest later valence: it prunes only on the sum of
the later valences and its parity, so it searches dead ends exponentially
on skewed multidegrees.  It is not part of the library.
"""

from __future__ import annotations

from graphinv.graphs import Graph


def reference_enumerate_noncrossing(n: int, degree) -> list[Graph]:
    degree = tuple(int(x) for x in degree)
    suffix = [0] * (n + 2)
    for v in range(n, 0, -1):
        suffix[v] = suffix[v + 1] + degree[v - 1]
    results: list[Graph] = []
    todo = [(1, (), ())]
    while todo:
        v, stack, edges = todo.pop()
        if v > n:
            if not stack:
                results.append(Graph(n, sorted(edges)))
            continue
        d = degree[v - 1]
        rest = suffix[v + 1]
        for close in range(min(d, len(stack)) + 1):
            open_after = len(stack) - close + (d - close)
            if open_after > rest or (rest - open_after) % 2:
                continue
            keep = len(stack) - close
            todo.append((v + 1, stack[:keep] + (v,) * (d - close), edges + tuple((u, v) for u in stack[keep:])))
    results.sort(key=lambda g: g.edges)
    return results
