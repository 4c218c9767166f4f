"""Test-only reference for relations.odd_power_relation: the direct sum
over all n! vertex permutations that the orbit sum replaces."""

import itertools
from fractions import Fraction

from graphinv.graphs import Graph, canonicalize
from graphinv.relations import GraphPolynomial, _perm_sign


def odd_power_relation_reference(n: int, g: Graph, i: int) -> GraphPolynomial:
    """Alternating sum over all vertex permutations of the i-th power of
    one matching variable; inputs are assumed valid."""
    cg, _ = canonicalize(g)
    acc: dict[tuple[Graph, ...], int] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        img = Graph(n, [(perm[t - 1], perm[h - 1]) for t, h in cg.edges])
        ci, s = canonicalize(img)
        key = (ci,) * i
        # s**i == s for odd i
        acc[key] = acc.get(key, 0) + _perm_sign(perm) * s
    return GraphPolynomial(n, {k: Fraction(v) for k, v in acc.items() if v}, degree=i)
