"""The orbit-sum odd_power_relation against the n! permutation sum it
replaces (tests/relations_reference.py)."""

import pytest
from relations_reference import odd_power_relation_reference

from graphinv.errors import BadExponent, NotAMatching, OddVertexCount
from graphinv.graphs import Graph
from graphinv.relations import odd_power_relation


def bases(n):
    """A non-crossing, a crossing and a reversed-orientation matching."""
    horizontal = [(v, v + 1) for v in range(1, n, 2)]
    return {
        "noncrossing": Graph(n, horizontal),
        "crossing": Graph(n, [(1, 3), (2, 4)] + horizontal[2:]),
        "reversed": Graph(n, [(h, t) for t, h in reversed(horizontal)]),
    }


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("kind", ["noncrossing", "crossing", "reversed"])
def test_orbit_sum_matches_the_permutation_sum(n, kind):
    g = bases(n)[kind]
    for i in range(3, n - 1, 2):
        fast, slow = odd_power_relation(n, g, i), odd_power_relation_reference(n, g, i)
        assert list(fast.terms.items()) == list(slow.terms.items())
        assert fast.degree == slow.degree == i


def test_orbit_sum_errors():
    g = bases(6)["noncrossing"]
    for bad in (1, 2, 5):
        with pytest.raises(BadExponent):
            odd_power_relation(6, g, bad)
    with pytest.raises(NotAMatching):
        odd_power_relation(6, Graph(6, [(1, 2), (1, 3), (5, 6)]), 3)
    with pytest.raises(OddVertexCount):
        odd_power_relation(5, g, 3)
