"""Seeded inputs for the benchmark workloads.

Every op carries its own truth, so its output can be checked without
trusting the code under test:

* straighten: the input graph itself (the output must evaluate equal to it);
* membership: member or not, by construction;
* relations: the family counts, the degree from the d^(n-3) scaling law on
  golden values, the basis size and the quadric relation dimension.

The inputs come from ``random.Random(f"{workload}:{seed}")`` alone, so the
same seed always gives the same inputs, and every pass of a run repeats
them.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("straighten", "membership", "relations")

# Random regular multigraphs: (n, valence, crossing counts, graphs per
# pass).  The cost of straightening grows steeply with the number of
# crossing edge pairs (a 3-regular graph on 10 vertices takes 0.3 s at 22
# crossings and 17 s at 59), and graphs with equal counts still differ in
# cost by a third.  So each class cycles through a narrow range of counts,
# giving every seed the same profile of counts, and the stream holds many
# graphs of 0.01-0.1 s rather than a few long ones: the work of a pass then
# varies by under 2% across seeds while the graphs stay random.
STRAIGHTEN_MIX = (
    (8, 3, range(8, 11), 16),
    (10, 2, range(6, 9), 16),
    (8, 4, range(14, 17), 45),
    (10, 3, range(10, 13), 45),
    (12, 2, range(8, 11), 45),
)

# Unit-weight degrees from the acceptance battery; (d,)*n scales by d^(n-3).
GOLDEN_DEGREES = {6: 3, 8: 40, 10: 1225}

# 903 degree-2 monomials in the 42 non-crossing matchings of 10 points,
# 300 quadric relations among them, so the 2-regular basis has 603 graphs.
QUADRIC_DIM_10 = 300
BASIS_2_REGULAR_10 = 603


@dataclass
class Op:
    """One operation: a CLI argv (run with ``--format json``), or the
    ``quadric-space`` library call, with the truth its output is checked
    against."""

    kind: str
    argv: list[str] | None = None
    stdin: str | None = None
    truth: dict = field(default_factory=dict)


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def crossing_count(edges) -> int:
    """Number of edge pairs whose chords cross on the circle."""
    chords = [(min(t, h), max(t, h)) for t, h in edges]
    count = 0
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1:]:
            if a < c < b < d or c < a < d < b:
                count += 1
    return count


def random_regular_multigraphs(rng: random.Random, n: int, valence: int, crossings, count: int):
    """``count`` loopless valence-regular multigraphs on 1..n with random
    edge orientations, whose crossing counts cycle through ``crossings``."""
    need = Counter(crossings[i % len(crossings)] for i in range(count))
    graphs = []
    while len(graphs) < count:
        stubs = [v for v in range(1, n + 1) for _ in range(valence)]
        rng.shuffle(stubs)
        edges = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(t != h for t, h in edges):
            c = crossing_count(edges)
            if need[c]:
                need[c] -= 1
                graphs.append(edges)
    return graphs


def straighten_ops(rng: random.Random) -> list[Op]:
    graphs = []
    for n, valence, crossings, count in STRAIGHTEN_MIX:
        graphs += [(n, edges) for edges in random_regular_multigraphs(rng, n, valence, crossings, count)]
    rng.shuffle(graphs)
    ops = []
    for n, edges in graphs:
        doc = {"n": n, "edges": [list(e) for e in edges]}
        ops.append(Op("straighten", ["straighten", "--graph", "-"], json.dumps(doc), {"graph": doc}))
    return ops


def random_member(rng: random.Random, generators, matchings, size: int = 4):
    """Sum of ``size`` terms coeff * cofactor * generator, with cofactors
    drawn from every perfect matching (crossing ones included).  It lies in
    the ideal by construction; the recipe is kept as its truth."""
    from graphinv.relations import GraphPolynomial

    while True:
        recipe = [
            (rng.randrange(len(generators)), rng.randrange(len(matchings)), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(size)
        ]
        terms: dict = {}
        for gi, mi, coeff in recipe:
            for mono, c in generators[gi].terms.items():
                key = (matchings[mi],) + mono
                terms[key] = terms.get(key, 0) + coeff * c
        poly = GraphPolynomial(matchings[0].n, terms, degree=3)
        if not poly.is_zero:
            return poly, recipe


def membership_ops(rng: random.Random) -> list[Op]:
    """Segre, then a seeded member and a seeded non-member.  A non-member
    is a member plus one monomial: a product of matchings never vanishes at
    distinct points, so the sum is not even a relation."""
    from graphinv.graphs import enumerate_matchings
    from graphinv.relations import GraphPolynomial, polynomial_to_json, simple_binomial_relations

    n = 8
    generators = simple_binomial_relations(n)
    matchings = enumerate_matchings(n)
    ops = [Op("check-ideal", ["check-ideal", "--candidate", "segre", "--n", str(n)], None,
              {"member": True, "segre": True})]
    for member in (True, False):
        poly, recipe = random_member(rng, generators, matchings)
        if not member:
            extra = tuple(matchings[rng.randrange(len(matchings))] for _ in range(3))
            poly = poly + GraphPolynomial(n, {extra: rng.choice((-2, -1, 1, 2))}, degree=3)
        ops.append(Op("check-ideal", ["check-ideal", "--candidate", "-", "--n", str(n)],
                      json.dumps(polynomial_to_json(poly)),
                      {"member": member, "candidate": poly, "recipe": recipe}))
    return ops


def relations_ops(rng: random.Random) -> list[Op]:
    ops = [
        Op("relations", ["relations", "--n", "10", "--type", "plucker"], None,
           {"count": 210 * 15}),  # C(10,4) quadruples times 5!! matchings of the rest
        Op("relations", ["relations", "--n", "10", "--type", "simple-binomial"], None, {"count": 210}),
        Op("relations", ["relations", "--n", "10", "--type", "segre"], None, {"count": 1}),
        Op("relations", ["relations", "--n", "8", "--type", "odd-power", "--exponent", "3"], None, {"count": 1}),
        Op("relations", ["relations", "--n", "8", "--type", "odd-power", "--exponent", "5"], None, {"count": 1}),
    ]
    for n in sorted(GOLDEN_DEGREES):
        d = rng.randint(20, 100)
        weights = ",".join([str(d)] * n)
        ops.append(Op("degree", ["degree", "--weights", weights], None,
                      {"degree": d ** (n - 3) * GOLDEN_DEGREES[n]}))
    ops.append(Op("basis", ["basis", "--n", "10", "--weights", ",".join(["2"] * 10)], None,
                  {"count": BASIS_2_REGULAR_10}))
    ops.append(Op("quadric-space", None, None, {"n": 10, "dim": QUADRIC_DIM_10}))
    ops.append(Op("verify-all", ["verify-all", "--full", "--seed", str(rng.randrange(1000))], None,
                  {"passed": 9}))
    return ops


_BUILDERS = {"straighten": straighten_ops, "membership": membership_ops, "relations": relations_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of a pass; identical for identical arguments."""
    return _BUILDERS[workload](seeded_rng(workload, seed))
