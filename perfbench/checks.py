"""Output checks for benchmark ops, run outside the timed interval.

Graph values are computed here with plain integers at seeded distinct
integer points x_1..x_n: an edge t->h contributes x_h - x_t, the same
bracket the library's evaluation uses for the affine points (x, 1).  Only
the membership check calls back into the library, to reduce polynomials
to non-crossing variables.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from workloads import Op, crossing_count

CONFIGS_PER_CHECK = 2


def random_points(rng: random.Random, n: int) -> list[int]:
    """Distinct integers x_1..x_n (index 0 unused); distinct points on the
    line are stable for every unit-weight or regular multidegree."""
    return [0] + rng.sample(range(-10**6, 10**6), n)


def graph_value(edges, x) -> int:
    value = 1
    for t, h in edges:
        value *= x[h] - x[t]
    return value


def combination_value(terms, x) -> Fraction:
    """Value of a combination in the CLI's JSON form."""
    return sum((Fraction(t["coeff"]) * graph_value(t["edges"], x) for t in terms), Fraction(0))


def polynomial_value(terms, x) -> Fraction:
    total = Fraction(0)
    for t in terms:
        value = Fraction(t["coeff"])
        for factor in t["monomial"]:
            value *= graph_value(factor["edges"], x)
        total += value
    return total


class Checker:
    """Checks op outputs; returns None when an output is right, else why not."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._reduced_generators = None

    def points(self, n: int) -> list[list[int]]:
        return [random_points(self.rng, n) for _ in range(CONFIGS_PER_CHECK)]

    def check(self, op: Op, code: int, output) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if op.kind == "quadric-space":
            return self.quadric_space(op, output)
        report = json.loads(output)
        return getattr(self, op.kind.replace("-", "_"))(op, report["outputs"])

    def straighten(self, op: Op, out) -> str | None:
        graph = op.truth["graph"]
        comb = out["combination"]
        for t in comb["terms"]:
            if not all(a < b for a, b in t["edges"]) or crossing_count(t["edges"]):
                return f"term {t['edges']} is not a canonical non-crossing graph"
        for x in self.points(graph["n"]):
            if combination_value(comb["terms"], x) != graph_value(graph["edges"], x):
                return f"straightened value differs from the input graph at {x[1:]}"
        return None

    def relations(self, op: Op, out) -> str | None:
        rels = out["relations"]
        if out["count"] != op.truth["count"] or len(rels) != op.truth["count"]:
            return f"{len(rels)} relations, expected {op.truth['count']}"
        n = rels[0]["n"]
        for x in self.points(n):
            for r in rels:
                if not r["terms"]:
                    return "an emitted relation is zero"
                value = polynomial_value(r["terms"], x) if "monomial" in r["terms"][0] else combination_value(r["terms"], x)
                if value:
                    return f"a relation does not vanish at {x[1:]}"
        return None

    def degree(self, op: Op, out) -> str | None:
        if out["degree"] != op.truth["degree"]:
            return f"degree {out['degree']}, expected {op.truth['degree']}"
        return None

    def basis(self, op: Op, out) -> str | None:
        graphs = out["graphs"]
        if out["count"] != op.truth["count"] or len(graphs) != op.truth["count"]:
            return f"{len(graphs)} basis graphs, expected {op.truth['count']}"
        seen = set()
        for g in graphs:
            edges = [tuple(e) for e in g["edges"]]
            degree = [0] * (g["n"] + 1)
            for t, h in edges:
                degree[t] += 1
                degree[h] += 1
            if edges != sorted(edges) or not all(t < h for t, h in edges) or crossing_count(edges):
                return f"basis graph {edges} is not canonical and non-crossing"
            if degree[1:] != [2] * g["n"]:
                return f"basis graph {edges} is not 2-regular"
            seen.add(tuple(edges))
        if len(seen) != len(graphs):
            return "repeated basis graphs"
        return None

    def verify_all(self, op: Op, out) -> str | None:
        if out["passed"] != op.truth["passed"] or out["total"] != op.truth["passed"]:
            return f"verify-all passed {out['passed']}/{out['total']}"
        return None

    def quadric_space(self, op: Op, vectors) -> str | None:
        from graphinv.relations import noncrossing_monomials

        if len(vectors) != op.truth["dim"]:
            return f"quadric space of dimension {len(vectors)}, expected {op.truth['dim']}"
        monomials = noncrossing_monomials(op.truth["n"], 2)
        for x in self.points(op.truth["n"]):
            values = [graph_value(f.edges, x) * graph_value(g.edges, x) for f, g in monomials]
            for v in vectors:
                if not any(v):
                    return "a zero vector in the quadric relation basis"
                if sum(int(c) * val for c, val in zip(v, values) if c):
                    return f"a quadric relation does not vanish at {x[1:]}"
        return None

    def check_ideal(self, op: Op, out) -> str | None:
        if out["member"] != op.truth["member"]:
            return f"member={out['member']}, expected {op.truth['member']}"
        if not out["member"]:
            return None if out["certificate"] is None else "a non-member came with a certificate"
        if not out["certificate"]:
            return "a member came without a certificate"
        return self.certificate(op, out["certificate"])

    def certificate(self, op: Op, cert) -> str | None:
        """The certificate sum of coeff * cofactor * reduced generator must
        equal the reduced candidate exactly."""
        from graphinv.graphs import graph_from_json
        from graphinv.relations import (
            GraphPolynomial,
            reduce_to_noncrossing_vars,
            segre_cubic,
            simple_binomial_relations,
        )

        if self._reduced_generators is None:
            self._reduced_generators = [reduce_to_noncrossing_vars(g) for g in simple_binomial_relations(8)]
        candidate = segre_cubic(8) if op.truth.get("segre") else op.truth["candidate"]
        terms: dict = {}
        for entry in cert:
            cofactor = tuple(graph_from_json(f) for f in entry["cofactor_monomial"])
            coeff = Fraction(entry["coeff"])
            for mono, c in self._reduced_generators[entry["generator_index"]].terms.items():
                key = cofactor + mono
                terms[key] = terms.get(key, 0) + coeff * c
        rebuilt = GraphPolynomial(candidate.n, terms, degree=candidate.degree)
        if rebuilt != reduce_to_noncrossing_vars(candidate):
            return "the certificate does not re-expand to the reduced candidate"
        return None
