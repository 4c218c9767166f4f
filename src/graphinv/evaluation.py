"""Exact evaluation of graph invariants at rational point configurations.

A point of the projective line is a pair (u, v) of rationals, not both
zero.  A graph evaluates to the product over its edges of
u_head*v_tail - u_tail*v_head, and a combination evaluates linearly.
Everything here is exact; this module is the oracle the rest of the
library is tested against.

A Configuration keeps its points as Fractions, and alongside each point
the integer pair (U, V) = s*(u, v) with s the lcm of the two
denominators.  evaluate multiplies the integer brackets U_h*V_t - U_t*V_h
and the scales s_t*s_h, and builds one Fraction per call from the two
products; results are Fractions.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import LengthMismatch, MalformedInput, NoStableConfiguration
from .graphs import Graph, _weights

INFINITY_TOKENS = ("inf", "infinity", "oo")


class Stability(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictlySemistable"
    UNSTABLE = "unstable"


def _rational(x) -> Fraction:
    """Fraction(x), with MalformedInput for anything that is not a finite
    rational (a zero denominator, a non-numeric token, an infinite float)."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise MalformedInput(f"not a rational number: {x!r}") from None


class Configuration:
    """n points on the projective line in homogeneous rational coordinates.

    points holds the (u, v) pairs as Fractions; _scaled holds, per point,
    the integers (U, V, s) with s = lcm of the denominators of u and v and
    (U, V) = s*(u, v)."""

    __slots__ = ("points", "_scaled")

    def __init__(self, points: Iterable[tuple]):
        pts = []
        scaled = []
        for p in points:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise MalformedInput(f"a point is a pair of rationals, got {p!r}")
            u, v = _rational(p[0]), _rational(p[1])
            (nu, du), (nv, dv) = u.as_integer_ratio(), v.as_integer_ratio()
            if not (nu or nv):
                raise MalformedInput("(0, 0) is not a projective point")
            s = math.lcm(du, dv)
            pts.append((u, v))
            scaled.append((nu * (s // du), nv * (s // dv), s))
        self.points = tuple(pts)
        self._scaled = tuple(scaled)

    @classmethod
    def from_affine(cls, values: Iterable) -> "Configuration":
        """Build from affine values; None or 'inf' marks the point at infinity."""
        pts = []
        for x in values:
            if x is None or (isinstance(x, str) and x.strip().lower() in INFINITY_TOKENS):
                pts.append((Fraction(1), Fraction(0)))
            else:
                pts.append((_rational(x), Fraction(1)))
        return cls(pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def coincide(self, i: int, j: int) -> bool:
        """True iff points i and j (1-based) are projectively equal."""
        ui, vi, _ = self._scaled[i - 1]
        uj, vj, _ = self._scaled[j - 1]
        return ui * vj == uj * vi

    def __eq__(self, other):
        return isinstance(other, Configuration) and self.points == other.points

    def __repr__(self):
        inner = ", ".join(f"[{u}:{v}]" for u, v in self.points)
        return f"Configuration({inner})"


def evaluate(g: Graph, c: Configuration) -> Fraction:
    """Product over edges of u_head*v_tail - u_tail*v_head, exact.

    Each factor is (U_h*V_t - U_t*V_h) / (s_t*s_h) on the scaled integer
    points, so both products stay in int and one Fraction is built."""
    pts = c._scaled
    if g.n != len(pts):
        raise LengthMismatch(f"graph on {g.n} vertices, configuration of {len(pts)} points")
    num = den = 1
    for t, h in g.edges:
        ut, vt, st = pts[t - 1]
        uh, vh, sh = pts[h - 1]
        num *= uh * vt - ut * vh
        if not num:
            break
        den *= st * sh
    return Fraction(num, den)


def evaluate_combination(comb, c: Configuration) -> Fraction:
    """Sum of coeff * evaluate(graph, c) over the combination's terms."""
    if comb.n != c.n:
        raise LengthMismatch(f"combination on {comb.n} vertices, configuration of {c.n} points")
    return sum((coeff * evaluate(g, c) for g, coeff in comb.terms.items()), Fraction(0))


def stability(c: Configuration, w) -> Stability:
    """Classify by the largest total weight carried by coinciding points.

    Points coincide when their integer pairs (U, V) have the same ratio, so
    the weight is summed per ratio reduced to lowest terms with V > 0, or
    V = 0 and U = 1 for the point at infinity: one pass over the points."""
    w = _weights(w)
    if len(w) != c.n:
        raise LengthMismatch(f"{len(w)} weights for {c.n} points")
    class_weight: dict[tuple[int, int], int] = {}
    for (u, v, _), x in zip(c._scaled, w):
        g = math.gcd(u, v)
        if v < 0 or not v and u < 0:
            g = -g
        ratio = u // g, v // g
        class_weight[ratio] = class_weight.get(ratio, 0) + x
    m, total = max(class_weight.values()), sum(w)
    if 2 * m < total:
        return Stability.STABLE
    if 2 * m == total:
        return Stability.STRICTLY_SEMISTABLE
    return Stability.UNSTABLE


def random_stable_configuration(w, seed: int) -> Configuration:
    """Distinct random integer points, deterministic per seed.

    Affine numerators are drawn from [-10^4, 10^4] with denominator 1 and
    re-drawn on collision, so the result is stable whenever stability is
    achievable at all (every w_i < total/2).  More than 20,001 points do
    not fit in that range; they are drawn from [-n, n] instead.
    """
    w = _weights(w)
    n, total = len(w), sum(w)
    if 2 * max(w) >= total:
        raise NoStableConfiguration(
            f"weight {max(w)} is at least half of total {total}; no stable configuration exists"
        )
    bound = 10000 if n <= 20001 else n
    rng = random.Random(seed)
    seen: set[int] = set()
    pts = []
    while len(pts) < n:
        x = rng.randint(-bound, bound)
        if x in seen:
            continue
        seen.add(x)
        pts.append((x, 1))
    return Configuration(pts)


def configuration_to_json(c: Configuration) -> dict:
    return {"points": [[str(u), str(v)] for u, v in c.points]}


def configuration_from_json(obj: dict) -> Configuration:
    """Accepts {"points": [["u","v"], ...]} or the affine shorthand
    {"affine": [x, ..., "inf", ...]}."""
    if not isinstance(obj, dict):
        raise MalformedInput("a configuration is a JSON object")
    for key in ("points", "affine"):
        if key in obj and not isinstance(obj[key], list):
            raise MalformedInput(f"'{key}' must be a list")
    if "points" in obj:
        return Configuration(obj["points"])
    if "affine" in obj:
        return Configuration.from_affine(obj["affine"])
    raise MalformedInput("configuration JSON needs a 'points' or 'affine' key")
