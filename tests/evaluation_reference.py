"""Test-only references for evaluation: the Configuration that stored its
points as Fractions beside their scaled integer triples, which the
triples alone replace; evaluate's edge-by-edge product of Fraction
brackets, which the scaled-integer evaluation replaces; and stability's
comparison of each point with every earlier class, which the grouping by
reduced ratio replaces."""

import math
from fractions import Fraction
from typing import Iterable

from graphinv.errors import LengthMismatch, MalformedInput
from graphinv.evaluation import INFINITY_TOKENS, Configuration, Stability, _rational
from graphinv.graphs import Graph, _weights


class ConfigurationReference:
    """Configuration as it kept both its Fraction points and the integer
    triples (U, V, s) of each."""

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
    def from_affine(cls, values: Iterable) -> "ConfigurationReference":
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
        ui, vi, _ = self._scaled[i - 1]
        uj, vj, _ = self._scaled[j - 1]
        return ui * vj == uj * vi

    def __eq__(self, other):
        return isinstance(other, ConfigurationReference) and self.points == other.points

    def __repr__(self):
        inner = ", ".join(f"[{u}:{v}]" for u, v in self.points)
        return f"Configuration({inner})"


def evaluate_reference(g: Graph, c: Configuration) -> Fraction:
    """Product over edges of u_head*v_tail - u_tail*v_head over Fractions."""
    pts = c.points
    if g.n != len(pts):
        raise LengthMismatch(f"graph on {g.n} vertices, configuration of {len(pts)} points")
    out = Fraction(1)
    for t, h in g.edges:
        ut, vt = pts[t - 1]
        uh, vh = pts[h - 1]
        out *= uh * vt - ut * vh
        if not out:
            break
    return out


def stability_reference(c: Configuration, w) -> Stability:
    """Classify by the largest total weight carried by coinciding points,
    each point compared with the representative of every earlier class."""
    w = _weights(w)
    if len(w) != c.n:
        raise LengthMismatch(f"{len(w)} weights for {c.n} points")
    reps: list[int] = []
    class_weight: list[int] = []
    for i in range(1, c.n + 1):
        for k, r in enumerate(reps):
            if c.coincide(i, r):
                class_weight[k] += w[i - 1]
                break
        else:
            reps.append(i)
            class_weight.append(w[i - 1])
    m, total = max(class_weight), sum(w)
    if 2 * m < total:
        return Stability.STABLE
    if 2 * m == total:
        return Stability.STRICTLY_SEMISTABLE
    return Stability.UNSTABLE
