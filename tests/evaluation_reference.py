"""Test-only reference for evaluation.evaluate: the edge-by-edge product of
Fraction brackets that the scaled-integer evaluation replaces."""

from fractions import Fraction

from graphinv.errors import LengthMismatch
from graphinv.evaluation import Configuration
from graphinv.graphs import Graph


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
