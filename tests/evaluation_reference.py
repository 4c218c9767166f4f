"""Test-only references for evaluation: evaluate's edge-by-edge product of
Fraction brackets that the scaled-integer evaluation replaces, and
stability's comparison of each point with every earlier class, which the
grouping by reduced ratio replaces."""

from fractions import Fraction

from graphinv.errors import LengthMismatch
from graphinv.evaluation import Configuration, Stability
from graphinv.graphs import Graph, _weights


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
