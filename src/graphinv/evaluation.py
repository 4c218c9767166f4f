"""Exact evaluation of graph invariants at rational point configurations.

A point of the projective line is a pair (u, v) of rationals, not both
zero.  A graph evaluates to the product over its edges of
u_head*v_tail - u_tail*v_head, and a combination evaluates linearly.
Everything here is exact; this module is the oracle the rest of the
library is tested against.

A Configuration keeps, per point, only the integer triple (U, V, s): s is
the lcm of the denominators of u and v and (U, V) = s*(u, v).  Its points
property rebuilds the (u, v) Fraction pairs on demand.  One kernel,
_bracket, multiplies the integer brackets U_h*V_t - U_t*V_h and the scales
s_t*s_h over any edge list and returns the two products as (num, den).
evaluate wraps it in one Fraction per call.  evaluate_combination, and the
callers in relations, acceptance and chart that decide in integers, sum
coeff*num/den with _ratio_sum on a common denominator and build at most
one Fraction at the end.
"""

from __future__ import annotations

import math
import random
import re
import sys
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import LengthMismatch, MalformedInput, NoStableConfiguration
from .graphs import Graph, _weights

INFINITY_TOKENS = ("inf", "infinity", "oo")

# a decimal exponent at the end of a rational literal, as Fraction reads it
_EXPONENT = re.compile(r"(.*)[eE]([-+]?\d+(?:_\d+)*)\s*", re.DOTALL)


class Stability(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictlySemistable"
    UNSTABLE = "unstable"


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 when there is none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _rational(x) -> Fraction:
    """Fraction(x), with MalformedInput for anything that is not a finite
    rational (a zero denominator, a non-numeric token, an infinite float)
    or whose numerator or denominator has more decimal digits than the
    int-to-str limit allows, so that it could never be printed.  A decimal
    exponent too large for that is refused before 10**exponent is built."""
    limit = _digit_limit()
    value = x
    if limit and isinstance(x, str) and (m := _EXPONENT.fullmatch(x)):
        mantissa, exponent = m.groups()
        digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
        # a nonzero mantissa of L characters times 10**e has a numerator
        # (e > 0) or a denominator (e < 0) of more than |e| - L digits
        if len(digits) > 18 or int(digits or 0) > limit + len(mantissa):
            if any(ch in "123456789" for ch in mantissa):
                raise MalformedInput(f"coordinate {x!r:.40} has more than {limit} digits")
            value = mantissa
    try:
        q = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise MalformedInput(f"not a rational number: {x!r}") from None
    if limit and max(q.numerator.bit_length(), q.denominator.bit_length()) > 3 * limit:
        # 10**limit has more than 3*limit bits
        if max(abs(q.numerator), q.denominator) >= 10**limit:
            raise MalformedInput(f"a coordinate has more than {limit} digits")
    return q


class Configuration:
    """n points on the projective line in homogeneous rational coordinates.

    _scaled holds, per point, the integers (U, V, s) with s = lcm of the
    denominators of u and v and (U, V) = s*(u, v); points rebuilds the
    (u, v) pairs as Fractions.  A point whose coordinates are both of type
    int (not bool) and well inside the digit limit skips the Fraction: its
    triple is (u, v, 1)."""

    __slots__ = ("_scaled",)

    def __init__(self, points: Iterable[tuple]):
        scaled = []
        bits = 3 * _digit_limit() or math.inf  # int coordinates this short take the int route
        for p in points:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise MalformedInput(f"a point is a pair of rationals, got {p!r}")
            u, v = p
            if type(u) is int and type(v) is int and u.bit_length() <= bits and v.bit_length() <= bits:
                s = 1
            else:
                (u, du), (v, dv) = _rational(u).as_integer_ratio(), _rational(v).as_integer_ratio()
                s = math.lcm(du, dv)
                u, v = u * (s // du), v * (s // dv)
            if not (u or v):
                raise MalformedInput("(0, 0) is not a projective point")
            scaled.append((u, v, s))
        self._scaled = tuple(scaled)

    @classmethod
    def from_affine(cls, values: Iterable) -> "Configuration":
        """Build from affine values; None or 'inf' marks the point at infinity."""
        return cls(
            (1, 0) if x is None or (isinstance(x, str) and x.strip().lower() in INFINITY_TOKENS) else (x, 1)
            for x in values
        )

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (u, v) pairs as Fractions in lowest terms."""
        return tuple((Fraction(u, s), Fraction(v, s)) for u, v, s in self._scaled)

    @property
    def n(self) -> int:
        return len(self._scaled)

    def coincide(self, i: int, j: int) -> bool:
        """True iff points i and j (1-based) are projectively equal."""
        ui, vi, _ = self._scaled[i - 1]
        uj, vj, _ = self._scaled[j - 1]
        return ui * vj == uj * vi

    def __eq__(self, other):
        # the triple of a point (u, v) is unique, so equal triples mean equal points
        return isinstance(other, Configuration) and self._scaled == other._scaled

    def __repr__(self):
        inner = ", ".join(f"[{u}:{v}]" for u, v in self.points)
        return f"Configuration({inner})"


def _bracket(edges, scaled) -> tuple[int, int]:
    """The product over edges (t, h) of u_h*v_t - u_t*v_h as (num, den):
    num multiplies the integer brackets U_h*V_t - U_t*V_h and den > 0 the
    scales s_t*s_h of the scaled points (1-based).  Not reduced; (0, 1)
    once a factor vanishes."""
    num = den = 1
    for t, h in edges:
        ut, vt, st = scaled[t - 1]
        uh, vh, sh = scaled[h - 1]
        num *= uh * vt - ut * vh
        if not num:
            return 0, 1
        den *= st * sh
    return num, den


def _ratio_sum(terms) -> tuple[int, int]:
    """The sum of coeff*num/den over (coeff, num, den) triples, den > 0 and
    coeff an int or a Fraction, as (num, den) on the lcm of the
    denominators met.  A homogeneous combination evaluates every graph on
    one scale product, so that lcm is usually just the first den."""
    total = 0
    common = 1
    for coeff, num, den in terms:
        if not num:
            continue
        if type(coeff) is int:
            num *= coeff
        else:
            num *= coeff.numerator
            den *= coeff.denominator
        if den != common:
            lcm = math.lcm(common, den)
            total *= lcm // common
            num *= lcm // den
            common = lcm
        total += num
    return total, common


def _fraction(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


def evaluate(g: Graph, c: Configuration) -> Fraction:
    """Product over edges of u_head*v_tail - u_tail*v_head, exact."""
    if g.n != c.n:
        raise LengthMismatch(f"graph on {g.n} vertices, configuration of {c.n} points")
    return _fraction(*_bracket(g.edges, c._scaled))


def _combination_ratio(comb, c: Configuration) -> tuple[int, int]:
    """evaluate_combination as (num, den)."""
    if comb.n != c.n:
        raise LengthMismatch(f"combination on {comb.n} vertices, configuration of {c.n} points")
    pts = c._scaled
    return _ratio_sum((coeff, *_bracket(g.edges, pts)) for g, coeff in comb.terms.items())


def evaluate_combination(comb, c: Configuration) -> Fraction:
    """Sum of coeff * evaluate(graph, c) over the combination's terms."""
    return _fraction(*_combination_ratio(comb, c))


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
