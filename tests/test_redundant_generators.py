"""ideal_membership builds its slice only from the generators that are not
in the span of earlier generators of their degree.  On generator lists with
planted dependencies (duplicates, multiples, sums, zeros, each before or
after what spans it, quadrics mixed with cubics, shuffled) the results are
those of the unpruned reference, certificates name the caller's generator
indices, and a redundant generator of too high a degree is still refused."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relations_reference as ref
from graphinv import linalg, relations
from graphinv.errors import DegreeMismatch
from graphinv.graphs import enumerate_matchings, noncrossing_matchings
from graphinv.linalg import RationalMatrix, rank
from graphinv.relations import (
    GraphPolynomial,
    ideal_membership,
    reduce_to_noncrossing_vars,
    segre_cubic,
    simple_binomial_relations,
)
from test_relations_edge_tuples import assert_membership_matches, random_polynomial


def times(cofactor, g, coeff=1):
    """coeff * cofactor * g, cofactor a tuple of matchings."""
    terms = {cofactor + mono: coeff * c for mono, c in g.terms.items()}
    return GraphPolynomial(g.n, terms, degree=len(cofactor) + g.degree)


def independent_of_earlier(generators):
    """The indices of the generators that, reduced, are outside the span of
    the reduced nonzero generators before them of their degree."""
    reduced = [reduce_to_noncrossing_vars(g) for g in generators]
    index = {mono: t for t, mono in enumerate({mono for h in reduced for mono in h.terms})}
    out, earlier, r = set(), {}, {}
    for gi, h in enumerate(reduced):
        if h.is_zero:
            continue
        cols = earlier.setdefault(h.degree, [])
        cols.append({index[mono]: c for mono, c in h.terms.items()})
        grown = rank(RationalMatrix.from_columns(cols, height=len(index)))
        if grown > r.get(h.degree, 0):
            out.add(gi)
        r[h.degree] = grown
    return out


def assert_certified(candidates, generators, k):
    """ideal_membership agrees with the reference by repr on each candidate,
    and a certificate re-expands, through the caller's indices, to the
    candidate; it names no generator that depends on earlier ones of its
    degree.  Returns whether each candidate is a member."""
    kept = independent_of_earlier(generators)
    members = []
    for candidate in candidates:
        member, cert = assert_membership_matches(candidate, generators, k)
        members.append(member)
        if not member:
            continue
        assert {gi for gi, _, _ in cert} <= kept
        pairs = [(cof + mono, coeff * c) for gi, cof, coeff in cert for mono, c in generators[gi].terms.items()]
        total = GraphPolynomial(candidate.n, pairs, degree=k)
        assert reduce_to_noncrossing_vars(total) == reduce_to_noncrossing_vars(candidate)
    return members


def member_of(rng, generators, k, size=3):
    """A sum of coeff * cofactor * generator over generators of degree <= k,
    cofactors drawn from every perfect matching, crossing ones included."""
    usable = [g for g in generators if g.degree <= k]
    matchings = enumerate_matchings(usable[0].n)
    total = GraphPolynomial.zero(usable[0].n, k)
    for _ in range(size):
        g = rng.choice(usable)
        cof = tuple(rng.choice(matchings) for _ in range(k - g.degree))
        total = total + times(cof, g, rng.choice((-2, -1, 1, 3)))
    return total


def plant(rng, generators, count):
    """generators with count dependent ones inserted at random places:
    duplicates, int and Fraction multiples, sums of two of one degree,
    zeros, and a quadric times a non-crossing variable, a cubic in the
    ideal of the quadric though not in the span of any one degree; each
    may land before or after what it depends on."""
    out = list(generators)
    for _ in range(count):
        a = rng.choice(out)
        kind = rng.choice(("duplicate", "int", "fraction", "sum", "zero", "variable"))
        if kind == "variable" and a.degree == 2:
            new = times((rng.choice(noncrossing_matchings(a.n)),), a)
        elif kind == "duplicate":
            new = a
        elif kind == "int":
            new = rng.choice((-3, -1, 2)) * a
        elif kind == "fraction":
            new = Fraction(rng.choice((-5, 1, 2)), rng.choice((3, 7))) * a
        elif kind == "sum":
            new = a + rng.choice([g for g in out if g.degree == a.degree])
        else:
            new = GraphPolynomial.zero(a.n, a.degree)
        out.insert(rng.randint(0, len(out)), new)
    return out


def test_planted_dependencies_at_n8():
    rng = random.Random(2026)
    gens = simple_binomial_relations(8)
    x = noncrossing_matchings(8)
    lists = [
        gens + gens[:4],  # duplicates after
        gens[30:] + gens,  # duplicates before
        [2 * gens[5], Fraction(-3, 7) * gens[5]] + gens,
        [gens[0] + gens[1]] + gens,  # a sum before what spans it
        gens + [gens[0] - gens[2], gens[3] + gens[4] + gens[5]],
        [GraphPolynomial.zero(8, 2)] + gens[:10] + [3 * gens[2]] + gens[10:],
        # a cubic multiple of a later quadric, a cubic multiple of an earlier one
        [times((x[0],), gens[0])] + gens + [times((x[3],), gens[7], Fraction(1, 2))],
        plant(rng, gens, 8),
    ]
    shuffled = plant(rng, gens + [times((x[1],), gens[9])], 6)
    rng.shuffle(shuffled)
    lists.append(shuffled)
    for generators in lists:
        outsider = member_of(rng, generators, 3) + random_polynomial(rng, 8, 3)
        assert assert_certified((segre_cubic(8), outsider), generators, 3) == [True, False]


def test_redundant_generators_are_left_out_of_the_slice(monkeypatch):
    """Planted duplicates, multiples and sums add no columns."""
    seen = []

    def spy(v, m):
        seen.append(m)
        return linalg.in_span(v, m)

    monkeypatch.setattr(relations, "in_span", spy)
    gens = simple_binomial_relations(8)
    planted = [gens[4] + gens[9]] + gens + gens[:3] + [Fraction(2, 3) * gens[20], GraphPolynomial.zero(8, 2)]
    for generators in (gens, planted):
        assert ideal_membership(segre_cubic(8), generators, 3)[0]
    assert [(m.rows, m.cols) for m in seen] == [(560, 14 * 14), (560, 14 * 14)]


def test_redundant_generator_of_too_high_a_degree_is_refused():
    gens = simple_binomial_relations(8)
    cubic = times(tuple(noncrossing_matchings(8)[:1]), gens[0])
    for generators, at in (
        ([gens[0], cubic, cubic, 2 * cubic], 1),
        ([gens[0], GraphPolynomial.zero(8, 3), cubic, gens[1], Fraction(1, 3) * cubic], 2),
    ):
        for membership in (ideal_membership, ref.ideal_membership_reference):
            with pytest.raises(DegreeMismatch, match=f"generator {at} has degree 3 > 2"):
                membership(GraphPolynomial.zero(8, 2), generators, 2)


def test_segre_at_10_is_outside_the_slice_of_the_kept_quadrics(monkeypatch):
    """85 of the 210 simple binomials at n=10 are independent of earlier
    ones; their 85 x 42 columns have rank 3,457 in the 13,244 cubic
    monomials, and the Segre cubic is not in their span."""
    seen, echelons = [], []

    def spy(v, m):
        seen.append(m)
        return linalg.in_span(v, m)

    class Recording(linalg._Echelon):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(relations, "in_span", spy)
    monkeypatch.setattr(linalg, "_Echelon", Recording)
    gens = simple_binomial_relations(10)
    assert ideal_membership(segre_cubic(10), gens, 3) == (False, None)
    (m,) = seen
    assert (len(gens), len(noncrossing_matchings(10))) == (210, 42)
    assert (m.rows, m.cols) == (13244, 85 * 42)
    # the last echelon is in_span's; the Segre cubic is independent too
    assert len(echelons[-1].rows) == 3457 + 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from((2, 2, 3)), min_size=1, max_size=5),
    st.integers(0, 5),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_planted_dependencies_property(degrees, count, shuffle, rng):
    """Random quadrics and cubics at n=6 with planted dependencies, against
    the reference on a member, a random polynomial and their sum."""
    generators = plant(rng, [random_polynomial(rng, 6, d) for d in degrees], count)
    if shuffle:
        rng.shuffle(generators)
    member = member_of(rng, generators, 3)
    other = random_polynomial(rng, 6, 3)
    assert assert_certified((member, other, member + other), generators, 3)[0]
