"""Self-contained acceptance checks.

Each check returns (passed, details) and is registered with a name and a
tier; run_acceptance drives them for both the test suite and the CLI
verify-all subcommand.  Checks draw randomness only through seeds derived
from the base seed, so a run is reproducible end to end.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .chart import alternative_good_matchings, chart_coordinates, verify_chart
from .degree import moduli_degree
from .evaluation import (
    Configuration,
    _bracket,
    _combination_ratio,
    _fraction,
    _ratio_sum,
    evaluate,
    evaluate_combination,
    random_stable_configuration,
)
from .graphs import Graph, enumerate_noncrossing, noncrossing_matchings
from .kempe import kempe_decompose
from .linalg import RationalMatrix, rank
from .relations import (
    _reduced_terms,
    evaluate_polynomial,
    ideal_membership,
    noncrossing_monomials,
    odd_power_relation,
    plucker_linear_relations,
    quadric_relation_space,
    reduce_to_noncrossing_vars,
    ring_normal_form,
    segre_cubic,
    simple_binomial_relations,
)
from .straightening import GraphCombination, adjacent_clumps, clump_map, straighten_graph


class CheckResult:
    __slots__ = ("name", "passed", "details", "seconds")

    def __init__(self, name: str, passed: bool, details: str, seconds: float):
        self.name = name
        self.passed = passed
        self.details = details
        self.seconds = seconds

    def __repr__(self):
        word = "PASS" if self.passed else "FAIL"
        return f"[{word}] {self.name}: {self.details}"


def _expect(failures: list, label: str, got, want) -> None:
    if got != want:
        failures.append(f"{label}: got {got!r}, want {want!r}")


def check_degree_golden_values(base_seed: int):
    failures: list[str] = []
    golden = [
        ((1, 1, 1, 1), 1),
        ((1,) * 6, 3),
        ((1,) * 8, 40),
        ((1,) * 10, 1225),
        ((2, 2, 2, 2, 2), 5),
        ((3, 2, 1), 1),
        ((2, 2, 2), 1),
        ((2, 2, 1, 1), 1),
        ((2, 1, 1, 1, 1), 1),
    ]
    for w, want in golden:
        _expect(failures, f"deg {w}", moduli_degree(w), want)
    for d in range(1, 6):
        _expect(failures, f"deg (d,d,d,d) d={d}", moduli_degree((d,) * 4), d)
    return not failures, "; ".join(failures) or f"{len(golden) + 5} golden degrees"


def check_degree_scaling_law(base_seed: int):
    failures: list[str] = []
    for d in (2, 3):
        _expect(failures, f"deg {d}*1^6", moduli_degree((d,) * 6), d**3 * 3)
    _expect(failures, "deg 2*1^8", moduli_degree((2,) * 8), 2**5 * 40)
    return not failures, "; ".join(failures) or "d^(n-3) scaling at d=2,3 (n=6) and d=2 (n=8)"


def check_counting(base_seed: int):
    failures: list[str] = []
    catalan = {4: 2, 6: 5, 8: 14, 10: 42, 12: 132}
    for n, want in catalan.items():
        _expect(failures, f"matchings n={n}", len(noncrossing_matchings(n)), want)
    _expect(failures, "2-regular n=8", len(enumerate_noncrossing(8, (2,) * 8)), 91)
    return not failures, "; ".join(failures) or "Catalan 2,5,14,42,132 and Riordan 91"


def check_quadric_space(base_seed: int):
    failures: list[str] = []
    _expect(failures, "dim quadric space n=8", len(quadric_relation_space(8)), 14)
    _expect(failures, "dim quadric space n=6", len(quadric_relation_space(6)), 0)
    gens = simple_binomial_relations(8)
    _expect(failures, "generator count n=8", len(gens), 35)
    # monomials as sorted tuples of factor edge tuples, as _reduced_terms keys them
    index = {tuple(g.edges for g in m): i for i, m in enumerate(noncrossing_monomials(8, 2))}
    cols = [{index[mono]: coeff for mono, coeff in red.items()} for red in _reduced_terms(*gens)]
    r = rank(RationalMatrix.from_columns(cols, height=len(index)))
    _expect(failures, "rank of reduced binomials", r, 14)
    return not failures, "; ".join(failures) or "dim 14 (n=8), dim 0 (n=6), binomials span rank 14"


def check_segre_membership(base_seed: int):
    failures: list[str] = []
    s8 = segre_cubic(8)
    gens8 = simple_binomial_relations(8)
    ok8, cert8 = ideal_membership(s8, gens8, 3)
    if not ok8:
        failures.append("segre_cubic(8) not certified inside the n=8 binomial ideal")
    elif not cert8:
        failures.append("membership certificate for n=8 is empty")
    s6 = segre_cubic(6)
    ok6, _ = ideal_membership(s6, simple_binomial_relations(6), 3)
    if ok6:
        failures.append("segre_cubic(6) wrongly certified as an ideal member")
    if not ring_normal_form(s6).is_zero:
        failures.append("ring_normal_form(segre_cubic(6)) != 0")
    if not ring_normal_form(s8).is_zero:
        failures.append("ring_normal_form(segre_cubic(8)) != 0")
    if reduce_to_noncrossing_vars(s6).is_zero:
        failures.append("reduce_to_noncrossing_vars(segre_cubic(6)) == 0")
    size = len(cert8) if cert8 else 0
    return not failures, "; ".join(failures) or f"member at n=8 (certificate {size} terms), non-member at n=6"


def _random_multigraph(rng: random.Random) -> Graph:
    n = rng.choice([4, 6, 8, 10])
    m = rng.randint(1, 8)
    edges = []
    while len(edges) < m:
        t, h = rng.randint(1, n), rng.randint(1, n)
        if t != h:
            edges.append((t, h))
    return Graph(n, edges)


def _random_regular_graph(rng: random.Random) -> Graph:
    n = rng.choice([4, 6, 8])
    d = rng.randint(1, 3)
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(t != h for t, h in pairs):
            return Graph(n, pairs)


def _eval_products(products, c: Configuration) -> Fraction:
    """Sum of coeff times the product of factor evaluations; a product's
    factors are evaluated together as one edge list."""
    pts = c._scaled
    terms = ((p.coeff, *_bracket([e for f in p.factors for e in f.edges], pts)) for p in products)
    return _fraction(*_ratio_sum(terms))


def check_oracle_property_suites(base_seed: int):
    failures: list[str] = []
    rng = random.Random(base_seed * 1000003 + 6)

    for k in range(200):
        g = _random_multigraph(rng)
        s = straighten_graph(g)
        for t in range(3):
            c = random_stable_configuration((1,) * g.n, seed=rng.randrange(2**30))
            if evaluate(g, c) != evaluate_combination(s, c):
                failures.append(f"straightening unsound on sample {k}: {g!r}")
                break
        if failures:
            break

    if not failures:
        for k in range(100):
            g = _random_regular_graph(rng)
            prods = kempe_decompose(g)
            for t in range(3):
                c = random_stable_configuration((1,) * g.n, seed=rng.randrange(2**30))
                if evaluate(g, c) != _eval_products(prods, c):
                    failures.append(f"kempe decomposition unsound on sample {k}: {g!r}")
                    break
            if failures:
                break

    if not failures:
        batches = []
        batches.append(("plucker n=6", 6, plucker_linear_relations(6), evaluate_combination))
        batches.append(("simple-binomial n=8", 8, simple_binomial_relations(8), evaluate_polynomial))
        g0 = noncrossing_matchings(6)[0]
        batches.append(("segre n=6 and n=8", 6, [segre_cubic(6)], evaluate_polynomial))
        batches.append(("segre n=8", 8, [segre_cubic(8)], evaluate_polynomial))
        batches.append(("odd-power (6,3)", 6, [odd_power_relation(6, g0, 3)], evaluate_polynomial))
        for label, n, rels, ev in batches:
            for t in range(10):
                c = random_stable_configuration((1,) * n, seed=rng.randrange(2**30))
                bad = [r for r in rels if ev(r, c) != 0]
                if bad:
                    failures.append(f"{label}: {len(bad)} relations nonzero at sample config {t}")
                    break
            if failures:
                break

    if not failures:
        for n, w in [(6, (1,) * 6), (8, (1,) * 8), (6, (2,) * 6)]:
            basis = enumerate_noncrossing(n, w)
            k = len(basis)
            full = False
            for attempt in range(3):
                configs = [
                    random_stable_configuration(w, seed=rng.randrange(2**30)) for _ in range(k)
                ]
                m = RationalMatrix.from_columns([{i: evaluate(b, c) for i, c in enumerate(configs)} for b in basis], k)
                if rank(m) == k:
                    full = True
                    break
            if not full:
                failures.append(f"basis evaluation matrix for {n}, {w} rank-deficient in 3 draws")
    return not failures, "; ".join(failures) or (
        "200 straightenings, 100 kempe decompositions, relation batches, 3 full-rank basis matrices"
    )


def check_odd_power_identification(base_seed: int):
    failures: list[str] = []
    g0 = noncrossing_matchings(6)[0]
    rel = odd_power_relation(6, g0, 3)
    if not ring_normal_form(rel).is_zero:
        failures.append("odd-power relation has nonzero ring normal form")
    a = reduce_to_noncrossing_vars(segre_cubic(6))
    b = reduce_to_noncrossing_vars(rel)
    if b.is_zero:
        failures.append("odd-power reduction vanished")
    key = next(iter(a.terms), None)
    ratio = Fraction(b.terms.get(key, 0), a.terms[key]) if key is not None else None
    if ratio is None or b != ratio * a:
        failures.append("reductions are not proportional")
    return not failures, "; ".join(failures) or f"odd-power(6,3) = {ratio} * segre_cubic(6) after reduction"


def check_chart_identities(base_seed: int):
    failures: list[str] = []
    rng = random.Random(base_seed * 1000003 + 8)
    for n in (8, 10):
        for k in range(50):
            c = random_stable_configuration((1,) * n, seed=rng.randrange(2**30))
            rep = verify_chart(c)
            if not rep:
                failures.append(f"verify_chart failed at n={n} sample {k}: {rep!r}")
                break
        if failures:
            break

    if not failures:
        for m in (4, 5):
            pts = [(Fraction(0), Fraction(1))] * m + [(Fraction(1), Fraction(0))] * m
            pt = chart_coordinates(Configuration(pts))
            if any(x != 0 for row in pt.W for x in row):
                failures.append(f"W not zero at the semistable limit, m={m}")
            if any(x != -1 for row in pt.Z for x in row):
                failures.append(f"Z not -1 at the semistable limit, m={m}")

    if not failures:
        for n, entries in [(8, [(2, 5), (3, 6)]), (10, [(2, 6), (4, 8)])]:
            c = random_stable_configuration((1,) * n, seed=rng.randrange(2**30))
            pt = chart_coordinates(c)
            for i, j in entries:
                vals = set()
                for g in alternative_good_matchings(n, i, j, limit=3):
                    num = evaluate(Graph(n, [(1, i), (j, n)] + g), c)
                    den = evaluate(Graph(n, [(1, j), (i, n)] + g), c)
                    vals.add(num / den)
                if vals != {pt.w_entry(i, j)}:
                    failures.append(f"W_{i}{j} at n={n} depends on the good matching: {vals}")
    return not failures, "; ".join(failures) or (
        "100 verified charts, zero matrix at the limit, ratios independent of the matching"
    )


def _clumped_terms(images, c: Configuration):
    """(coeff, num, den) per clumped monomial: the product of its factors'
    combination values."""
    for coeff, clumped in images:
        num = den = 1
        for f in clumped:
            fn, fd = _combination_ratio(f, c)
            num *= fn
            den *= fd
        yield coeff, num, den


def check_clump_reduction(base_seed: int):
    failures: list[str] = []
    basis6 = noncrossing_matchings(6)
    for w in [(2, 1, 1, 1, 1), (2, 2, 1, 1)]:
        clumps = adjacent_clumps(w)
        for h in enumerate_noncrossing(len(w), w):
            target = GraphCombination.from_graph(h)
            lifts = [
                g
                for g in basis6
                if clump_map(GraphCombination.from_graph(g), clumps) in (target, -target)
            ]
            if len(lifts) != 1:
                failures.append(f"{h!r} under clumping {w} has {len(lifts)} non-crossing lifts, want 1")

    # the n=6 generator list is empty, so the literal statement is vacuous;
    # exercised anyway, then again meaningfully from n=8
    for p in simple_binomial_relations(6):
        failures.append(f"unexpected n=6 binomial generator {p!r}")

    if not failures:
        w8 = (2, 1, 1, 1, 1, 1, 1)
        clumps = adjacent_clumps(w8)
        rng = random.Random(base_seed * 1000003 + 9)
        configs = [random_stable_configuration(w8, seed=rng.randrange(2**30)) for _ in range(10)]
        for p in simple_binomial_relations(8):
            images = []
            for mono, coeff in p.terms.items():
                clumped = [clump_map(GraphCombination.from_graph(f), clumps) for f in mono]
                if any(f.is_zero for f in clumped):
                    continue
                images.append((coeff, clumped))
            if not images:
                continue
            for c in configs:
                if _ratio_sum(_clumped_terms(images, c))[0]:
                    failures.append(f"clumped binomial is not a relation for weights {w8}")
                    break
            if failures:
                break
    return not failures, "; ".join(failures) or (
        "unique non-crossing lifts for (2,1,1,1,1) and (2,2,1,1); clumped binomials stay relations"
    )


CHECKS = [
    ("degree-golden-values", check_degree_golden_values, True),
    ("degree-scaling-law", check_degree_scaling_law, True),
    ("counting", check_counting, True),
    ("quadric-space", check_quadric_space, True),
    ("segre-membership", check_segre_membership, True),
    ("oracle-property-suites", check_oracle_property_suites, False),
    ("odd-power-identification", check_odd_power_identification, True),
    ("chart-identities", check_chart_identities, False),
    ("clump-reduction", check_clump_reduction, True),
]


def run_acceptance(quick: bool = False, base_seed: int = 0, names=None) -> list[CheckResult]:
    results = []
    for name, fn, in_quick in CHECKS:
        if quick and not in_quick:
            continue
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            passed, details = fn(base_seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, details, time.perf_counter() - t0))
    return results
