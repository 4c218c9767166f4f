"""Fuzz of the CLI boundary: whatever document a subcommand reads, main
returns 0, 1 or 2 and writes no traceback.

Documents are drawn well-formed and malformed: graphs, polynomials and
configurations, as JSON text, as arbitrary JSON values, or as raw text.
Sizes stay small (at most 8 points, monomials of degree at most 3) so
that each run is quick.  The exceptions are sparse graphs for straighten,
at most 8 edges on up to 100,000 points, and two kinds of regular graph
for kempe: a perfect matching with each pair repeated up to 40 times, and
neutral regular graphs on up to 4,000 points, whose augmenting paths run
long."""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.cli import main

# Mostly rational literals, a few of them with a zero denominator, and
# sometimes a value of the wrong kind.
rationals = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(-1, 3)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(-3, 3),
    st.sampled_from(["inf", "x", "", "1/2/3", "nan", None, True, 1.5, [1]]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def graphs(draw, n, max_edges=8):
    """A graph document on n points, usually well formed."""
    vertex = st.integers(0, n + 1) if draw(st.integers(0, 9)) == 0 else st.integers(1, max(n, 1))
    edges = draw(st.lists(st.tuples(vertex, vertex).map(list), max_size=max_edges))
    return {"n": n, "edges": edges}


@st.composite
def sparse_graphs(draw):
    """A loopless graph document on up to 100,000 points with at most 8
    edges, their endpoints in two narrow windows so that edges cross."""
    n = draw(st.integers(6, 10**5))
    windows = draw(st.lists(st.integers(1, n - 5), min_size=2, max_size=2))
    vertex = st.sampled_from(windows).flatmap(lambda w: st.integers(w, w + 5))
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]).map(list), max_size=8))
    return {"n": n, "edges": edges}


@st.composite
def matchings(draw, n):
    """A perfect matching on n points as a graph document."""
    order = draw(st.permutations(range(1, n + 1)))
    return {"n": n, "edges": [[order[i], order[i + 1]] for i in range(0, n - 1, 2)]}


@st.composite
def regular_graphs(draw, n):
    """A union of perfect matchings on even n: a regular graph for kempe."""
    parts = draw(st.lists(matchings(n), min_size=1, max_size=3))
    return {"n": n, "edges": [e for m in parts for e in m["edges"]]}


@st.composite
def repeated_pairs(draw):
    """A perfect matching on n <= 8 points with one pair inside each half
    of the kempe bipartition, every pair repeated k <= 40 times."""
    n = draw(st.sampled_from([4, 6, 8]))
    pos = draw(st.permutations(range(1, n // 2 + 1)))
    neg = draw(st.permutations(range(n // 2 + 1, n + 1)))
    pairs = [pos[:2], neg[:2]] + [[u, v] for u, v in zip(pos[2:], neg[2:])]
    return {"n": n, "edges": pairs * draw(st.integers(1, 40))}


@st.composite
def neutral_regular_graphs(draw):
    """A regular graph on up to 4,000 points whose every edge crosses the
    kempe bipartition: up to 3 seeded matchings of the halves, often 3 on
    3,800 points or more, where augmenting paths run longest."""
    half, d = draw(st.one_of(
        st.tuples(st.integers(1, 2000), st.integers(1, 3)),
        st.tuples(st.integers(1900, 2000), st.just(3)),
    ))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = []
    for _ in range(d):
        p = list(range(half + 1, 2 * half + 1))
        rng.shuffle(p)
        edges += [[i + 1, p[i]] for i in range(half)]
    return {"n": 2 * half, "edges": edges}


@st.composite
def polynomials(draw, n):
    """A polynomial document in matching variables on even n <= 8 points."""
    degree = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coeff, factor = st.integers(-3, 3), matchings(n)
    else:
        coeff, factor = rationals, st.one_of(matchings(n), graphs(n, max_edges=n // 2 + 1))
    terms = draw(st.lists(
        st.fixed_dictionaries({"coeff": coeff, "monomial": st.lists(factor, min_size=degree, max_size=degree)}),
        max_size=3,
    ))
    return {"n": n, "terms": terms}


def point_lists(n):
    """n affine points, mostly distinct integers or inf, sometimes garbage
    or a different count."""
    good = st.lists(st.sampled_from(["inf"] + [str(x) for x in range(-4, 5)]), min_size=n, max_size=n, unique=True)
    return st.one_of(good, good, st.lists(rationals.map(str), max_size=8))


def configurations(n):
    """A configuration document of homogeneous coordinate strings."""
    affine = point_lists(n).map(lambda ps: [["1", "0"] if p == "inf" else [p, "1"] for p in ps])
    raw = st.lists(st.tuples(rationals, rationals).map(list), max_size=8)
    return st.one_of(affine, raw).map(lambda points: {"points": points})


def documents(well_formed):
    """JSON text of well_formed documents, or of anything else, or no JSON at all."""
    return st.one_of(
        well_formed.map(json.dumps),
        well_formed.map(json.dumps),
        json_values.map(json.dumps),
        st.text(max_size=12),
    )


@st.composite
def invocations(draw):
    """argv, the standard input and, for eval, the text of the graph file
    of one CLI call."""
    command = draw(st.sampled_from(["straighten", "kempe", "eval", "check-ideal", "chart"]))
    fmt = draw(st.sampled_from(["text", "json"]))
    if command == "check-ideal":
        n = draw(st.sampled_from([4, 6, 8]))  # the generators start at n = 6
    elif command in ("kempe", "chart"):
        n = draw(st.sampled_from([2, 4, 6, 8]))
    else:
        n = draw(st.integers(0, 8))
    argv, stdin, graph = [command, "--format", fmt], "", None
    if command in ("straighten", "kempe"):
        argv += ["--graph", "-"]
        well_formed = st.one_of(regular_graphs(n), graphs(n))
        if command == "straighten":
            well_formed = st.one_of(well_formed, sparse_graphs())
        else:
            well_formed = st.one_of(well_formed, repeated_pairs(), neutral_regular_graphs())
        stdin = draw(documents(well_formed))
    elif command == "check-ideal":
        argv += ["--candidate", "-", f"--n={draw(st.one_of(st.just(n), st.integers(-1, 8)))}"]
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--degree={draw(st.integers(-1, 3))}")
        stdin = draw(documents(polynomials(n)))
    else:
        if command == "eval":
            graph = draw(documents(graphs(n)))
        if draw(st.booleans()):
            argv.append(f"--points={','.join(draw(point_lists(n)))}")
        else:
            argv += ["--config", "-"]
            stdin = draw(documents(configurations(n)))
    return argv, stdin, graph


def run(argv, stdin):
    """main(argv) with stdin as its standard input: the exit code and the
    text written to standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_cli_boundary_exits_0_1_or_2_without_traceback(tmp_path_factory, call):
    argv, stdin, graph = call
    if graph is not None:
        path = tmp_path_factory.mktemp("fuzz") / "graph.json"
        path.write_text(graph)
        argv = argv + ["--graph", str(path)]
    code, out, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ")


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(), st.sampled_from(["text", "json"]))
def test_straighten_sparse_graphs_on_many_points(doc, fmt):
    code, out, err = run(["straighten", "--format", fmt, "--graph", "-"], json.dumps(doc))
    assert code == 0 and err == "", (doc, code, err)


@settings(max_examples=30, deadline=None)
@given(st.one_of(repeated_pairs(), neutral_regular_graphs()), st.sampled_from(["text", "json"]))
def test_kempe_repeated_pairs_and_neutral_graphs(doc, fmt):
    code, out, err = run(["kempe", "--format", fmt, "--graph", "-"], json.dumps(doc))
    assert code == 0 and err == "", (doc["n"], len(doc["edges"]), code, err)
