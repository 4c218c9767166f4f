"""Fuzz of the CLI's argv: whatever flags and values a call passes, main
returns 0, 1 or 2, writes no traceback, and writes nothing to standard
output when it exits 2.

Every subcommand is drawn with its own flags and the common ones, in any
order, as --flag value or --flag=value.  Each flag is passed with a good
value, passed with a malformed one (0, negative numbers, x, 1/2, inf,
empty weight lists, points whose decimal exponents pass the int-to-str
digit limit, unknown --type, --format and check names, paths that are not
documents), or left out; now and then an unknown argument joins
them.  Sizes stay small so that the test is quick: n <= 8, at most 8
weights of at most 4, --degree <= 3, and verify-all always with --only on
checks that take milliseconds."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.cli import main

COMMANDS = ["eval", "straighten", "basis", "kempe", "relations", "check-ideal", "degree", "chart", "verify-all"]
CHEAP_CHECKS = [
    "degree-golden-values",
    "degree-scaling-law",
    "counting",
    "quadric-space",
    "odd-power-identification",
    "clump-reduction",
]
GRAPHS = {
    "graph.json": {"n": 4, "edges": [[1, 3], [2, 4], [1, 2], [3, 4]]},
    "matching.json": {"n": 4, "edges": [[1, 3], [2, 4]]},
    "hexagon.json": {"n": 6, "edges": [[1, 4], [2, 5], [3, 6], [1, 2], [3, 4], [5, 6]]},
}
DOCUMENTS = {
    **GRAPHS,
    "config.json": {"affine": [0, 1, 2, "inf"]},
    "semistable.json": {"affine": [0, 0, 1, "inf"]},
    "poly.json": {"n": 6, "terms": [{"coeff": 1, "monomial": [{"n": 6, "edges": [[1, 2], [3, 4], [5, 6]]}]}]},
}


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def csv(elements, min_size, max_size):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


NOT_INTS = st.sampled_from(["x", "1/2", "inf", "", "1.5", "nan", "2e1"])
BAD_N = st.one_of(NOT_INTS, st.sampled_from(["0", "-1", "-3", "1", "3"]))
WEIGHTS = csv(st.integers(1, 4), 1, 8)
BAD_WEIGHTS = st.one_of(
    st.tuples(csv(st.integers(1, 4), 0, 7), st.sampled_from(["0", "-1"])).map(lambda t: ",".join(filter(None, t))),
    st.sampled_from(["", ",", "1,,1", "x", "1/2,1,1,1", "inf", "1.5,1,1,1", "1 1 1 1", "-"]),
)
POINTS = st.sampled_from(["0,1,2,inf", "0,0,1,inf", "0,1,2,3,4,5", "0,0,1,1,2,inf", "0,1e40,-2e-30,inf", "0e99999999,1,2,3"])
BAD_POINTS = st.sampled_from(["0,1", "x", "", "1/0,1,2", "0,1/2,inf,inf", "0,0,0,0",
                              "1e5000,2,3,4", "0,1,-1e-100000000,inf", "0,1,2,3e99999999999999999999"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the documents above, and paths that are not documents."""
    d = tmp_path_factory.mktemp("argv")
    for name, doc in DOCUMENTS.items():
        (d / name).write_text(json.dumps(doc))
    (d / "garbage.json").write_text("{not json")
    names = [*DOCUMENTS, "garbage.json", "missing.json", "report.txt", "no/such/dir.txt"]
    return {name: str(d / name) for name in names} | {"dir": str(d)}


def flags(command, files):
    """(flag, good values, malformed values) of one subcommand and of the
    common --seed and --format; values None for a switch."""

    def path(*names):
        return st.sampled_from([files[name] for name in names])

    bad_path = st.one_of(path("garbage.json", "missing.json", "dir"), st.just(""))
    graph = ("--graph", st.one_of(path(*GRAPHS), st.just("-")), bad_path)
    config = ("--config", path("config.json", "semistable.json"), st.one_of(bad_path, path("poly.json")))
    points = ("--points", POINTS, BAD_POINTS)
    own = {
        "eval": [graph, config, points],
        "straighten": [graph],
        "basis": [("--n", ints(4, 8), BAD_N), ("--weights", WEIGHTS, BAD_WEIGHTS)],
        "kempe": [graph],
        "relations": [
            ("--n", ints(4, 8), BAD_N),
            ("--type", st.sampled_from(["plucker", "simple-binomial", "segre", "odd-power"]),
             st.sampled_from(["quadric", "", "PLUCKER"])),
            ("--exponent", st.sampled_from(["3", "5"]), st.one_of(NOT_INTS, st.sampled_from(["-3", "1", "2", "9"]))),
        ],
        "check-ideal": [
            ("--candidate", st.one_of(st.just("segre"), path("poly.json")), st.one_of(bad_path, path("graph.json"))),
            ("--n", ints(6, 8), BAD_N),
            ("--degree", ints(1, 3), st.one_of(NOT_INTS, st.sampled_from(["-1", "0"]))),
            ("--heavy", None, None),
        ],
        "degree": [("--weights", WEIGHTS, BAD_WEIGHTS), ("--trace", None, None)],
        "chart": [config, points],
        "verify-all": [("--quick", None, None)],
    }[command]
    return own + [
        ("--seed", ints(-5, 5), NOT_INTS),
        ("--format", st.sampled_from(["json", "text"]), st.sampled_from(["xml", "", "JSON"])),
    ]


@st.composite
def invocations(draw, files):
    """The argv of one CLI call."""
    command = draw(st.sampled_from(COMMANDS))
    args = []
    for flag, good, bad in draw(st.permutations(flags(command, files))):
        choice = draw(st.sampled_from(["good"] * 4 + ["malformed", "left out"]))
        if choice == "left out":
            continue
        if good is None:
            args.append([flag])
            continue
        value = draw(good if choice == "good" else bad)
        args.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    if command == "verify-all":
        names = draw(st.lists(st.sampled_from(CHEAP_CHECKS + ["no-such-check"]), min_size=1, max_size=2))
        args.insert(draw(st.integers(0, len(args))), ["--only", *names])
    if not draw(st.integers(0, 3)):  # mostly the report goes to stdout, which exit 2 must leave empty
        out = draw(st.sampled_from([files["report.txt"], files["report.txt"], files["dir"], files["no/such/dir.txt"]]))
        args.insert(draw(st.integers(0, len(args))), ["--out", out])
    if not draw(st.integers(0, 9)):
        args.insert(draw(st.integers(0, len(args))), [draw(st.sampled_from(["--bogus", "extra", "--n", "--full"]))])
    return [command] + [a for arg in args for a in arg]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_argv_exits_0_1_or_2_without_traceback(files, data):
    argv = data.draw(invocations(files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(GRAPHS["matching.json"]))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
