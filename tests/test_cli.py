import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import graphinv
from graphinv.cli import _build_parser, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The directory holding the imported package, so that a child interpreter
# runs the same checkout as the in-process tests.
PACKAGE_ROOT = str(Path(graphinv.__file__).resolve().parents[1])
CHILD_TIMEOUT_S = 120


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, n, edges):
    p = tmp_path / name
    p.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
    return str(p)


def test_degree_plain(capsys):
    code, out, err = run(capsys, "degree", "--weights", "1,1,1,1,1,1,1,1")
    assert code == 0 and err == ""
    assert out == "40\n"


def test_degree_boundary_note(capsys):
    code, out, _ = run(capsys, "degree", "--weights", "2,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert "boundary" in lines[1]


def test_degree_trace(capsys):
    code, out, _ = run(capsys, "degree", "--weights", "1,1,1,1,1,1", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3"
    assert any("multigraph" in s for s in lines)


def test_degree_long_pair_reduction_run(capsys):
    code, out, err = run(capsys, "degree", "--weights", "1000,1000,1,1")
    assert (code, out, err) == (0, "1\n", "")


def loads_deep(text):
    """json.loads under a recursion limit raised for a report nested a few
    thousand levels deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        return json.loads(text)
    finally:
        sys.setrecursionlimit(limit)


DEEP_JSON_TRACE = """
import contextlib, io, json, sys
from graphinv.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["degree", "--weights", "1000,1000,1,1", "--trace", "--format", "json"])
text = out.getvalue()
sys.setrecursionlimit(20_000)
report = json.loads(text)
print(code, text == json.dumps(report, indent=2, sort_keys=True) + "\\n", report["outputs"]["degree"])
"""


def test_degree_json_trace_of_a_long_pair_reduction_run():
    # The trace is a chain of dicts a thousand deep; the report matches
    # json.dumps, which needs a raised recursion limit here.
    proc = run_child("-c", DEEP_JSON_TRACE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0 True 1\n"


@pytest.mark.parametrize("weights", ["450,450,1,1", "2000,2000,1,1"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_degree_deep_trace_leaves_no_traceback(weights, fmt):
    # The tree is as deep as the run of pair reductions: laid out, or an
    # error line where even json.dumps cannot go that deep.
    proc = run_child("-m", "graphinv", "degree", "--weights", weights, "--trace", "--format", fmt)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert proc.stdout.endswith("1\n") if fmt == "text" else loads_deep(proc.stdout)["outputs"]["degree"] == 1
    else:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")


SHALLOW_STACK_DEGREE = """
import sys
sys.setrecursionlimit(100)
from graphinv.cli import main
sys.exit(main(["degree", "--weights", ",".join(["1"] * 120)]))
"""


def test_degree_too_deep_for_the_stack_exits_2():
    # The computation recurses once per merge, so 120 unit weights under a
    # limit of 100 frames stand in for about 1,200 under the default one.
    proc = run_child("-c", SHALLOW_STACK_DEGREE)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the degree computation is nested too deeply\n"


def test_degree_odd_total_exits_2(capsys):
    code, out, err = run(capsys, "degree", "--weights", "1,1,1")
    assert code == 2 and out == ""
    assert err.startswith("error: OddTotalWeight:")
    assert "double" in err


def test_degree_json_shape_and_determinism(capsys):
    reports = []
    for _ in range(2):
        code, out, _ = run(capsys, "degree", "--weights", "2,1,1", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"command", "inputs", "outputs", "checks", "seed", "timing_ms"}
        rep.pop("timing_ms")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]
    rep = json.loads(reports[0])
    assert rep["outputs"] == {"degree": 1, "boundary": True}
    assert rep["command"] == "degree" and rep["seed"] == 0


def test_relations_counts(capsys):
    code, out, _ = run(capsys, "relations", "--n", "8", "--type", "simple-binomial")
    assert code == 0 and len(out.splitlines()) == 35
    code, out, _ = run(capsys, "relations", "--n", "4", "--type", "plucker")
    assert code == 0 and len(out.splitlines()) == 1
    code, out, _ = run(capsys, "relations", "--n", "6", "--type", "segre", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["count"] == 1
    assert len(rep["outputs"]["relations"][0]["terms"]) == 6


def test_relations_bad_exponent(capsys):
    code, _, err = run(capsys, "relations", "--n", "6", "--type", "odd-power", "--exponent", "4")
    assert code == 2
    assert err.startswith("error: BadExponent:")


@pytest.mark.parametrize("n", ["0", "-1", "-2"])
@pytest.mark.parametrize("command", [
    ["relations", "--type", "plucker"],
    ["relations", "--type", "odd-power"],
    ["basis"],
    ["basis", "--weights", "1,1"],
    ["check-ideal", "--candidate", "segre"],
])
def test_vertex_count_must_be_positive(capsys, command, n):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *command, "--n", n, "--format", fmt)
        assert code == 2 and out == ""
        assert err == f"error: --n must be a positive vertex count, got {n}\n"


def test_basis_default_weights(capsys):
    code, out, _ = run(capsys, "basis", "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "(1-2)(3-4)(5-6)"


def test_basis_weight_mismatch(capsys):
    code, _, err = run(capsys, "basis", "--n", "4", "--weights", "1,1,1")
    assert code == 2 and "weights" in err


def test_eval_from_file_and_points(capsys, tmp_path):
    gpath = write_graph(tmp_path, "g.json", 4, [(1, 3), (2, 4)])
    code, out, _ = run(capsys, "eval", "--graph", gpath, "--points", "0,1,2,3")
    assert code == 0 and out == "4\n"


def test_eval_graph_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 4, "edges": [[1, 2], [3, 4]]}'))
    code, out, _ = run(capsys, "eval", "--graph", "-", "--points", "0,1,2,5")
    assert code == 0 and out == "3\n"


def test_straighten(capsys, tmp_path):
    gpath = write_graph(tmp_path, "x.json", 4, [(1, 3), (2, 4)])
    code, out, _ = run(capsys, "straighten", "--graph", gpath)
    assert code == 0
    assert out.splitlines() == ["+1 (1-2)(3-4)", "+1 (1-4)(2-3)"]


def test_kempe(capsys, tmp_path):
    gpath = write_graph(tmp_path, "c4.json", 4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    code, out, _ = run(capsys, "kempe", "--graph", gpath, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    prods = rep["outputs"]["products"]
    assert len(prods) == 2
    assert all(len(p["factors"]) == 2 for p in prods)


def test_check_ideal_segre6(capsys):
    code, out, _ = run(capsys, "check-ideal", "--candidate", "segre", "--n", "6")
    assert code == 0
    assert out == "not a member\n"


def test_check_ideal_segre8(capsys):
    code, out, _ = run(capsys, "check-ideal", "--candidate", "segre", "--n", "8", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["member"] is True
    assert len(rep["outputs"]["certificate"]) > 0


def test_check_ideal_needs_heavy_flag(capsys):
    code, _, err = run(capsys, "check-ideal", "--candidate", "segre", "--n", "10")
    assert code == 2 and "--heavy" in err


def test_chart_text_and_exit(capsys):
    code, out, _ = run(capsys, "chart", "--points", "0,0,1,inf")
    assert code == 0
    assert "verified: True" in out
    code, _, err = run(capsys, "chart", "--points", "0,1,0,2")
    assert code == 2 and err.startswith("error: NotInChart:")


def test_chart_json_entries(capsys):
    code, out, _ = run(capsys, "chart", "--points", "0,1,2,inf", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["verified"] is True
    assert rep["outputs"]["entries"] == {"2,3": "ok"}
    assert rep["outputs"]["chart"]["W"] == [["1/2"]]
    assert [c["name"] for c in rep["checks"]] == ["rank-at-most-1", "z-identity"]


def test_verify_all_only(capsys):
    code, out, _ = run(capsys, "verify-all", "--only", "counting")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "passed 1/1"
    assert lines[0].startswith("[PASS] counting")


@pytest.mark.parametrize("tier", [[], ["--quick"], ["--full"]])
def test_verify_all_only_without_names_is_usage_error(capsys, tier):
    # --only with no names once ran every check of the tier
    code, out, err = run(capsys, "verify-all", *tier, "--only")
    assert code == 2 and out == ""
    assert "--only" in err and "Traceback" not in err


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify-all", "--quick")
    assert code == 0
    assert out.splitlines()[-1] == "passed 7/7"


VERIFY_ALL_SEED_0_JSON = """{
  "checks": [
    {
      "details": "14 golden degrees",
      "name": "degree-golden-values",
      "passed": true
    },
    {
      "details": "d^(n-3) scaling at d=2,3 (n=6) and d=2 (n=8)",
      "name": "degree-scaling-law",
      "passed": true
    },
    {
      "details": "Catalan 2,5,14,42,132 and Riordan 91",
      "name": "counting",
      "passed": true
    },
    {
      "details": "dim 14 (n=8), dim 0 (n=6), binomials span rank 14",
      "name": "quadric-space",
      "passed": true
    },
    {
      "details": "member at n=8 (certificate 84 terms), non-member at n=6",
      "name": "segre-membership",
      "passed": true
    },
    {
      "details": "200 straightenings, 100 kempe decompositions, relation batches, 3 full-rank basis matrices",
      "name": "oracle-property-suites",
      "passed": true
    },
    {
      "details": "odd-power(6,3) = 288 * segre_cubic(6) after reduction",
      "name": "odd-power-identification",
      "passed": true
    },
    {
      "details": "100 verified charts, zero matrix at the limit, ratios independent of the matching",
      "name": "chart-identities",
      "passed": true
    },
    {
      "details": "unique non-crossing lifts for (2,1,1,1,1) and (2,2,1,1); clumped binomials stay relations",
      "name": "clump-reduction",
      "passed": true
    }
  ],
  "command": "verify-all",
  "inputs": {
    "tier": "full"
  },
  "outputs": {
    "passed": 9,
    "total": 9
  },
  "seed": 0
}
"""

VERIFY_ALL_SEED_0_TEXT = """\
[PASS] degree-golden-values (Xs) 14 golden degrees
[PASS] degree-scaling-law (Xs) d^(n-3) scaling at d=2,3 (n=6) and d=2 (n=8)
[PASS] counting (Xs) Catalan 2,5,14,42,132 and Riordan 91
[PASS] quadric-space (Xs) dim 14 (n=8), dim 0 (n=6), binomials span rank 14
[PASS] segre-membership (Xs) member at n=8 (certificate 84 terms), non-member at n=6
[PASS] oracle-property-suites (Xs) 200 straightenings, 100 kempe decompositions, relation batches, 3 full-rank basis matrices
[PASS] odd-power-identification (Xs) odd-power(6,3) = 288 * segre_cubic(6) after reduction
[PASS] chart-identities (Xs) 100 verified charts, zero matrix at the limit, ratios independent of the matching
[PASS] clump-reduction (Xs) unique non-crossing lifts for (2,1,1,1,1) and (2,2,1,1); clumped binomials stay relations
passed 9/9
"""


def test_verify_all_full_reports_are_pinned(capsys):
    # byte for byte, apart from the timing_ms line and the per-check seconds
    code, out, err = run(capsys, "verify-all", "--full", "--seed", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert re.sub(r',\n  "timing_ms": \d+', "", out) == VERIFY_ALL_SEED_0_JSON
    code, out, err = run(capsys, "verify-all", "--full", "--seed", "0")
    assert (code, err) == (0, "")
    assert re.sub(r"\(\d+\.\d\ds\)", "(Xs)", out) == VERIFY_ALL_SEED_0_TEXT


OVER_LONG_POINTS = ["1e5000,2,3,4", "0,1,2,-1e-100000000", "1,2,3,4e99999999999999999999", "1/2,1e4300,3,inf"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("points", OVER_LONG_POINTS)
def test_over_long_coordinate_exits_2(capsys, tmp_path, fmt, points):
    gpath = write_graph(tmp_path, "g.json", 4, [(1, 3), (2, 4)])
    for argv in (["eval", "--graph", gpath], ["chart"]):
        code, out, err = run(capsys, *argv, "--points", points, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: MalformedInput:") and "digits" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_over_long_value_exits_2(capsys, monkeypatch, tmp_path, fmt):
    # each coordinate fits the int-to-str limit; the product of six
    # brackets does not, nor does an integer in the configuration document
    gpath = write_graph(tmp_path, "g.json", 8, [(1, 2), (3, 4), (5, 6), (7, 8), (1, 3), (2, 4)])
    big = "9" * 1500
    code, out, err = run(capsys, "eval", "--graph", gpath, "--points", f"{big},-{big},1{big},2,3,4,5,6", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: a number in the eval input or result has more decimal digits")
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"affine": [0, 1, 2, ' + "7" * 5000 + "]}"))
    code, out, err = run(capsys, "eval", "--graph", gpath, "--config", "-", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: a number in the eval input or result") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_over_long_report_exits_2(capsys, monkeypatch, fmt):
    from graphinv import cli

    huge = 10 ** sys.get_int_max_str_digits()

    def handler(args):
        return {}, {"degree": huge}, [], lambda: [str(huge)], 0

    monkeypatch.setitem(cli._HANDLERS, "degree", handler)
    code, out, err = run(capsys, "degree", "--weights", "1,1,1,1", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: a number in the degree report has more decimal digits than the interpreter's int-to-str limit\n"


def test_non_limit_value_errors_still_raise(monkeypatch):
    from graphinv import cli

    def handler(args):
        raise ValueError("a programming error")

    monkeypatch.setitem(cli._HANDLERS, "degree", handler)
    with pytest.raises(ValueError, match="a programming error"):
        main(["degree", "--weights", "1,1,1,1"])


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "degree", "--weights", "3,3,3,3", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["outputs"]["degree"] == 3


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "usage" in err


REUSE_ARGV = [
    ["degree"],  # usage error: --weights is required
    ["--help"],
    ["straighten", "--help"],
    ["degree", "--weights", "2,2,2,2,2", "--format", "json"],
    ["degree", "--weights", "3,3,3,3", "--trace"],
    ["basis", "--n", "6"],
    ["basis", "--n", "6", "--format", "json"],
    ["relations", "--n", "6", "--type", "segre", "--format", "json"],
    ["chart", "--points", "0,1,2,inf", "--format", "json"],
    ["chart", "--points", "0,1,2,inf"],
    ["nonsense"],
]


def test_one_parser_serves_every_call(capsys):
    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, re.sub(r'"timing_ms": \d+', '"timing_ms": 0', captured.out), captured.err

    _build_parser.cache_clear()
    reused = [outcome(argv) for argv in REUSE_ARGV]
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]
    for argv, seen in zip(REUSE_ARGV, reused):
        _build_parser.cache_clear()
        assert outcome(argv) == seen, argv


def declared_script(name):
    """The ``module:function`` target of ``name`` in ``[project.scripts]``."""
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"][name]
    # Python 3.10 has no TOML parser; that one table holds only `key = "value"` lines.
    scripts = {}
    in_table = False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[key] = value
    return scripts[name]


def run_child(*args, stdin=None):
    """Run ``sys.executable *args`` on the imported checkout of graphinv."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT_S,
    )


def test_console_script():
    # Run the declared entry point the way a generated console-script wrapper does.
    module, _, func = declared_script("graphinv").partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func.split('.')[0]}\n"
        "sys.argv[0] = 'graphinv'\n"
        f"sys.exit({func}())\n"
    )
    proc = run_child("-c", wrapper, "degree", "--weights", "2,2,2,2,2")
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


@pytest.mark.skipif(shutil.which("graphinv") is None, reason="no installed graphinv executable on PATH")
def test_installed_console_script():
    proc = subprocess.run(
        ["graphinv", "degree", "--weights", "2,2,2,2,2"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_python_m_graphinv():
    proc = run_child("-m", "graphinv", "degree", "--weights", "2,2,2,2,2")
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_basis_json_round_trips_into_eval(capsys, tmp_path):
    code, out, _ = run(capsys, "basis", "--n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    g = rep["outputs"]["graphs"][0]
    gpath = tmp_path / "b.json"
    gpath.write_text(json.dumps(g))
    code, out, _ = run(capsys, "eval", "--graph", str(gpath), "--points", "0,1,2,3")
    assert code == 0 and out == "1\n"


MALFORMED_GRAPHS = [
    '{"n": 4}',  # no "edges"
    '{"edges": [[1, 2]]}',  # no "n"
    '[[1, 3], [2, 4]]',  # not an object
    '"graph"',
    '{"n": 4, "edges": [[1]]}',  # an edge that is not a pair
    '{"n": 4, "edges": [[1, 2, 3]]}',
    '{"n": 4, "edges": [1, 2]}',
    '{"n": 4, "edges": {"1": 2}}',
    '{"n": "x", "edges": []}',  # non-integer entries
    '{"n": 4, "edges": [[1, "a"]]}',
    '{"n": 4.5, "edges": [[1, 2]]}',
    '{"n": 4, "edges": [[1, null]]}',
    '{"n": 4, "edges": [[true, 2]]}',
    '{"n": 4, "edges": [[1, 9]]}',  # out of range
    '{"n": 0, "edges": []}',
    '{"n": 4, "edges": [[2, 2]]}',  # a loop
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-past-the-recursion-limit"),
    pytest.param(b"\xff\xfe{", id="not-utf-8"),
]


@pytest.mark.parametrize("doc", MALFORMED_GRAPHS)
@pytest.mark.parametrize("command", ["straighten", "eval", "kempe"])
def test_malformed_graph_exits_2(capsys, monkeypatch, tmp_path, command, doc):
    data = doc if isinstance(doc, bytes) else doc.encode()
    path = tmp_path / "graph.json"
    path.write_bytes(data)
    extra = ["--points", "0,1,2,3"] if command == "eval" else []
    for source in ("-", str(path)):
        # standard input as a UTF-8 locale gives it: strict decoding
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run(capsys, command, "--graph", source, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


MX_8 = '{"n": 8, "edges": [[1, 2], [3, 4], [5, 6], [7, 8]]}'
MALFORMED_CANDIDATES = [
    '[1]',  # not an object
    '"segre"',
    '{"n": 8}',  # no "terms"
    '{"terms": []}',  # no "n"
    '{"n": "8", "terms": []}',  # non-integer n
    '{"n": 8.0, "terms": []}',
    '{"n": true, "terms": []}',
    '{"n": 8, "terms": {}}',  # non-list terms
    '{"n": 8, "terms": [1]}',  # a term that is not an object
    '{"n": 8, "terms": [{"coeff": "1"}]}',  # no "monomial"
    '{"n": 8, "terms": [{"monomial": [%s]}]}' % MX_8,  # no "coeff"
    '{"n": 8, "terms": [{"coeff": "1", "monomial": 5}]}',
    '{"n": 8, "terms": [{"coeff": "x", "monomial": [%s]}]}' % MX_8,  # not a rational literal
    '{"n": 8, "terms": [{"coeff": "1/0", "monomial": [%s]}]}' % MX_8,
    '{"n": 8, "terms": [{"coeff": null, "monomial": [%s]}]}' % MX_8,
    '{"n": 8, "terms": [{"coeff": [1], "monomial": [%s]}]}' % MX_8,
    '{"n": 8, "terms": [{"coeff": true, "monomial": [%s]}]}' % MX_8,
    '{"n": 8, "terms": [{"coeff": "1", "monomial": [{"n": 8}]}]}',  # a malformed factor
]


@pytest.mark.parametrize("doc", MALFORMED_CANDIDATES)
def test_malformed_candidate_exits_2(capsys, monkeypatch, doc):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run(capsys, "check-ideal", "--candidate", "-", "--n", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput:") and "Traceback" not in err


def test_zero_candidate_needs_a_degree(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 8, "terms": []}'))
    code, out, err = run(capsys, "check-ideal", "--candidate", "-", "--n", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--degree" in err and "Traceback" not in err
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 8, "terms": []}'))
    code, out, err = run(capsys, "check-ideal", "--candidate", "-", "--n", "8", "--degree", "3")
    assert code == 0 and out.startswith("member")


BAD_POINTS = ["0,1,1/0", "0,1,abc,3", "0,1,2,", "0,1,nan,3", "0,1,1/2/3,4"]


@pytest.mark.parametrize("points", BAD_POINTS)
def test_bad_points_exit_2(capsys, tmp_path, points):
    gpath = write_graph(tmp_path, "g.json", 4, [(1, 3), (2, 4)])
    for argv in (["eval", "--graph", gpath], ["chart"]):
        code, out, err = run(capsys, *argv, "--points", points)
        assert code == 2 and out == ""
        assert err.startswith("error: MalformedInput:") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    ['[["0", "1"]]', '{"points": [["0"]]}', '{"points": [["1", "0"], ["0", "0"]]}',
     '{"points": [["1/0", "1"]]}', '{"affine": "0,1"}', '{"other": []}'],
)
def test_malformed_configuration_exits_2(capsys, monkeypatch, doc):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run(capsys, "chart", "--config", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput:") and "Traceback" not in err


def test_malformed_input_in_a_child_has_no_traceback(tmp_path):
    bad = '{"n": 4, "edges": [[1, 9]]}'
    good = '{"n": 4, "edges": [[1, 3], [2, 4]]}'
    unwritable = str(tmp_path / "missing" / "report.json")
    for args, stdin in (
        (["straighten", "--graph", "-"], bad),
        (["chart", "--points", "0,1,1/0"], bad),
        (["straighten", "--graph", "-", "--out", unwritable], good),
        (["straighten", "--graph", "-", "--format", "json", "--out", str(tmp_path)], good),
    ):
        proc = run_child("-m", "graphinv", *args, stdin=stdin)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_negative_degree_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 8, "terms": []}'))
    code, out, err = run(capsys, "check-ideal", "--candidate", "-", "--n", "8", "--degree", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: DegreeMismatch:") and "Traceback" not in err


def test_zero_term_on_the_wrong_vertex_count_exits_2(capsys, monkeypatch):
    # the constructor skips a zero term, so the boundary must check its factors
    doc = '{"n": 8, "terms": [{"coeff": "0", "monomial": [{"n": 6, "edges": [[1, 2], [3, 4], [5, 6]]}]}]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run(capsys, "check-ideal", "--candidate", "-", "--n", "8", "--degree", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: VertexCountMismatch:") and "Traceback" not in err


def test_degree_text_trace_of_a_long_pair_reduction_run():
    # The run of 999 pair reductions is rendered in a loop, one level of
    # indent per reduction, down to the balanced quadruple.
    proc = run_child("-m", "graphinv", "degree", "--weights", "1000,1000,1,1", "--trace", "--format", "text")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1001
    for i, line in enumerate(lines[:999]):
        w = 1000 - i
        assert line == f"{'  ' * i}({w}, {w}, 1, 1) drop 1 from the pair ({w},{w}) = 1"
    assert lines[999:] == ["  " * 999 + "(1, 1, 1, 1) balanced quadruple = 1", "1"]
