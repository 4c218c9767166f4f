"""The CLI's JSON report writer against ``json.dumps(v, indent=2, sort_keys=True)``.

The reference is the standard library call the writer replaced; the
writer must reproduce it byte for byte, on generated values and on every
report the benchmark's ops and the remaining subcommands produce.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import cli, report
from graphinv.relations import plucker_linear_relations
from graphinv.straightening import combination_to_json

ROOT = Path(__file__).resolve().parents[1]


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


# Text that json escapes or that looks like the layout itself.
TRICKY = ['"', "\\", ", ", ",\n", ": ", "[", "]", "{", "}", "[]", "{}", "\x00", "\x1f", "\x7f", "\t\r\n",
          "é", " ", "﻿", "\U0001f600", "\ud800", "null", "true", "0"]
strings = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(TRICKY), max_size=4).map("".join),
    st.sampled_from(TRICKY),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    strings,
)


def json_values(depth: int):
    """Values nested at most ``depth`` containers deep, empty ones included;
    lists mix leaves and containers, and some are tuples."""
    if depth == 0:
        return leaves
    children = json_values(depth - 1)
    return st.one_of(
        leaves,
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    )


@settings(max_examples=400, deadline=None)
@given(json_values(6))
def test_writer_matches_json_dumps(value):
    assert cli._dumps(value) == reference(value)


def test_writer_on_edge_lists_and_leaf_lists():
    value = {
        "edges": [[1, 2], [3, -4], [], [5]],
        "pairs": [(1, 2), (3, 4)],
        "mixed": [1, [2, 3], {"a": []}, [[]], [{}], "x", None, True, 1.5],
        "leaves": [1, "a", None, False, 2 ** 70],
        "nested": [[[1, 2], [3, 4]], [[5, 6]]],
    }
    assert cli._dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    {1: 2},
    {True: [1, 2], False: None},
    {None: {"a": 1}},
    {"outer": {1: {"inner": [[1, 2]]}, 2: []}, "rows": [{3: "x"}, {3: "y"}], "mixed": [{4: 1}, {"a": 1}]},
])
def test_writer_on_keys_that_are_not_str(value):
    assert cli._dumps(value) == reference(value)


def nested(depth):
    value = {"leaf": [1, 2]}
    for k in range(depth):
        value = {"child": value, "depth": k}
    return value


def test_writer_on_values_deeper_than_the_column_layout():
    value = nested(600)
    assert cli._dumps(value) == reference(value)
    # a dict with a key that is not a str goes to json.dumps, which cannot go this deep
    deep = {"leaf": 1}
    for _ in range(2000):
        deep = {1: deep}
    with pytest.raises(RecursionError):
        cli._dumps(deep)


DEEPER_THAN_JSON_DUMPS = """
import json, sys
from graphinv.report import dumps
chain = {'leaf': [1, 2]}
for k in range(2000):
    chain = {'child': chain, 'depth': k, 'pair': [k, 1], 'z': {}}
lists = [1]
for _ in range(2000):
    lists = [lists, (2,)]
value = {'inputs': {'x': 1}, 'outputs': {'trace': chain, 'lists': lists}}
text = dumps(value)
sys.setrecursionlimit(30000)
print(text == json.dumps(value, indent=2, sort_keys=True), len(text))
"""


def test_writer_on_values_deeper_than_json_dumps_goes():
    # json.dumps goes this deep only under a raised recursion limit,
    # which is set in a child process so that it stays there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", DEEPER_THAN_JSON_DUMPS], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    same, size = proc.stdout.split()
    assert same == "True" and int(size) > 10 ** 7


@settings(max_examples=300, deadline=None)
@given(json_values(6), st.sampled_from(["", "  ", "      "]))
def test_deep_layout_matches_json_dumps(value, indent):
    # the layout dumps falls back on, taken on values of any depth
    assert report._walk(value, indent) == report.dumps(value, indent)
    assert report._walk(value, "") == reference(value)


@pytest.fixture
def batches(monkeypatch):
    """Record each column of lists and tuples offered to the row path, with
    whether it took it (True) or fell back to the generic walk (False)."""
    rows = report._rows
    seen = []

    def spy(values, indent):
        out = rows(values, indent)
        seen.append((values, out is not None))
        return out

    monkeypatch.setattr(report, "_rows", spy)
    return seen


def edge_tuple(rng, n, m):
    return tuple(tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(m))


def verdicts(batches, column):
    """Whether each offer of exactly this column took the row path."""
    return [taken for values, taken in batches if values == list(column)]


def test_writer_batches_more_edge_lists_than_one_batch_holds(batches):
    rng = random.Random(3)
    count = 2 * report._BATCH + 5
    value = {"terms": [{"coeff": str(k - 7), "edges": edge_tuple(rng, 12, rng.randint(1, 9))} for k in range(count)]}
    assert cli._dumps(value) == reference(value)
    # the list of terms, then 64 + 64 + 5 edge tuples
    assert [(len(values), taken) for values, taken in batches] == [(1, False), (64, True), (64, True), (5, True)]


class Edge(NamedTuple):
    tail: int
    head: int


@pytest.mark.parametrize("odd", [
    (((1, 2),), ((3, 4),)),  # three deep
    ((1, "2"),),  # a row holding a string
    ((True, 2),),  # a row holding a bool
    ((1, 2.0),),  # a row holding a float
    ((1, 2), Edge(3, 4)),  # a NamedTuple row
    ((1, 2), [3, 4]),  # a list row
    ((1, 2), {}),
    ((1, 2), ()),  # an empty row
    ((1, 2), ({"a": 1},)),
    [(1, 2)],  # a list of rows
    ((1, 2), 3),
    (1, 2),  # scalars, not rows
])
def test_writer_falls_back_inside_one_indent_group(batches, odd):
    rng = random.Random(5)
    terms = [{"coeff": "1", "edges": edge_tuple(rng, 8, 4)} for _ in range(5)]
    terms.insert(2, {"coeff": "-1", "edges": odd})
    value = {"outputs": {"terms": terms}, "odd": [odd, ((1, 2),)]}
    assert cli._dumps(value) == reference(value)
    assert verdicts(batches, [t["edges"] for t in terms]) == [False]


def test_writer_on_tuple_rows_and_special_scalars(batches):
    specials = [True, False, None, float("nan"), float("inf"), float("-inf"), 1e300, -0.0]
    value = {
        # rows of length 1, 2 and 3, huge and negative entries
        "ints": [((1, 2), (2 ** 70, -3)), ((-(2 ** 70), 0), (1, 2)), ((5,), (1, 2, 3), (-1,))],
        # (True, 2) == (1, 2): the row of 1 is cached at this indent first
        "mixed": [((1, 2),), ((True, 2), (1, 2)), ((1, 2), (False, 0))],
        "named": [((1, 2),), (Edge(1, 2),)],
        "empty": [((1, 2),), ((),)],
        "special": [((x, x),) for x in specials],
        "lists": [[(1, 2)], [(3, 4), (1, 2)]],
    }
    assert cli._dumps(value) == reference(value)
    assert {key: verdicts(batches, column) for key, column in value.items()} == {
        "ints": [True], "mixed": [False], "named": [False], "empty": [False], "special": [False], "lists": [False],
    }


def test_row_cache_lives_for_one_call(monkeypatch):
    rows = report._rows
    sizes = []

    def spy(values, indent):
        out = rows(values, indent)
        sizes.append(sum(map(len, report._ROWS.values())))
        return out

    monkeypatch.setattr(report, "_rows", spy)
    rng = random.Random(11)
    value = {"a": [edge_tuple(rng, 6, 5) for _ in range(200)], "b": {"c": [((1, 2), (2, 3))]}}
    assert cli._dumps(value) == reference(value)
    distinct = {row for edges in value["a"] for row in edges}
    assert max(sizes) == len(distinct) + 2  # (1, 2) and (2, 3) once more, one indent deeper
    assert report._ROWS == {}
    deep = {1: {"leaf": 1}}
    for _ in range(2000):
        deep = {1: deep}
    with pytest.raises(RecursionError):  # json.dumps cannot go this deep
        cli._dumps({"a": [((1, 2),)], "b": deep})
    assert report._ROWS == {}


int_rows = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)
some_rows = st.one_of(int_rows, int_rows, st.lists(st.one_of(st.booleans(), st.integers(0, 2)), max_size=2).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(["edges", "more"]), st.lists(some_rows, max_size=4).map(tuple)), max_size=5))
def test_writer_on_generated_rows(value):
    # small entries and bools, so rows that compare equal recur across one report
    assert cli._dumps(value) == reference(value)


# Lists that are empty, hold one item or several, side by side in one
# column and nested: each list's head and tail are folded into its first
# and last item, which for a one-item list is the same item.
short_lists = st.recursive(
    st.one_of(st.integers(-2, 2), st.sampled_from(["", "a", ",\n", None, True])),
    lambda inner: st.one_of(
        st.just([]),
        st.lists(inner, min_size=1, max_size=1),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(short_lists, max_size=6))
def test_writer_on_empty_and_one_item_lists_side_by_side(value):
    assert cli._dumps(value) == reference(value)


def test_writer_peak_on_the_plucker_report():
    # the n=10 plucker report is 4.84 MB; joining each list once and
    # dropping its item texts as they are consumed keeps the writer's
    # Python-level peak at about 2.25 times that, where a join followed by
    # two concatenations per list took 3.03 times
    relations = [combination_to_json(r) for r in plucker_linear_relations(10)]
    value = {"command": "relations", "outputs": {"count": len(relations), "relations": relations}, "seed": 0}
    tracemalloc.start()
    try:
        text = report.dumps(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 4_800_000
    assert peak <= 2.5 * len(text)
    assert text == reference(value)


def test_out_file_and_stdout_are_the_same_bytes(capsys, tmp_path):
    argv = ["relations", "--type", "plucker", "--n", "8", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    got = target.read_bytes()
    assert json.loads(got)["outputs"]["count"] == 210  # C(8,4) quadruples times 3!! matchings of the rest
    assert re.sub(rb'"timing_ms": \d+', b"", got) == re.sub(rb'"timing_ms": \d+', b"", out.encode())


@pytest.fixture
def reports(monkeypatch):
    """Run argv through ``cli.main`` with ``--format json``; returns each
    report value the writer saw, its output and stdout."""
    writer = cli._dumps
    seen = []

    def spy(value, indent=""):
        text = writer(value, indent)
        if indent == "":
            seen.append((value, text))
        return text

    monkeypatch.setattr(cli, "_dumps", spy)

    def run(argv, stdin=None):
        seen.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--format", "json"])
        assert len(seen) == 1, argv
        (value, text), = seen
        return code, value, text, out.getvalue()

    return run


@pytest.mark.parametrize("workload", ["straighten", "membership", "relations"])
def test_every_benchmark_report_matches_json_dumps(reports, workload):
    # The relations ops include verify-all --full.
    ops = [op for op in load_workloads().make_ops(workload, 7) if op.argv is not None]
    assert ops
    for op in ops:
        code, value, text, out = reports(op.argv, op.stdin)
        assert code == 0, op.argv
        assert text == reference(value), op.argv
        assert out == text + "\n"


G6 = '{"n": 6, "edges": [[1, 4], [2, 5], [3, 6], [1, 2], [3, 4], [5, 6]]}'


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["chart", "--points", "0,1,2,3,5,inf"], None),
        (["chart", "--points", "0,0,1,inf"], None),  # a failing chart: exit 1
        (["kempe", "--graph", "-"], G6),
        (["eval", "--graph", "-", "--points", "0,1,2,3,5,inf"], G6),
        (["degree", "--weights", "1,1,1,1,1,1,1,1", "--trace"], None),
        (["degree", "--weights", "3,3,3,3", "--trace"], None),
    ],
)
def test_other_reports_match_json_dumps(reports, argv, stdin):
    code, value, text, out = reports(argv, stdin)
    assert code in (0, 1)
    assert text == reference(value)
    assert out == text + "\n"
