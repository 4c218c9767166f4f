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
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import cli, report
from graphinv.graphs import Graph, graph_to_json
from graphinv.relations import GraphPolynomial, plucker_linear_relations, polynomial_to_json
from graphinv.straightening import GraphCombination, combination_to_json

ROOT = Path(__file__).resolve().parents[1]


def to_json(obj):
    """The JSON value of a library object in a report."""
    to = {Graph: graph_to_json, GraphCombination: combination_to_json, GraphPolynomial: polynomial_to_json}
    return to[type(obj)](obj)


def reference(value, default=None) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=default)


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
    assert report.dumps(value) == reference(value)


def test_writer_on_edge_lists_and_leaf_lists():
    value = {
        "edges": [[1, 2], [3, -4], [], [5]],
        "pairs": [(1, 2), (3, 4)],
        "mixed": [1, [2, 3], {"a": []}, [[]], [{}], "x", None, True, 1.5],
        "leaves": [1, "a", None, False, 2 ** 70],
        "nested": [[[1, 2], [3, 4]], [[5, 6]]],
    }
    assert report.dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    {1: 2},
    {True: [1, 2], False: None},
    {None: {"a": 1}},
    {"outer": {1: {"inner": [[1, 2]]}, 2: []}, "rows": [{3: "x"}, {3: "y"}], "mixed": [{4: 1}, {"a": 1}]},
])
def test_writer_on_keys_that_are_not_str(value):
    assert report.dumps(value) == reference(value)


def nested(depth):
    value = {"leaf": [1, 2]}
    for k in range(depth):
        value = {"child": value, "depth": k}
    return value


def test_writer_on_values_deeper_than_the_column_layout():
    value = nested(600)
    assert report.dumps(value) == reference(value)
    # a dict with a key that is not a str goes to json.dumps, which cannot go this deep
    deep = {"leaf": 1}
    for _ in range(2000):
        deep = {1: deep}
    with pytest.raises(RecursionError):
        report.dumps(deep)


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
    """Record each column of lists and tuples offered to the list layout."""
    lists = report._lists
    seen = []

    def spy(values, indent, memo):
        seen.append(values)
        return lists(values, indent, memo)

    monkeypatch.setattr(report, "_lists", spy)
    return seen


def edge_tuple(rng, n, m):
    return tuple(tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(m))


def offers(batches, column):
    """How often exactly this column was offered to the list layout."""
    return sum(values == list(column) for values in batches)


def test_writer_batches_more_edge_lists_than_one_batch_holds(batches):
    rng = random.Random(3)
    count = 2 * report._BATCH + 5
    value = {"terms": [{"coeff": str(k - 7), "edges": edge_tuple(rng, 12, rng.randint(1, 9))} for k in range(count)]}
    assert report.dumps(value) == reference(value)
    # the list of terms is laid out a piece at a time, so the list layout
    # sees its edge tuples 64 + 64 + 5 at a time (and each batch's pairs)
    assert [len(values) for values in batches if isinstance(values[0][0], tuple)] == [64, 64, 5]


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
    assert report.dumps(value) == reference(value)
    # the odd value is laid out in the one column of the edges at its indent
    assert offers(batches, [t["edges"] for t in terms]) == 1


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
    assert report.dumps(value) == reference(value)
    assert {key: offers(batches, column) for key, column in value.items()} == dict.fromkeys(value, 1)


def test_row_cache_lives_for_one_call(monkeypatch):
    # the texts of graphs used twice are kept per indent for one call only
    edges = report._edges
    memos = []

    def spy(graphs, indent, memo):
        out = edges(graphs, indent, memo)
        memos.append(memo)
        return out

    monkeypatch.setattr(report, "_edges", spy)
    rng = random.Random(11)
    graphs = sorted({Graph(6, sorted(edge_tuple(rng, 6, 3))) for _ in range(60)})
    twice = Graph(6, [(1, 2), (2, 3)])
    refs = [sys.getrefcount(g) for g in graphs]
    value = {"a": [rng.choice(graphs) for _ in range(200)], "b": {"c": [twice, twice]}}
    assert report.dumps(value) == reference(value, default=to_json)
    memo, = {id(m): m for m in memos}.values()
    kept = {ind: sum(text is not None for text in cache.values())
            for (kind, ind), cache in memo.items() if kind == "edges"}
    assert kept == {"      ": sum(value["a"].count(g) > 1 for g in graphs), "        ": 1}
    memos.clear()
    memo = None
    deep = {1: {"leaf": 1}}
    for _ in range(2000):
        deep = {1: deep}
    with pytest.raises(RecursionError):  # json.dumps cannot go this deep
        report.dumps({"a": value["a"], "b": deep})
    memos.clear()
    value = None
    assert [sys.getrefcount(g) for g in graphs] == refs


int_rows = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)
some_rows = st.one_of(int_rows, int_rows, st.lists(st.one_of(st.booleans(), st.integers(0, 2)), max_size=2).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(["edges", "more"]), st.lists(some_rows, max_size=4).map(tuple)), max_size=5))
def test_writer_on_generated_rows(value):
    # small entries and bools, so rows that compare equal recur across one report
    assert report.dumps(value) == reference(value)


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
    assert report.dumps(value) == reference(value)


# Long lists under dicts and one-item lists, lists of long lists, empty
# lists, and rows of ints and of bools: with a batch of 1, 2 or 3 items,
# short lists are long enough to be laid out a piece at a time.
rows = st.one_of(st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(tuple),
                 st.lists(st.booleans(), min_size=1, max_size=2).map(tuple))
piece_values = st.recursive(
    st.one_of(st.integers(-2, 2), st.sampled_from(["", "a", ",\n", None, True]), rows, st.just([])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=1),
        st.lists(inner, max_size=6),
        st.lists(rows, min_size=2, max_size=6).map(tuple),
        st.lists(st.lists(inner, min_size=3, max_size=5), max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    ),
    max_leaves=60,
)


@pytest.mark.parametrize("batch", [1, 2, 3])
@settings(max_examples=200, deadline=None)
@given(piece_values)
def test_pieces_join_to_json_dumps(batch, value):
    with mock.patch.object(report, "_BATCH", batch):
        got = report.pieces(value)
    assert "".join(got) == reference(value)


def test_pieces_past_the_recursion_limit_are_one_walk(monkeypatch):
    # every level holds a list longer than a batch, so the top-down layout
    # recurses down the whole chain, runs out of stack and falls back
    monkeypatch.setattr(report, "_BATCH", 1)
    value = {"leaf": [1, [2, 3], ((1, 2), (3, 4))]}
    for k in range(sys.getrecursionlimit()):
        value = {"child": value, "depth": k, "rows": [(1, 2), (True, False)], "one": [[k, k]]}
    got = report.pieces(value)
    assert got == [report._walk(value, "")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)  # json.dumps recurses once per level
    try:
        want = reference(value)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [want]


def test_pieces_of_a_long_list_hold_one_batch_each():
    relations = [combination_to_json(r) for r in plucker_linear_relations(8)]  # 210 of them
    value = {"outputs": {"count": len(relations), "relations": relations}, "z": [[relations[:2]]]}
    got = report.pieces(value)
    assert "".join(got) == reference(value)
    texts = [report.dumps(r, "      ") for r in relations]
    batches = [",\n      ".join(texts[k:k + report._BATCH]) for k in range(0, len(texts), report._BATCH)]
    assert [p for p in got if p in batches] == batches


def test_writer_peak_on_the_plucker_report():
    # the n=10 plucker report is 4.84 MB; its pieces hold the text once
    # and dumps joins them once, so the writer's Python-level peak is
    # about 2.0 times that, where a join per list copied into each parent's
    # text took 2.25 times, and a join followed by two concatenations per
    # list 3.03 times
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


def test_cli_peak_on_the_plucker_report(tmp_path):
    # written with --out, the report's pieces go to the file one after
    # another: the run's Python-level peak, relations included, is about
    # 1.45 times the report's length now that the report holds the
    # relations themselves; building their JSON values first took 1.88
    # times, and joining the text once per nesting level and adding the
    # newline 3.0 times
    target = tmp_path / "report.json"
    argv = ["relations", "--n", "10", "--type", "plucker", "--format", "json", "--out", str(target)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert size > 4_800_000
    assert peak <= 1.6 * size


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
    report value the writer saw, the join of its pieces and stdout.  A
    report value holds library objects, which ``to_json`` turns into their
    JSON values for the reference."""
    writer = cli._pieces
    seen = []

    def spy(value, indent=""):
        out = writer(value, indent)
        if indent == "":
            seen.append((value, "".join(out)))
        return out

    monkeypatch.setattr(cli, "_pieces", spy)

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
        assert text == reference(value, default=to_json), op.argv
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
    assert text == reference(value, default=to_json)
    assert out == text + "\n"
