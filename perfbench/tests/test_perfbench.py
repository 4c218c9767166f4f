"""Tests of the benchmark itself: inputs, truths, checks and tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
import worker
from checks import Checker
from tracing import FUNCTIONS, Tracer

from graphinv import cli, relations
from graphinv.relations import polynomial_from_json, ring_normal_form


def _key(ops):
    return [(op.kind, op.argv, op.stdin) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _key(workloads.make_ops(workload, 3)) == _key(workloads.make_ops(workload, 3))
    assert _key(workloads.make_ops(workload, 3)) != _key(workloads.make_ops(workload, 4))


def test_straighten_inputs_are_regular_with_their_crossing_counts():
    ops = workloads.make_ops("straighten", 0)
    assert len(ops) == sum(count for *_, count in workloads.STRAIGHTEN_MIX)
    counts = {(n, d): crossings for n, d, crossings, _ in workloads.STRAIGHTEN_MIX}
    for op in ops:
        g = op.truth["graph"]
        degree = [0] * (g["n"] + 1)
        for t, h in g["edges"]:
            degree[t] += 1
            degree[h] += 1
        valence = degree[1]
        assert degree[1:] == [valence] * g["n"]
        assert workloads.crossing_count(g["edges"]) in counts[g["n"], valence]


def test_membership_truths_hold():
    ops = workloads.make_ops("membership", 5)
    assert [op.truth["member"] for op in ops] == [True, True, False]
    for op in ops[1:]:
        cand = polynomial_from_json(json.loads(op.stdin))
        assert cand == op.truth["candidate"]
        # a member is a relation; a non-member is not even that
        assert ring_normal_form(cand).is_zero == op.truth["member"]


def test_degree_truth_follows_the_scaling_law():
    ops = [op for op in workloads.make_ops("relations", 2) if op.kind == "degree"]
    assert len(ops) == len(workloads.GOLDEN_DEGREES)
    for op in ops:
        weights = [int(w) for w in op.argv[-1].split(",")]
        d, n = weights[0], len(weights)
        assert op.truth["degree"] == d ** (n - 3) * workloads.GOLDEN_DEGREES[n]


def _straighten_op():
    doc = {"n": 6, "edges": [[1, 4], [2, 5], [6, 3]]}
    return workloads.Op("straighten", ["straighten", "--graph", "-"], json.dumps(doc), {"graph": doc})


def test_correct_outputs_pass_their_checks():
    ops = [_straighten_op()] + [op for op in workloads.make_ops("relations", 0) if op.kind == "degree"]
    results = worker.run_pass(ops, cli, relations)
    assert worker.check_results(ops, results, Checker(random.Random(0))) == [None] * len(ops)


def test_probes_run_between_ops():
    ops = [_straighten_op(), _straighten_op()]
    probes = []
    results = worker.run_pass(ops, cli, relations, probes=probes)
    assert len(probes) == worker.PROBES_PER_PASS
    assert sum(probes) > 0 and len(results) == 2


def test_corrupted_output_counts_as_failed():
    ops = [_straighten_op(), _straighten_op()]
    results = worker.run_pass(ops, cli, relations)
    report = json.loads(results[1]["output"])
    report["outputs"]["combination"]["terms"][0]["coeff"] += "0"
    results[1]["output"] = json.dumps(report)
    errors = worker.check_results(ops, results, Checker(random.Random(0)))
    assert errors[0] is None and "differs" in errors[1]


def test_failing_and_raising_ops_count_as_failed():
    bad_input = workloads.Op("straighten", ["straighten", "--graph", "-"], '{"n": 4, "edges": [[1, 1]]}',
                             {"graph": {"n": 4, "edges": [[1, 1]]}})

    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    results = worker.run_pass([bad_input], cli, relations)
    raised = worker.run_pass([_straighten_op()], Broken, relations)
    errors = worker.check_results([bad_input, _straighten_op()], results + raised, Checker(random.Random(0)))
    assert errors[0] == "exit code 2"
    assert errors[1].startswith("raised RuntimeError")


def test_tracer_records_layers_and_restores():
    from graphinv import straightening

    original = straightening.crossing_pairs
    doc = {"n": 7, "edges": [[1, 4], [2, 5], [3, 6], [4, 7], [6, 2]]}  # straightened by no other test
    op = workloads.Op("straighten", ["straighten", "--graph", "-"], json.dumps(doc), {"graph": doc})
    tracer = Tracer()
    tracer.install()
    try:
        assert straightening.crossing_pairs is not original
        results = worker.run_pass([op], cli, relations, tracer)
    finally:
        tracer.uninstall()
    assert straightening.crossing_pairs is original
    metrics = tracer.metrics()
    assert not tracer.absent
    for name, _, _ in FUNCTIONS:
        assert f"{name}.calls" in metrics and f"{name}.self_s" in metrics
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["straightening.plucker_exchange.calls"][0] >= 1
    assert metrics["straightening.out_terms"][0] == len(json.loads(results[0]["output"])["outputs"]["combination"]["terms"])
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert total_self <= results[0]["seconds"]


def test_missing_trace_target_is_absent(monkeypatch):
    from graphinv import linalg

    monkeypatch.delattr(linalg, "rank")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "linalg.rank" in tracer.absent
    assert "linalg.rank.calls" not in tracer.metrics()


def test_run_fails_without_the_library(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "straighten", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
