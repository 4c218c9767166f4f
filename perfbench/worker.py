"""One benchmark pass in a fresh interpreter: import the library, generate
the pass's inputs, run every op in order, then check every output.

    python3 perfbench/worker.py --workload NAME --seed N [--trace FILE]

Prints one JSON object as its last line of standard output.  With
``--trace`` the ops run under the tracer, the per-layer metrics are added
and the spans are written to FILE.  run.py starts this; it is not meant to
be run by hand except when debugging a workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_LOOPS = 20_000  # about 2 ms
PROBES_PER_PASS = 24


def run_op(op, cli, relations):
    """Run one op as a user would: CLI ops through ``cli.main`` with the
    input on stdin and the JSON report captured from stdout."""
    if op.kind == "quadric-space":
        return 0, relations.quadric_relation_space(op.truth["n"])
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv + ["--format", "json"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def probe() -> float:
    """Seconds for a fixed integer loop: the host's speed at that moment.
    The loop allocates nothing the collector tracks, so no state the
    library leaves behind can change its time."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def run_pass(ops, cli, relations, tracer=None, probes=None):
    """Time every op; a raising op is recorded as failed, not aborted.
    With a ``probes`` list, PROBES_PER_PASS untimed probes run spread
    evenly between the ops, and their times are appended to it."""
    results = []
    n = len(ops)
    for i, op in enumerate(ops):
        if probes is not None:
            probes.extend(probe() for _ in range((i + 1) * PROBES_PER_PASS // n - i * PROBES_PER_PASS // n))
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            code, output = run_op(op, cli, relations)
            error = None
        except Exception as exc:  # a crash is a failed op
            code, output = None, None
            error = "raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
        results.append({"seconds": time.perf_counter() - t0, "code": code, "output": output, "error": error})
    if tracer is not None:
        tracer.op = -1
    return results


def check_results(ops, results, checker) -> list[str | None]:
    """Fill each result's error from its check; returns the errors."""
    for op, res in zip(ops, results):
        if res["error"] is None:
            try:
                res["error"] = checker.check(op, res["code"], res["output"])
            except Exception as exc:  # malformed output fails its op
                res["error"] = f"check raised {type(exc).__name__}: {exc}"
        res["output"] = None
    return [res["error"] for res in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans here and add per-layer metrics")
    args = parser.parse_args(argv)

    t_setup = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from graphinv import cli, relations

    import workloads
    from checks import Checker

    ops = workloads.make_ops(args.workload, args.seed)
    setup_s = time.perf_counter() - t_setup

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    probes: list[float] = []
    results = run_pass(ops, cli, relations, tracer, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    checker = Checker(workloads.seeded_rng(args.workload + ":check", args.seed))
    errors = check_results(ops, results, checker)
    report = {
        "setup_s": setup_s,
        "probe_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "op_seconds": [r["seconds"] for r in results],
        "op_kinds": [op.kind for op in ops],
        "errors": errors,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["absent"] = sorted(tracer.absent)
        tracer.write_spans(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
