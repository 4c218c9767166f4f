"""graphinv benchmark.

    python3 perfbench/run.py --workload {straighten,membership,relations}
                             --seed N --seconds S --trace {0,1}

A closed loop: one op at a time, no threads.  An op is a CLI subcommand
run in-process through ``graphinv.cli.main(argv)`` with ``--format json``
(``quadric-space`` calls ``quadric_relation_space``, which has no
subcommand).  A pass is one fresh interpreter (worker.py) that imports the
library from ``src/``, generates its inputs, runs its ops sharing the
library's caches, and checks every output after the timed ops.

With ``--trace 0``, passes over the same inputs run until the next one
would end after S seconds, and the end-to-end metrics are medians over
the passes:

  setup_s      import plus input generation
  wall_s       time to finish every op of the pass
  op_s_p50     median over ops of each op's median time
  peak_rss_mb  ru_maxrss, read before the checks

The host's speed drifts by up to half, for seconds to minutes at a time,
and CPU time drifts with it.  So every pass also times a fixed integer
loop (``worker.probe``) between its ops, and each time above is scaled by
PROBE_NOMINAL_S over the pass's median probe time: the times are seconds
on a host where the probe takes PROBE_NOMINAL_S.  The probe is the
benchmark's own code, so no change to the library moves it.  The
unscaled pass times stay in the record.

With ``--trace 1``, one pass runs untraced and one traced; the per-layer
metrics come from the traced pass, and ``trace.overhead_s`` is its
wall_s minus the untraced pass's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An op fails when it exits
nonzero, raises, or its output fails its check.  The full record, with
per-op times, the share of failed ops and, on workloads with more than
ten ops, op_s_tail (the highest percentile of the op medians with ten
ops beyond it), goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("straighten", "membership", "relations")
DEADLINE_S = 170  # a run must end within 180 s
PROBE_NOMINAL_S = 0.0015  # worker.probe() on a quiet 2-vCPU x86-64 host, Python 3.11


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, trace_file: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)  # the library's debug assertions stay in what is timed
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed("a pass did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"a pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def scale(p: dict) -> float:
    """Factor that brings a pass's times to a host whose probe takes
    PROBE_NOMINAL_S."""
    return PROBE_NOMINAL_S / p["probe_s"]


def wall(p: dict) -> float:
    return scale(p) * sum(p["op_seconds"])


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100 * (n - 10) / n, "ops": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphinv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphinv" / "cli.py").is_file():
        print(f"perfbench: no graphinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes = []
    try:
        if args.trace:
            spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
            passes.append(run_pass(args.workload, args.seed, None, deadline))
            passes.append(run_pass(args.workload, args.seed, spans, deadline))
        else:
            while True:
                passes.append(run_pass(args.workload, args.seed, None, deadline))
                elapsed = time.monotonic() - start
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = [e for p in passes for e in p["errors"]]
    failed = sum(e is not None for e in errors)
    for p_index, p in enumerate(passes):
        for op_index, e in enumerate(p["errors"]):
            if e is not None:
                print(f"perfbench: pass {p_index} op {op_index} ({p['op_kinds'][op_index]}) failed: {e}",
                      file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in passes[1]["layers"].items()}
        overhead = wall(passes[1]) - wall(passes[0])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        op_medians = []
    else:
        op_medians = [statistics.median(scale(p) * p["op_seconds"][i] for p in passes)
                      for i in range(len(passes[0]["op_seconds"]))]
        metrics = {
            "setup_s": {"value": statistics.median(scale(p) * p["setup_s"] for p in passes), "unit": "s"},
            "wall_s": {"value": statistics.median(wall(p) for p in passes), "unit": "s"},
            "op_s_p50": {"value": statistics.median(op_medians), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": len(errors), "failed": failed, "metrics": metrics}

    op_tail = tail(op_medians)
    if op_tail is not None:
        print(f"perfbench: op_s_tail p{op_tail['percentile']:.1f} = {op_tail['value']:.4f} s over "
              f"{op_tail['ops']} ops", file=sys.stderr)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  python=sys.version.split()[0], failed_ops=failed / len(errors), op_s_tail=op_tail,
                  raw_wall_s=statistics.median(sum(p["op_seconds"]) for p in passes), passes=passes)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
