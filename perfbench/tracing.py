"""Spans around the library's public functions, for the per-layer metrics.

Each wrapper replaces a function at every ``graphinv`` module attribute
that refers to it (``straightening.crossing_pairs`` is
``graphs.crossing_pairs`` imported by name), or a method on its class.
Spans are recorded only while an op runs (``Tracer.op`` is set), never
during set-up or output checks.  A span is (name, start, end, parent,
op); a layer's self time is its spans' durations minus their children's.
A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (metric prefix, module, attribute or Class.method)
FUNCTIONS = (
    ("graphs.Graph", "graphs", "Graph.__init__"),
    ("graphs.canonicalize", "graphs", "canonicalize"),
    ("graphs.crossing_pairs", "graphs", "crossing_pairs"),
    ("graphs.enumerate_noncrossing", "graphs", "enumerate_noncrossing"),
    ("graphs.enumerate_matchings", "graphs", "enumerate_matchings"),
    ("straightening.straighten_graph", "straightening", "straighten_graph"),
    ("straightening.plucker_exchange", "straightening", "plucker_exchange"),
    ("linalg.RationalMatrix.from_columns", "linalg", "RationalMatrix.from_columns"),
    ("linalg.RationalMatrix.matvec", "linalg", "RationalMatrix.matvec"),
    ("linalg.in_span", "linalg", "in_span"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.rank", "linalg", "rank"),
    ("relations.ideal_membership", "relations", "ideal_membership"),
    ("relations.reduce_to_noncrossing_vars", "relations", "reduce_to_noncrossing_vars"),
    ("relations.noncrossing_monomial_matrix", "relations", "noncrossing_monomial_matrix"),
    ("relations.odd_power_relation", "relations", "odd_power_relation"),
    ("relations.plucker_linear_relations", "relations", "plucker_linear_relations"),
    ("relations.simple_binomial_relations", "relations", "simple_binomial_relations"),
    ("relations.segre_cubic", "relations", "segre_cubic"),
    ("relations.quadric_relation_space", "relations", "quadric_relation_space"),
    ("degree.moduli_degree", "degree", "moduli_degree"),
    ("kempe.kempe_decompose", "kempe", "kempe_decompose"),
    ("chart.verify_chart", "chart", "verify_chart"),
    ("evaluation.evaluate", "evaluation", "evaluate"),
    ("cli.main", "cli", "main"),
)

# Counts, and the functions whose results feed them.
COUNTS = (
    "straightening.out_terms",
    "linalg.cells",
    "linalg.nnz",
    "linalg.kernel_dim",
    "relations.columns",
    "relations.cert_terms",
)
# ratio name: (numerator, denominator)
RATIOS = {
    "straightening.terms_per_exchange": ("straightening.out_terms", "straightening.plucker_exchange.calls"),
    "linalg.nnz_per_cell": ("linalg.nnz", "linalg.cells"),
}


def _count_straighten(counts, args, result):
    counts["straightening.out_terms"] += len(result.terms)


def _count_matrix(counts, args, result):
    counts["linalg.cells"] += result.rows * result.cols
    counts["linalg.nnz"] += sum(1 for row in result.entries for v in row if v)


def _count_kernel(counts, args, result):
    counts["linalg.kernel_dim"] += len(result)


def _count_span_columns(counts, args, result):
    counts["relations.columns"] += args[1].cols


def _count_assembled_columns(counts, args, result):
    counts["relations.columns"] += result.cols


def _count_certificate(counts, args, result):
    member, cert = result
    if member and cert:
        counts["relations.cert_terms"] += len(cert)


HOOKS = {
    "straightening.straighten_graph": _count_straighten,
    "linalg.RationalMatrix.from_columns": _count_matrix,
    "linalg.kernel_basis": _count_kernel,
    "linalg.in_span": _count_span_columns,
    "relations.noncrossing_monomial_matrix": _count_assembled_columns,
    "relations.ideal_membership": _count_certificate,
}
# counts that a hook feeds, so a missing target marks them absent
HOOK_COUNTS = {
    "straightening.straighten_graph": ("straightening.out_terms",),
    "linalg.RationalMatrix.from_columns": ("linalg.cells", "linalg.nnz"),
    "linalg.kernel_basis": ("linalg.kernel_dim",),
    "linalg.in_span": ("relations.columns",),
    "relations.noncrossing_monomial_matrix": ("relations.columns",),
    "relations.ideal_membership": ("relations.cert_terms",),
}

COUNTING = "perfbench.counting"  # span around a hook, so its cost is no layer's self time


class Tracer:
    """Installs the wrappers and keeps the spans of one pass in memory."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: set[str] = set()
        self._failed_hooks: set[str] = set()
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        counting = self._id(COUNTING)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None and name not in tracer._failed_hooks:
                cidx = tracer._open(counting)
                try:
                    hook(tracer.counts, args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    # the result no longer has the shape the count reads
                    tracer._failed_hooks.add(name)
                    tracer.absent.update(HOOK_COUNTS[name])
                finally:
                    tracer._close(cidx)
            return result

        return wrapper

    def _mark_absent(self, name: str) -> None:
        self.absent.add(name)
        for count in HOOK_COUNTS.get(name, ()):
            self.absent.add(count)

    def install(self) -> None:
        for name, module_name, target in FUNCTIONS:
            try:
                module = importlib.import_module(f"graphinv.{module_name}")
                if "." in target:
                    cls_name, meth = target.split(".")
                    self._wrap_method(name, getattr(module, cls_name), meth)
                else:
                    self._wrap_function(name, getattr(module, target))
            except (ImportError, AttributeError, KeyError):
                self._mark_absent(name)
                print(f"perfbench: trace target {module_name}.{target} not found; {name} is absent",
                      file=sys.stderr)

    def _wrap_method(self, name, cls, meth) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        setattr(cls, meth, new)
        self._restore.append((cls, meth, raw))

    def _wrap_function(self, name, fn) -> None:
        wrapper = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "graphinv" and not mod_name.startswith("graphinv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric that is not absent, as (value, unit)."""
        calls, self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in FUNCTIONS:
            if name not in self.absent:
                out[f"{name}.calls"] = (calls.get(name, 0), "count")
                out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for name in COUNTS:
            if name not in self.absent:
                out[name] = (self.counts[name], "count")
        for name, (num, den) in RATIOS.items():
            if num in out and den in out:
                d = out[den][0]
                out[name] = (out[num][0] / d if d else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped TSV: name, start, end (perf_counter seconds),
        parent span index (-1 for none) and op index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op_of[i]}\n")
