"""Command line entry point.

Every subcommand emits either a human-readable text rendering (default) or
a JSON run report with the shape

    {"command": ..., "inputs": ..., "outputs": ..., "checks": [...],
     "seed": ..., "timing_ms": ...}

where inputs echo the fully parsed data, so a report can be re-run without
the original files.  Identical argv and seed give identical reports except
for timing_ms, laid out as ``json.dumps(report, indent=2, sort_keys=True)``
plus one newline.  Each handler returns its text as a callable, so text is
rendered only for ``--format text``.  Exit status: 0 on success (including
negative query answers), 1 when a verification check fails, 2 on usage
errors or invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .acceptance import CHECKS, run_acceptance
from .chart import chart_point_to_json, verify_chart
from .degree import degree_trace, is_boundary, moduli_degree
from .errors import BadExponent, GraphInvError, MalformedInput
from .evaluation import Configuration, configuration_from_json, configuration_to_json, evaluate
from .graphs import Graph, enumerate_noncrossing, graph_from_json, graph_to_json, noncrossing_matchings
from .kempe import kempe_decompose, matching_product_to_json
from .relations import (
    certificate_to_json,
    ideal_membership,
    odd_power_relation,
    plucker_linear_relations,
    polynomial_from_json,
    polynomial_to_json,
    segre_cubic,
    simple_binomial_relations,
)
from .report import dumps as _dumps
from .straightening import combination_to_json, straighten_graph


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        w = tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"weights must be comma-separated integers, got {text!r}")
    if not w or any(x < 1 for x in w):
        raise argparse.ArgumentTypeError("weights must be positive integers")
    return w


def _vertex_count(n: int) -> int:
    """The --n of relations, basis and check-ideal, which must be positive."""
    if n < 1:
        raise argparse.ArgumentTypeError(f"--n must be a positive vertex count, got {n}")
    return n


def _read_json(path: str):
    source = "standard input" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{source} is not UTF-8: {exc}")
    except RecursionError:
        raise MalformedInput(f"{source} is nested too deeply")


def _load_configuration(args) -> Configuration:
    if getattr(args, "points", None):
        return Configuration.from_affine(args.points.replace(" ", "").split(","))
    if getattr(args, "config", None):
        return configuration_from_json(_read_json(args.config))
    raise argparse.ArgumentTypeError("provide --config FILE or --points LIST")


def _fmt_graph(g: Graph) -> str:
    return "".join(f"({t}-{h})" for t, h in g.edges)


def _fmt_coeff(c) -> str:
    return f"+{c}" if c > 0 else str(c)


def _fmt_combination(comb) -> list[str]:
    if comb.is_zero:
        return ["0"]
    return [f"{_fmt_coeff(c)} {_fmt_graph(g)}" for g, c in comb.terms.items()]


def _fmt_product(p) -> str:
    return f"{_fmt_coeff(p.coeff)} " + (" * ".join(_fmt_graph(f) for f in p.factors) or "1")


def _fmt_polynomial(p) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for mono, c in p.terms.items():
        parts.append(f"{_fmt_coeff(c)} " + " * ".join(_fmt_graph(f) for f in mono))
    return "  ".join(parts)


def _cmd_eval(args):
    g = graph_from_json(_read_json(args.graph))
    c = _load_configuration(args)
    val = evaluate(g, c)
    inputs = {"graph": graph_to_json(g), "config": configuration_to_json(c)}
    return inputs, {"value": str(val)}, [], lambda: [str(val)], 0


def _cmd_straighten(args):
    g = graph_from_json(_read_json(args.graph))
    comb = straighten_graph(g)
    inputs = {"graph": graph_to_json(g)}
    outputs = {"combination": combination_to_json(comb)}
    return inputs, outputs, [], lambda: _fmt_combination(comb), 0


def _cmd_basis(args):
    n = _vertex_count(args.n)
    w = args.weights if args.weights else (1,) * n
    if len(w) != n:
        raise argparse.ArgumentTypeError(f"{len(w)} weights for --n {n}")
    basis = enumerate_noncrossing(n, w)
    inputs = {"n": n, "weights": list(w)}
    outputs = {"count": len(basis), "graphs": [graph_to_json(g) for g in basis]}
    return inputs, outputs, [], lambda: [_fmt_graph(g) for g in basis], 0


def _cmd_kempe(args):
    g = graph_from_json(_read_json(args.graph))
    prods = kempe_decompose(g)
    inputs = {"graph": graph_to_json(g)}
    outputs = {"products": [matching_product_to_json(p) for p in prods]}
    return inputs, outputs, [], lambda: [_fmt_product(p) for p in prods], 0


def _cmd_relations(args):
    n = _vertex_count(args.n)
    inputs = {"n": n, "type": args.type}
    to_json, fmt = polynomial_to_json, _fmt_polynomial
    if args.type == "plucker":
        rels = plucker_linear_relations(n)
        to_json, fmt = combination_to_json, lambda r: "  ".join(_fmt_combination(r))
    elif args.type == "simple-binomial":
        rels = simple_binomial_relations(n)
    elif args.type == "segre":
        rels = [segre_cubic(n)]
    else:
        if args.exponent % 2 == 0:
            raise BadExponent(f"--exponent must be odd, got {args.exponent}")
        base = noncrossing_matchings(n)[0]
        inputs["exponent"] = args.exponent
        inputs["matching"] = graph_to_json(base)
        rels = [odd_power_relation(n, base, args.exponent)]
    outputs = {"count": len(rels), "relations": [to_json(r) for r in rels]}
    return inputs, outputs, [], lambda: [fmt(r) for r in rels], 0


def _cmd_check_ideal(args):
    _vertex_count(args.n)
    if args.candidate == "segre":
        cand = segre_cubic(args.n)
    else:
        cand = polynomial_from_json(_read_json(args.candidate))
        if cand.n != args.n:
            raise argparse.ArgumentTypeError(f"candidate is on {cand.n} vertices, --n is {args.n}")
    if args.n > 8 and not args.heavy:
        raise argparse.ArgumentTypeError(
            f"membership for n={args.n} may take far longer than the committed budgets; pass --heavy to attempt it"
        )
    k = args.degree if args.degree is not None else cand.degree
    if k is None:
        raise argparse.ArgumentTypeError("the candidate is zero and has no degree; pass --degree")
    gens = simple_binomial_relations(args.n)
    member, cert = ideal_membership(cand, gens, k)
    inputs = {
        "candidate": polynomial_to_json(cand),
        "n": args.n,
        "degree": k,
        "generators": "simple-binomial",
        "generator_count": len(gens),
    }
    outputs = {
        "member": member,
        "certificate": certificate_to_json(cert) if cert is not None else None,
    }
    line = f"member (certificate with {len(cert)} terms)" if member else "not a member"
    return inputs, outputs, [], lambda: [line], 0


def _render_trace(node: dict, indent: int, lines: list[str]) -> None:
    # a run of pair reductions is walked in a loop; only merges recurse
    while node["action"] == "pair-reduction":
        a, b = node["pair"]
        lines.append(f"{'  ' * indent}{tuple(node['weights'])} drop 1 from the pair ({a},{b}) = {node['degree']}")
        node, indent = node["child"], indent + 1
    pad = "  " * indent
    w = tuple(node["weights"])
    action = node["action"]
    if action == "multigraph":
        edges = "".join(f"({t}-{h})" for t, h in node["graph_edges"])
        lines.append(f"{pad}{w} via multigraph {edges} = {node['degree']}")
        for br in node["branches"]:
            j, k = br["pair"]
            note = f" [{br['note']}]" if "note" in br else ""
            lines.append(
                f"{pad}  pair {{{j},{k}}} x{br['multiplicity']} (weight sum {br['weight_sum']})"
                f" -> {br['contribution']}{note}"
            )
            if "child" in br:
                _render_trace(br["child"], indent + 2, lines)
    elif action == "point":
        lines.append(f"{pad}{w} is a single point = 1")
    elif action == "balanced-quadruple":
        lines.append(f"{pad}{w} balanced quadruple = {node['degree']}")
    else:
        lines.append(f"{pad}{w} = {node['degree']} (memoized)")


def _cmd_degree(args):
    w = args.weights
    inputs = {"weights": list(w), "trace": bool(args.trace)}
    boundary = is_boundary(w)
    if args.trace:
        value, tree = degree_trace(w)
        outputs = {"degree": value, "boundary": boundary, "trace": tree}
    else:
        value = moduli_degree(w)
        outputs = {"degree": value, "boundary": boundary}

    def text() -> list[str]:
        lines: list[str] = []
        if args.trace:
            _render_trace(tree, 0, lines)
        lines.append(str(value))
        if boundary:
            lines.append("note: boundary weights; every semistable configuration is strictly semistable")
        return lines

    return inputs, outputs, [], text, 0


def _cmd_chart(args):
    c = _load_configuration(args)
    rep = verify_chart(c)
    inputs = {"config": configuration_to_json(c)}
    entries = {f"{i},{j}": status for (i, j), status in sorted(rep.entry_status.items())}
    outputs = {
        "chart": chart_point_to_json(rep.point),
        "verified": bool(rep),
        "minor_failures": [list(q) for q in rep.minor_failures],
        "entries": entries,
    }
    checks = [
        {"name": "rank-at-most-1", "passed": not rep.minor_failures,
         "details": f"{len(rep.minor_failures)} nonvanishing 2x2 minors"},
        {"name": "z-identity", "passed": "failed" not in rep.entry_status.values(),
         "details": f"{sum(1 for v in rep.entry_status.values() if v == 'ok')} entries ok, "
                    f"{len(rep.skipped_entries)} skipped"},
    ]

    def text() -> list[str]:
        lines = []
        for name, mat in (("W", rep.point.W), ("Z", rep.point.Z)):
            lines.append(f"{name}:")
            for row in mat:
                lines.append("  [ " + "  ".join(str(x) for x in row) + " ]")
        lines.append(f"verified: {bool(rep)}")
        return lines

    return inputs, outputs, checks, text, 0 if rep else 1


def _cmd_verify_all(args):
    names = set(args.only) if args.only else None
    results = run_acceptance(quick=args.quick, base_seed=args.seed, names=names)
    checks = [{"name": r.name, "passed": r.passed, "details": r.details} for r in results]
    inputs = {"tier": "quick" if args.quick else "full"}
    if args.only:
        inputs["only"] = sorted(names)
    passed = sum(1 for r in results if r.passed)
    outputs = {"passed": passed, "total": len(results)}

    def text() -> list[str]:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.seconds:.2f}s) {r.details}" for r in results]
        lines.append(f"passed {passed}/{len(results)}")
        return lines

    return inputs, outputs, checks, text, 0 if passed == len(results) else 1


_HANDLERS = {
    "eval": _cmd_eval,
    "straighten": _cmd_straighten,
    "basis": _cmd_basis,
    "kempe": _cmd_kempe,
    "relations": _cmd_relations,
    "check-ideal": _cmd_check_ideal,
    "degree": _cmd_degree,
    "chart": _cmd_chart,
    "verify-all": _cmd_verify_all,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed for randomized checks")
    common.add_argument("--format", choices=["json", "text"], default="text")
    common.add_argument("--out", default=None, help="write the report to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="graphinv",
        description="Exact graphical algebra of invariants of weighted points on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a graph invariant at a configuration")
    p.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")
    p.add_argument("--config", help="configuration JSON file, or - for stdin")
    p.add_argument("--points", help="affine shorthand, e.g. 0,1,2,inf")

    p = sub.add_parser("straighten", parents=[common], help="rewrite on the non-crossing basis")
    p.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")

    p = sub.add_parser("basis", parents=[common], help="enumerate the non-crossing basis graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", type=_parse_weights, default=None, help="multidegree, default all ones")

    p = sub.add_parser("kempe", parents=[common], help="decompose a regular graph into matching products")
    p.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")

    p = sub.add_parser("relations", parents=[common], help="generate relation families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--type", required=True, choices=["plucker", "simple-binomial", "segre", "odd-power"])
    p.add_argument("--exponent", type=int, default=3, help="odd exponent for --type odd-power")

    p = sub.add_parser("check-ideal", parents=[common], help="certified ideal membership")
    p.add_argument("--candidate", required=True, help="'segre' or a polynomial JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None, help="degree of the slice, default the candidate's")
    p.add_argument("--heavy", action="store_true", help="allow n > 8 attempts with no time guarantee")

    p = sub.add_parser("degree", parents=[common], help="degree of the weighted moduli space")
    p.add_argument("--weights", type=_parse_weights, required=True)
    p.add_argument("--trace", action="store_true", help="print the recursion tree")

    p = sub.add_parser("chart", parents=[common], help="chart coordinates at a configuration")
    p.add_argument("--config", help="configuration JSON file, or - for stdin")
    p.add_argument("--points", help="affine shorthand, e.g. 0,0,1,inf")

    p = sub.add_parser("verify-all", parents=[common], help="run the acceptance checks")
    tier = p.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", help="fast subset")
    tier.add_argument("--full", action="store_true", help="every check (default)")
    p.add_argument("--only", nargs="+", choices=[name for name, _, _ in CHECKS], help="run a named subset")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        inputs, outputs, checks, text, code = _HANDLERS[args.command](args)
    except GraphInvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: the {args.command} computation is nested too deeply", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            text = None  # release what the closure holds (for plucker, every relation) before the layout
            report = {
                "command": args.command,
                "inputs": inputs,
                "outputs": outputs,
                "checks": checks,
                "seed": args.seed,
                "timing_ms": int((time.perf_counter() - t0) * 1000),
            }
            payload = _dumps(report) + "\n"
        else:
            lines = text()
            payload = "\n".join(lines) + "\n" if lines else ""
    except RecursionError:
        print(f"error: the {args.command} report is nested too deeply to write", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
