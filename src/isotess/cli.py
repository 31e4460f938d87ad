"""Command-line front door.

Analysis commands read a graph interchange file and write one report
record; generator commands write interchange files.  Each command takes
only the flags it reads.  Enumeration runs in one process; ``--workers``
is accepted by alpha and compare but changes nothing, so identical inputs
and budgets produce byte-identical reports.

Exit codes: 0 success, 2 validation violations / failed preconditions /
usage errors, 3 enumeration budget exhausted, 4 malformed input or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import families, interchange, reports
from .curvature import gauss_bonnet_check, global_constants
from .errors import (
    BudgetExceeded,
    GraphError,
    InputFormatError,
    NotFiniteTessellation,
)
from .graphcore import MetricGraph, validate_tessellation
from .isoperimetry import (
    Budget,
    alpha_bracket,
    alpha_comb_upper_bruteforce,
    equilateral_transform,
    lower_bounds,
)
from .reports import value_json

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# commands that enumerate, and those of them that accept --workers
_BUDGETED = ("bounds", "alpha", "comb-alpha", "compare")
_WORKERS = ("alpha", "compare")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotess",
        description="Curvature and isoperimetric analysis of tessellating "
                    "metric graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("validate", "check the tessellation axioms"),
        ("faces", "trace and list the tiles"),
        ("curvature", "characteristic values, weights and global constants"),
        ("gauss-bonnet", "exact check of sum of -c(e)|e| = 1"),
        ("bounds", "lower bounds on the isoperimetric constant"),
        ("alpha", "two-sided bracket for the isoperimetric constant"),
        ("comb-alpha", "combinatorial isoperimetric upper bound"),
        ("compare", "alpha vs combinatorial alpha, side by side"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", type=str)
        if name == "validate":
            p.add_argument("--mode", choices=("auto", "finite", "truncation"),
                           default="auto")
        if name in _BUDGETED:
            p.add_argument("--budget-edges", type=_positive_int, default=6,
                           metavar="N")
            p.add_argument("--budget-generators", type=_positive_int, default=4,
                           metavar="N")
            p.add_argument("--max-yield", type=_positive_int, default=2_000_000,
                           metavar="N")
            p.add_argument("--tolerance", type=float, default=1e-12, metavar="X")
        if name in _WORKERS:
            p.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                           help="accepted for compatibility; enumeration runs "
                                "in one process and the result does not "
                                "depend on it")
        p.add_argument("--output", type=str, default=None, metavar="PATH")

    gen = sub.add_parser("gen", help="generate a family graph file")
    gensub = gen.add_subparsers(dest="family", required=True)
    g_pq = gensub.add_parser("pq", help="(p,q)-regular ball")
    g_pq.add_argument("--p", type=int, required=True)
    g_pq.add_argument("--q", type=str, required=True, help="integer >= 3 or 'inf'")
    g_pq.add_argument("--radius", type=int, required=True)
    g_tree = gensub.add_parser("tree", help="equilateral p-regular tree ball")
    g_tree.add_argument("--p", type=int, required=True)
    g_tree.add_argument("--radius", type=int, required=True)
    g_gk = gensub.add_parser("gk", help="half-plane lattice with attached trees")
    g_gk.add_argument("--k", type=int, required=True)
    g_gk.add_argument("--rows", type=int, default=3)
    g_gk.add_argument("--cols", type=int, default=3)
    g_gk.add_argument("--tree-depth", type=int, default=2)
    g_ne = gensub.add_parser("netree", help="tree with one edge of length p")
    g_ne.add_argument("--p", type=int, required=True)
    g_ne.add_argument("--depth", type=int, required=True)
    for sp in (g_pq, g_tree, g_gk, g_ne):
        sp.add_argument("--output", type=str, required=True, metavar="PATH")

    wit = sub.add_parser("witness", help="attached-tree witness data for G_k")
    wit.add_argument("--k", type=int, required=True)
    wit.add_argument("--l", type=int, required=True)
    wit.add_argument("--input", type=str, default=None,
                     help="generated G_k file for the exact cross-check")
    wit.add_argument("--output", type=str, default=None, metavar="PATH")
    return parser


def _budget(args) -> Budget:
    return Budget(max_edges=args.budget_edges,
                  max_generators=args.budget_generators,
                  max_yield=args.max_yield)


def _budget_json(budget: Budget) -> dict:
    return {"max_edges": budget.max_edges,
            "max_generators": budget.max_generators,
            "max_yield": budget.max_yield}


def _load(path: str) -> tuple[MetricGraph, dict, bytes]:
    data = Path(path).read_bytes()
    record = interchange.load_record(path)
    from .graphcore import build_graph
    return build_graph(record), record, data


def _alpha_bracket_for(g: MetricGraph, record: dict, budget: Budget,
                       workers: int):
    family = record.get("family")
    ell_star, ell_min = families.certified_lengths(family)
    return alpha_bracket(
        g, budget, family_bounds=families.family_bounds(family),
        certified_ell_star=ell_star, certified_ell_min=ell_min,
        workers=workers)


def _cmd_validate(args) -> int:
    g, record, data = _load(args.input)
    mode = args.mode
    if mode == "auto":
        mode = "truncation" if g.frontier_vertices else "finite"
    rep = validate_tessellation(g, mode)
    result = {
        "mode": mode,
        "valid": rep.valid,
        "violations": [
            {"condition": v.condition, "witness": v.witness, "detail": v.detail}
            for v in rep.violations
        ],
    }
    report = reports.make_report("validate", result, input_bytes=data,
                                 family=record.get("family"))
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK if rep.valid else EXIT_VIOLATIONS


def _cmd_faces(args) -> int:
    g, record, data = _load(args.input)
    tiles = [{
        "index": t.index,
        "status": t.status,
        "degree": t.degree,
        "perimeter": value_json(t.perimeter),
        "edges": sorted(t.edges),
    } for t in g.tiles]
    result = {
        "tiles": tiles,
        "counts": {"vertices": len(g.vertices), "edges": len(g.edges),
                   "faces": len(g.tiles)},
        "euler_characteristic": len(g.vertices) - len(g.edges) + len(g.tiles),
    }
    report = reports.make_report("faces", result, input_bytes=data,
                                 family=record.get("family"))
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _cmd_curvature(args) -> int:
    g, record, data = _load(args.input)
    rep = global_constants(g)
    result = {
        "vertex_weight": {str(v): value_json(w) for v, w in rep.vertex_weight.items()},
        "char_value": {str(e): value_json(c) for e, c in rep.char_value.items()},
        "vertex_curvature": {str(v): value_json(k)
                             for v, k in rep.vertex_curvature.items()},
        "vertex_curvature_convention": "corners on unbounded tiles "
                                       "contribute 1/d_T = 0 (extension)",
        "tile_perimeter": {str(t): value_json(p)
                           for t, p in rep.tile_perimeter.items()},
        "globals": {
            "ell_star": value_json(rep.ell_star),
            "ell_min": value_json(rep.ell_min),
            "c_star": value_json(rep.c_star),
            "M": value_json(rep.M),
            "P": value_json(rep.P),
            "K": value_json(rep.K),
            "deg_star": rep.deg_star,
            "dT_star": value_json(rep.dT_star)
            if not isinstance(rep.dT_star, int) else rep.dT_star,
            "observed": rep.observed,
            "counts": rep.counts,
        },
    }
    report = reports.make_report("curvature", result, input_bytes=data,
                                 family=record.get("family"))
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _cmd_gauss_bonnet(args) -> int:
    g, record, data = _load(args.input)
    try:
        res = gauss_bonnet_check(g)
    except NotFiniteTessellation as exc:
        report = reports.make_report(
            "gauss-bonnet", {"error": "NotFiniteTessellation", "detail": str(exc)},
            input_bytes=data, family=record.get("family"))
        sys.stdout.write(reports.emit(report, args.output))
        return EXIT_VIOLATIONS
    result = {"sum": value_json(res.total), "holds": res.holds}
    report = reports.make_report("gauss-bonnet", result, input_bytes=data,
                                 family=record.get("family"))
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g, record, data = _load(args.input)
    budget = _budget(args)
    bounds = lower_bounds(g, budget=budget)
    bounds.extend(b for b in families.family_bounds(record.get("family"))
                  if b.side == "lower")
    result = {"bounds": [reports.bound_json(b) for b in bounds]}
    report = reports.make_report("bounds", result, input_bytes=data,
                                 family=record.get("family"),
                                 budget=_budget_json(budget),
                                 tolerance=args.tolerance)
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _cmd_alpha(args) -> int:
    g, record, data = _load(args.input)
    budget = _budget(args)
    bracket = _alpha_bracket_for(g, record, budget, args.workers)
    report = reports.make_report("alpha", reports.bracket_json(bracket),
                                 input_bytes=data, family=record.get("family"),
                                 budget=_budget_json(budget),
                                 tolerance=args.tolerance)
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _comb_result(g: MetricGraph, record: dict, budget: Budget) -> dict:
    res = alpha_comb_upper_bruteforce(g, budget)
    closed = families.family_comb_closed_form(record.get("family"))
    return {
        "best_upper": value_json(res.value),
        "witness_vertices": list(res.witness_vertices),
        "enumerated": res.enumerated,
        "closed_form": value_json(closed) if closed is not None else None,
    }


def _cmd_comb_alpha(args) -> int:
    g, record, data = _load(args.input)
    budget = _budget(args)
    result = _comb_result(g, record, budget)
    report = reports.make_report("comb-alpha", result, input_bytes=data,
                                 family=record.get("family"),
                                 budget=_budget_json(budget),
                                 tolerance=args.tolerance)
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _num(v):
    """Parse a serialized report value back to a number, or None."""
    if v is None or v in ("inf", "indeterminate"):
        return None
    return Fraction(v) if isinstance(v, str) else v


def compare_records(alpha_result: dict, comb_result: dict,
                    record: dict, tolerance: float) -> dict:
    """Side-by-side record; flags a certified 0-vs-positive divergence."""
    alpha_lower = _num(alpha_result.get("best_lower"))
    alpha_exact = _num(alpha_result.get("alpha_exact"))
    comb_closed = _num(comb_result.get("closed_form"))

    alpha_positive = (alpha_lower is not None and alpha_lower > 0) or \
                     (alpha_exact is not None and alpha_exact > 0)
    divergence = (comb_closed == 0 and alpha_positive) or \
                 (alpha_exact == 0 and comb_closed is not None and comb_closed > 0)

    combmetric = None
    equilateral = all(Fraction(e["length"]) == 1 for e in record["edges"])
    if equilateral and comb_closed is not None:
        transformed = equilateral_transform(comb_closed)
        matches = None
        if alpha_exact is not None:
            matches = abs(float(transformed) - float(alpha_exact)) <= tolerance
        combmetric = {
            "alpha_comb": value_json(comb_closed),
            "transformed": value_json(transformed),
            "matches_alpha_exact": matches,
        }
    return {
        "alpha": alpha_result,
        "comb": comb_result,
        "combmetric_check": combmetric,
        "divergence_flag": divergence,
    }


def _cmd_compare(args) -> int:
    g, record, data = _load(args.input)
    budget = _budget(args)
    alpha_result = reports.bracket_json(
        _alpha_bracket_for(g, record, budget, args.workers))
    result = compare_records(alpha_result, _comb_result(g, record, budget),
                             record, args.tolerance)
    report = reports.make_report("compare", result, input_bytes=data,
                                 family=record.get("family"),
                                 budget=_budget_json(budget),
                                 tolerance=args.tolerance)
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "pq":
        q = math.inf if args.q.strip().lower() == "inf" else int(args.q)
        record = families.gen_pq_ball(families.PQParams(p=args.p, q=q),
                                      args.radius)
    elif args.family == "tree":
        record = families.gen_pq_ball(families.PQParams(p=args.p, q=math.inf),
                                      args.radius)
    elif args.family == "gk":
        record = families.gen_gk(families.GkParams(
            k=args.k, rows=args.rows, cols=args.cols,
            tree_depth=args.tree_depth))
    else:
        record = families.gen_nonequilateral_tree(args.p, args.depth)
    interchange.save(record, args.output)
    summary = {
        "written": args.output,
        "family": record["family"],
        "vertices": len(record["vertices"]),
        "edges": len(record["edges"]),
    }
    sys.stdout.write(reports.dumps_report(
        reports.make_report("gen", summary, family=record["family"])))
    return EXIT_OK


def _cmd_witness(args) -> int:
    graph = record = None
    data = None
    if args.input:
        graph, record, data = _load(args.input)
    w = families.gk_witness_sequence(args.k, args.l, graph=graph, record=record)
    result = {
        "k": w["k"], "l": w["l"],
        "measure": value_json(w["measure"]),
        "boundary_degree": w["boundary_degree"],
        "ratio": value_json(w["ratio"]),
        "limit": value_json(w["limit"]),
        "cross_checked": w["cross_checked"],
    }
    report = reports.make_report("witness", result, input_bytes=data,
                                 family=record.get("family") if record else None)
    sys.stdout.write(reports.emit(report, args.output))
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "faces": _cmd_faces,
    "curvature": _cmd_curvature,
    "gauss-bonnet": _cmd_gauss_bonnet,
    "bounds": _cmd_bounds,
    "alpha": _cmd_alpha,
    "comb-alpha": _cmd_comb_alpha,
    "compare": _cmd_compare,
    "gen": _cmd_gen,
    "witness": _cmd_witness,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (InputFormatError, FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"malformed input: {exc}\n")
        return EXIT_MALFORMED
    except GraphError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_VIOLATIONS


if __name__ == "__main__":
    raise SystemExit(main())
