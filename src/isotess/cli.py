"""Command-line front door.

Every analysis command takes one path, `_analyze`: read the interchange
file once, build the graph, run the command's function from `_ANALYSES`
(graph, family, args -> result, exit code) and emit one canonical report,
which echoes the record's raw family block.  The four budgeted commands
(bounds, alpha, comb-alpha, compare) find their `Budget` in
``args.budget`` and echo it, and get the block read once, by
`families.read_family` against the built graph, before anything is
enumerated; the other commands get None and never read it.  A function
returns the library's result as it is (brackets, bounds, violations,
Fractions, Surds, tuples) and `_emit` writes it with `reports.jsonable`;
only `faces` and `curvature` write their own results, quantity by quantity
with `reports.value_json`.  Generator commands write interchange files;
`witness` loads its optional input the same way.  A command takes no flag
that only another command reads, but not every flag it takes changes its
result: bounds and comb-alpha accept ``--budget-edges`` and echo it in
the budget without reading it, and alpha and compare accept ``--workers``,
though enumeration runs in one process.  So identical inputs and budgets
produce byte-identical reports.

`main` pauses Python's cyclic garbage collector while a command runs and
restores the caller's setting afterwards.  Reference counting frees what a
command builds, so the collections that the build's many tuples,
frozensets and Fractions trigger reclaim nothing; on large inputs they took
about a third of the parse/build time.  The argparse parser is built once,
when this module is imported, and every `main` call parses with it, so a
command leaves no cycle whatever its input: each enumeration breaks its
closure's cycle as it returns, so its closures and the generator sets they
hold go at once.

Exit codes: 0 success, 2 validation violations / failed preconditions /
usage errors, 3 enumeration budget exhausted (a hit ``--max-yield`` and
nothing else), 4 malformed input (including non-integer ids, malformed
family blocks and non-UTF-8 files) or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import math
import sys
from pathlib import Path

from . import families, graphcore, interchange, reports
from .curvature import gauss_bonnet_check, global_constants
from .errors import (
    BudgetExceeded,
    GraphError,
    InputFormatError,
    NotFiniteTessellation,
    OutOfRange,
)
from .graphcore import MetricGraph, validate_tessellation
from .isoperimetry import (
    AlphaBracket,
    Budget,
    Family,
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
    """An argparse type: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _int_or_inf(text: str) -> int | float:
    return math.inf if text.strip().lower() == "inf" else _positive_int(text)


# commands that enumerate, and those of them that accept --workers
_BUDGETED = ("bounds", "alpha", "comb-alpha", "compare")
_WORKERS = ("alpha", "compare")
# commands whose results are written already, by value_json per quantity:
# their None means "indeterminate", their int ids are string keys, and a
# reports.jsonable pass over them would cost as much as a curvature pass
_WRITTEN = ("faces", "curvature")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotess",
        description="Curvature and isoperimetric analysis of tessellating "
                    "metric graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _) in _ANALYSES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", type=str)
        if name == "validate":
            p.add_argument("--mode", choices=("auto", "finite", "truncation"),
                           default="auto")
        if name in _BUDGETED:
            p.add_argument("--budget-edges", type=_positive_int,
                           default=Budget.max_edges, metavar="N")
            p.add_argument("--budget-generators", type=_positive_int,
                           default=Budget.max_generators, metavar="N")
            p.add_argument("--max-yield", type=_positive_int,
                           default=Budget.max_yield, metavar="N")
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
    g_pq.add_argument("--q", type=_int_or_inf, required=True,
                      help="integer >= 3 or 'inf'")
    g_pq.add_argument("--radius", type=int, required=True)
    g_tree = gensub.add_parser("tree", help="equilateral p-regular tree ball")
    g_tree.add_argument("--p", type=int, required=True)
    g_tree.add_argument("--radius", type=int, required=True)
    g_tree.set_defaults(q=math.inf)
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


def _load(path: str) -> tuple[dict, str]:
    """The record in the file at ``path`` and the file's sha256 hex digest."""
    data = Path(path).read_bytes()
    return interchange.load_record(path, data), hashlib.sha256(data).hexdigest()


def _emit(args, result, digest: str | None, family: dict | None,
          **echo) -> None:
    if args.command not in _WRITTEN:
        result = reports.jsonable(result)
    report = reports.make_report(args.command, result, input_sha256=digest,
                                 family=family, **echo)
    sys.stdout.write(reports.emit(report, args.output))


def _validate(g: MetricGraph, family, args) -> tuple[dict, int]:
    mode = args.mode
    if mode == "auto":
        mode = "truncation" if g.frontier_vertices else "finite"
    rep = validate_tessellation(g, mode)
    return {"mode": mode, "valid": rep.valid, "violations": rep.violations}, \
        EXIT_OK if rep.valid else EXIT_VIOLATIONS


def _faces(g: MetricGraph, family, args) -> tuple[dict, int]:
    tiles = [{
        "index": t.index,
        "status": t.status,
        "degree": t.degree,
        "perimeter": value_json(t.perimeter),
        "edges": sorted(t.edges),
    } for t in g.tiles]
    return {
        "tiles": tiles,
        "counts": {"vertices": len(g.vertices), "edges": len(g.edges),
                   "faces": len(g.tiles)},
        "euler_characteristic": len(g.vertices) - len(g.edges) + len(g.tiles),
    }, EXIT_OK


def _curvature(g: MetricGraph, family, args) -> tuple[dict, int]:
    rep = global_constants(g)
    return {
        **{name: {str(i): value_json(x) for i, x in getattr(rep, name).items()}
           for name in ("vertex_weight", "char_value", "vertex_curvature",
                        "tile_perimeter")},
        "vertex_curvature_convention": "corners on unbounded tiles "
                                       "contribute 1/d_T = 0 (extension)",
        "globals": {
            **{name: value_json(getattr(rep, name))
               for name in ("ell_star", "ell_min", "c_star", "M", "P", "K", "dT_star")},
            "deg_star": rep.deg_star,
            "observed": rep.observed,
            "counts": rep.counts,
        },
    }, EXIT_OK


def _gauss_bonnet(g: MetricGraph, family, args) -> tuple[dict, int]:
    try:
        res = gauss_bonnet_check(g)
    except NotFiniteTessellation as exc:
        return {"error": "NotFiniteTessellation", "detail": str(exc)}, EXIT_VIOLATIONS
    return {"sum": res.total, "holds": res.holds}, EXIT_OK


def _bounds(g: MetricGraph, family: Family, args) -> tuple[dict, int]:
    family_lower = [b for b in family.bounds if b.side == "lower"]
    if any(b.value > 0 for b in family_lower):  # 0 is a lower bound for any lengths
        family.check_lengths(g)
    bounds = lower_bounds(g, budget=args.budget)
    bounds.extend(family_lower)
    # a finite graph's alpha is 0 (the whole graph has empty boundary)
    if g.is_frontier_free and any(b.value > 0 for b in bounds
                                  if b.certified and b.target == "alpha"):
        raise OutOfRange("a certified lower bound exceeds alpha = 0 of a finite graph")
    return {"bounds": bounds}, EXIT_OK


def _bracket(g: MetricGraph, family: Family, args) -> AlphaBracket:
    family.check_lengths(g)
    return alpha_bracket(g, args.budget, family, workers=args.workers)


def _alpha(g: MetricGraph, family: Family, args) -> tuple[AlphaBracket, int]:
    return _bracket(g, family, args), EXIT_OK


def _comb(g: MetricGraph, family: Family, args) -> dict:
    res = alpha_comb_upper_bruteforce(g, args.budget)
    return {"best_upper": res.value, "witness_vertices": res.witness_vertices,
            "enumerated": res.enumerated, "closed_form": family.alpha_comb}


def _comb_alpha(g: MetricGraph, family: Family, args) -> tuple[dict, int]:
    """OutOfRange when the closed form exceeds the enumerated upper bound."""
    comb = _comb(g, family, args)
    if family.alpha_comb is not None and family.alpha_comb > comb["best_upper"]:
        raise OutOfRange("the closed-form alpha_comb exceeds the enumerated upper bound")
    return comb, EXIT_OK


def _compare(g: MetricGraph, family: Family, args) -> tuple[dict, int]:
    """Side-by-side record; flags a certified 0-vs-positive divergence."""
    bracket = _bracket(g, family, args)
    comb = _comb(g, family, args)
    closed, exact = family.alpha_comb, bracket.alpha_exact
    positive = any(x is not None and x > 0 for x in (bracket.best_lower, exact))
    divergence = (closed == 0 and positive) or \
                 (exact == 0 and closed is not None and closed > 0)
    combmetric = None
    if closed is not None and all(ell == 1 for ell in g.length.values()):
        transformed = equilateral_transform(closed)
        matches = None if exact is None else transformed == exact
        combmetric = {"alpha_comb": closed, "transformed": transformed,
                      "matches_alpha_exact": matches}
    return {
        "alpha": bracket,
        "comb": comb,
        "combmetric_check": combmetric,
        "divergence_flag": divergence,
    }, EXIT_OK


# analysis command -> (help text, function)
_ANALYSES = {
    "validate": ("check the tessellation axioms", _validate),
    "faces": ("trace and list the tiles", _faces),
    "curvature": ("characteristic values, weights and global constants",
                  _curvature),
    "gauss-bonnet": ("exact check of sum of -c(e)|e| = 1", _gauss_bonnet),
    "bounds": ("lower bounds on the isoperimetric constant", _bounds),
    "alpha": ("two-sided bracket for the isoperimetric constant", _alpha),
    "comb-alpha": ("combinatorial isoperimetric upper bound", _comb_alpha),
    "compare": ("alpha vs combinatorial alpha, side by side", _compare),
}


def _analyze(args) -> int:
    """Load and build the input graph, run one analysis, emit its report."""
    record, digest = _load(args.input)
    g, block = graphcore.build_graph(record), record.get("family")
    del record  # nothing reads the record after the build
    family, echo = None, {}
    if args.command in _BUDGETED:
        family = families.read_family(block, g)
        args.budget = Budget(max_edges=args.budget_edges,
                             max_generators=args.budget_generators,
                             max_yield=args.max_yield)
        echo = {"budget": dataclasses.asdict(args.budget)}
    result, code = _ANALYSES[args.command][1](g, family, args)
    _emit(args, result, digest, block, **echo)
    return code


def _cmd_gen(args) -> int:
    if args.family in ("pq", "tree"):
        record = families.gen_pq_ball(families.PQParams(p=args.p, q=args.q),
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
    graph = record = digest = None
    if args.input:
        record, digest = _load(args.input)
        graph = graphcore.build_graph(record)
    w = families.gk_witness_sequence(args.k, args.l, graph=graph, record=record)
    _emit(args, w, digest, record.get("family") if record else None)
    return EXIT_OK


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        handler = {"gen": _cmd_gen, "witness": _cmd_witness}.get(
            args.command, _analyze)
        return handler(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (InputFormatError, OSError) as exc:
        sys.stderr.write(f"malformed input: {exc}\n")
        return EXIT_MALFORMED
    except GraphError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_VIOLATIONS
    finally:
        if collecting:
            gc.enable()


# the parser of every `main` call; parsing reads it and leaves it as it was
_PARSER = build_parser()


if __name__ == "__main__":
    raise SystemExit(main())
