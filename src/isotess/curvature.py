"""Pointwise and global curvature-type quantities.

The characteristic value of an edge e is

    c(e) = 1/|e| - sum_{v in e} 1/m(v) - sum over the two sides of e of 1/p(T),

where m(v) is the total length of the star at v and p(T) the perimeter of
the tile on that side (1/p = 0 for unbounded tiles).  Each side of an edge
is resolved through its dart, so a truncation where both sides trace into
the same unbounded face still contributes two (zero) tile terms, matching
the two distinct unbounded tiles of the infinite graph.

Quantities touching a frontier vertex or an indeterminate tile are None
(indeterminate), never silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    EmptyFrontierFreeRegion,
    FrontierContact,
    NotFiniteTessellation,
    NotStarLikeComplete,
)
from .graphcore import (
    BOUNDED,
    INDETERMINATE,
    UNBOUNDED,
    MetricGraph,
    SubgraphSelection,
    classify_subgraph,
    validate_tessellation,
)
from .rational import INF, Extended, reciprocal


@dataclass
class CurvatureReport:
    """All curvature data of a graph, exact.

    On truncations the global constants are *observed* values taken over
    the frontier-free region only; ``counts`` records how much data they
    were computed from.
    """

    vertex_weight: dict[int, Fraction | None]
    tile_perimeter: dict[int, Extended | None]
    char_value: dict[int, Fraction | None]
    vertex_curvature: dict[int, Fraction | None]
    ell_star: Fraction
    ell_min: Fraction
    c_star: Fraction | None
    M: Fraction | None
    P: Extended | None
    K: Fraction | None
    deg_star: int | None
    dT_star: Extended | None
    observed: bool
    counts: dict[str, int] = field(default_factory=dict)


def vertex_weight(g: MetricGraph, v: int) -> Fraction:
    """m(v): total length of the star at v."""
    if v in g.frontier_vertices:
        raise FrontierContact(f"vertex {v} is a frontier vertex")
    return sum((g.length[e] for e in g.rotation[v]), Fraction(0))


def _weights(g: MetricGraph) -> dict[int, Fraction | None]:
    out: dict[int, Fraction | None] = {}
    for v in g.vertices:
        if v in g.frontier_vertices:
            out[v] = None
        else:
            out[v] = sum((g.length[e] for e in g.rotation[v]), Fraction(0))
    return out


def char_values(g: MetricGraph) -> dict[int, Fraction | None]:
    weights = _weights(g)
    out: dict[int, Fraction | None] = {}
    for e in g.edges:
        a, b = g.edge_ends[e]
        wa, wb = weights[a], weights[b]
        if wa is None or wb is None:
            out[e] = None
            continue
        value = Fraction(1) / g.length[e] - Fraction(1) / wa - Fraction(1) / wb
        ok = True
        for dart in g.darts_of(e):
            tile = g.tile_of(dart)
            if tile.status == INDETERMINATE:
                out[e] = None
                ok = False
                break
            if tile.status == BOUNDED:
                value -= Fraction(1) / tile.perimeter
            # unbounded: 1/p = 0
        if ok:
            out[e] = value
    return out


def vertex_curvature(g: MetricGraph, v: int) -> Fraction:
    """1 - deg(v)/2 + sum over the corners at v of 1/d_T.

    Unbounded tiles contribute 0 (the same convention as 1/p(T) = 0);
    indeterminate corners make the value unavailable.
    """
    if v in g.frontier_vertices:
        raise FrontierContact(f"vertex {v} is a frontier vertex")
    value = Fraction(1) - Fraction(g.degree(v), 2)
    for e in g.rotation[v]:
        tile = g.tile_of((e, v))
        if tile.status == INDETERMINATE:
            raise FrontierContact(f"corner tile of vertex {v} touches the frontier")
        if tile.status == BOUNDED:
            value += Fraction(1, tile.degree)
    return value


def vertex_curvatures(g: MetricGraph) -> dict[int, Fraction | None]:
    out: dict[int, Fraction | None] = {}
    for v in g.vertices:
        try:
            out[v] = vertex_curvature(g, v)
        except FrontierContact:
            out[v] = None
    return out


def global_constants(g: MetricGraph) -> CurvatureReport:
    """All global constants, over the frontier-free region.

    M = sup m(v)/min incident length, P = sup p(T)/min boundary length
    (infinite as soon as one unbounded tile exists), K = 1 - 1/M - 2/P -
    1/((M-2)P).  On truncations these are observed values.
    """
    weights = _weights(g)
    cvals = char_values(g)
    kappas = vertex_curvatures(g)

    free_vertices = [v for v in g.vertices if weights[v] is not None]
    if not free_vertices:
        raise EmptyFrontierFreeRegion("every vertex touches the frontier")

    ell_star = max(g.length.values())
    ell_min = min(g.length.values())

    M: Fraction | None = None
    deg_star: int | None = None
    for v in free_vertices:
        ratio = weights[v] / min(g.length[e] for e in g.rotation[v])
        M = ratio if M is None else max(M, ratio)
        d = g.degree(v)
        deg_star = d if deg_star is None else max(deg_star, d)

    perims: dict[int, Extended | None] = {}
    has_unbounded = False
    bounded_P: Fraction | None = None
    bounded_dT: int | None = None
    n_tiles = 0
    for t in g.tiles:
        perims[t.index] = t.perimeter
        if t.status == UNBOUNDED:
            has_unbounded = True
            n_tiles += 1
        elif t.status == BOUNDED:
            n_tiles += 1
            ratio = t.perimeter / min(g.length[e] for e in t.edges)
            bounded_P = ratio if bounded_P is None else max(bounded_P, ratio)
            bounded_dT = t.degree if bounded_dT is None else max(bounded_dT, t.degree)
    P: Extended | None = INF if has_unbounded else bounded_P
    dT_star: Extended | None = INF if has_unbounded else bounded_dT

    determinate_c = [c for c in cvals.values() if c is not None]
    c_star = min(determinate_c) if determinate_c else None

    K: Fraction | None = None
    if M is not None and P is not None and M != 2:
        K = Fraction(1) - reciprocal(M) - 2 * reciprocal(P) \
            - reciprocal((M - 2)) * reciprocal(P)

    return CurvatureReport(
        vertex_weight=weights,
        tile_perimeter=perims,
        char_value=cvals,
        vertex_curvature=kappas,
        ell_star=ell_star,
        ell_min=ell_min,
        c_star=c_star,
        M=M,
        P=P,
        K=K,
        deg_star=deg_star,
        dT_star=dT_star,
        observed=not g.is_frontier_free,
        counts={
            "frontier_free_vertices": len(free_vertices),
            "frontier_free_edges": sum(1 for c in cvals.values() if c is not None),
            "frontier_free_tiles": n_tiles,
        },
    )


@dataclass(frozen=True)
class GaussBonnetResult:
    total: Fraction
    holds: bool


def gauss_bonnet_check(g: MetricGraph) -> GaussBonnetResult:
    """Exact check of sum over edges of -c(e)|e| == 1.

    Requires a finite graph passing the tessellation checks (with the
    half-plane condition exempted); raises NotFiniteTessellation otherwise.
    """
    report = validate_tessellation(g, "finite")
    if not report.valid:
        raise NotFiniteTessellation(
            "; ".join(f"({v.condition}) {v.witness}: {v.detail}"
                      for v in report.violations))
    cvals = char_values(g)
    total = Fraction(0)
    for e in g.edges:
        total += -cvals[e] * g.length[e]
    return GaussBonnetResult(total=total, holds=total == 1)


@dataclass(frozen=True)
class DegsumResult:
    lhs: Fraction
    rhs: Fraction
    tech_rhs: Fraction
    holds: bool


def degsum_check(g: MetricGraph, sel: SubgraphSelection,
                 report: CurvatureReport | None = None) -> DegsumResult:
    """Check sum_{e in S} c(e)|e| <= deg(boundary S) and its refinement.

    The refined right-hand side is

        deg(bd S)(1 - 1/M - 2/P)
            - (1/P) * sum over interior edges of #{sides whose tile is
                                                   not contained in the interior}

    with the observed M, P of the graph.  Requires S star-like, complete
    and fully determinate.
    """
    star_like, complete = classify_subgraph(g, sel)
    if not (star_like and complete):
        raise NotStarLikeComplete(
            f"selection is star_like={star_like}, complete={complete}")
    if report is None:
        report = global_constants(g)

    lhs = Fraction(0)
    for e in sel.edges:
        c = report.char_value[e]
        if c is None:
            raise FrontierContact(f"edge {e} has indeterminate characteristic value")
        lhs += c * g.length[e]
    rhs = Fraction(sel.boundary_degree)

    cut_sides = 0
    for e in sel.interior_edges:
        for dart in g.darts_of(e):
            tile = g.tile_of(dart)
            if tile.status != BOUNDED or not tile.edges <= sel.interior_edges:
                cut_sides += 1
    inv_p = reciprocal(report.P)
    tech_rhs = rhs * (Fraction(1) - reciprocal(report.M) - 2 * inv_p) \
        - inv_p * cut_sides
    return DegsumResult(lhs=lhs, rhs=rhs, tech_rhs=tech_rhs,
                        holds=lhs <= rhs and lhs <= tech_rhs)
