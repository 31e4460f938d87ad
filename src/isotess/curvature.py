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

Every value is exact and normalised once.  Weights are sums over the lcm
of their terms' denominators (:func:`~isotess.rational.exact_sum`).  The
Gauss-Bonnet total and the degsum left-hand side add each c(e)|e| as the
unnormalised int pair (numerator product, denominator product) with
:func:`~isotess.rational.scaled_sum`.  c(e) and the vertex curvature
kappa(v) are built from the integer numerators and denominators of their
terms (1/(n/d) = d/n) as one Fraction each; the maxima M and P are
compared by cross-multiplication, and only the winner becomes a Fraction.
"""

from __future__ import annotations

import math
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
from .rational import INF, Extended, exact_sum, reciprocal, scaled_sum


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
    return exact_sum([g.length[e] for e in g.rotation[v]])


def _weights(g: MetricGraph) -> dict[int, Fraction | None]:
    fr, length, rotation = g.frontier_vertices, g.length, g.rotation
    return {v: None if v in fr else exact_sum([length[e] for e in rotation[v]])
            for v in g.vertices}


def char_values(g: MetricGraph) -> dict[int, Fraction | None]:
    return _char_values(g, _weights(g))


def _char_values(g: MetricGraph, weights: dict[int, Fraction | None]
                 ) -> dict[int, Fraction | None]:
    """c(e) for every edge, given the weights m(v).

    The subtracted reciprocals 1/m(v) and 1/p(T) are kept as int pairs
    (d, n) for d/n: 1/(n/d) = d/n, and 1/p = 0/1 on an unbounded tile.
    None marks a frontier vertex or an indeterminate tile.
    """
    inv_m = {v: None if w is None else (w.denominator, w.numerator)
             for v, w in weights.items()}
    inv_p = [(t.perimeter.denominator, t.perimeter.numerator) if t.status == BOUNDED
             else (0, 1) if t.status == UNBOUNDED else None for t in g.tiles]
    dart_tile, length = g.dart_tile, g.length
    out: dict[int, Fraction | None] = {}
    for e in g.edges:
        a, b = g.edge_ends[e]
        terms = (inv_m[a], inv_m[b], inv_p[dart_tile[(e, a)]], inv_p[dart_tile[(e, b)]])
        if None in terms:
            out[e] = None
            continue
        ell = length[e]
        den = math.lcm(ell.numerator, *[n for _, n in terms])
        out[e] = Fraction(ell.denominator * (den // ell.numerator)
                          - sum([d * (den // n) for d, n in terms]), den)
    return out


def _corner_degrees(g: MetricGraph, v: int) -> list[int] | None:
    """Degrees of the bounded tiles at the corners of v; None if one is indeterminate."""
    degrees = []
    for e in g.rotation[v]:
        tile = g.tiles[g.dart_tile[(e, v)]]
        if tile.status == BOUNDED:
            degrees.append(tile.degree)
        elif tile.status == INDETERMINATE:
            return None
    return degrees


def _kappa(degree: int, corner_degrees: list[int]) -> Fraction:
    """1 - degree/2 + sum of 1/d over ``corner_degrees``, over their lcm."""
    den = math.lcm(2, *corner_degrees)
    return Fraction(den - degree * (den // 2) + sum([den // d for d in corner_degrees]), den)


def vertex_curvature(g: MetricGraph, v: int) -> Fraction:
    """1 - deg(v)/2 + sum over the corners at v of 1/d_T.

    Unbounded tiles contribute 0 (the same convention as 1/p(T) = 0);
    indeterminate corners make the value unavailable.
    """
    if v in g.frontier_vertices:
        raise FrontierContact(f"vertex {v} is a frontier vertex")
    degrees = _corner_degrees(g, v)
    if degrees is None:
        raise FrontierContact(f"corner tile of vertex {v} touches the frontier")
    return _kappa(g.degree(v), degrees)


def vertex_curvatures(g: MetricGraph) -> dict[int, Fraction | None]:
    out: dict[int, Fraction | None] = {}
    for v in g.vertices:
        degrees = None if v in g.frontier_vertices else _corner_degrees(g, v)
        out[v] = None if degrees is None else _kappa(g.degree(v), degrees)
    return out


def _max_ratio(pairs) -> Fraction | None:
    """max of x/y over (x, y) pairs of positive Fractions; None when empty.

    Candidates are compared by cross-multiplication; only the winner
    becomes a Fraction.
    """
    best_num, best_den = 0, 0
    for x, y in pairs:
        num, den = x.numerator * y.denominator, x.denominator * y.numerator
        if not best_den or num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den) if best_den else None


def global_constants(g: MetricGraph) -> CurvatureReport:
    """All global constants, over the frontier-free region.

    M = sup m(v)/min incident length, P = sup p(T)/min boundary length
    (infinite as soon as one unbounded tile exists), K = 1 - 1/M - 2/P -
    1/((M-2)P).  On truncations these are observed values.
    """
    weights = _weights(g)
    cvals = _char_values(g, weights)
    kappas = vertex_curvatures(g)

    free_vertices = [v for v in g.vertices if weights[v] is not None]
    if not free_vertices:
        raise EmptyFrontierFreeRegion("every vertex touches the frontier")

    length = g.length
    ell_star = max(length.values())
    ell_min = min(length.values())

    # M = max over v of m(v)/min_{e at v} |e| = max over v and e at v of m(v)/|e|
    M = _max_ratio((weights[v], length[e]) for v in free_vertices for e in g.rotation[v])
    deg_star = max(g.degree(v) for v in free_vertices)

    perims: dict[int, Extended | None] = {t.index: t.perimeter for t in g.tiles}
    bounded = [t for t in g.tiles if t.status == BOUNDED]
    n_unbounded = sum(t.status == UNBOUNDED for t in g.tiles)
    P: Extended | None
    dT_star: Extended | None
    if n_unbounded:
        P = dT_star = INF
    else:
        P = _max_ratio((t.perimeter, length[e]) for t in bounded for e in t.edges)
        dT_star = max((t.degree for t in bounded), default=None)

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
            "frontier_free_tiles": len(bounded) + n_unbounded,
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
    cvals, length = char_values(g), g.length
    num, scale = scaled_sum([(cvals[e].numerator * length[e].numerator,
                              cvals[e].denominator * length[e].denominator)
                             for e in g.edges])
    total = Fraction(-num, scale)
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

    terms = []
    parts = g.length_parts
    for e in sel.edges:
        c = report.char_value[e]
        if c is None:
            raise FrontierContact(f"edge {e} has indeterminate characteristic value")
        n, d = parts[e]
        terms.append((c.numerator * n, c.denominator * d))
    lhs = Fraction(*scaled_sum(terms))
    rhs = Fraction(sel.boundary_degree)

    inner, ends = sel.interior_vertices, g.edge_ends
    interior_edges = {e for e in sel.edges if ends[e][0] in inner and ends[e][1] in inner}
    cut_sides = 0
    for e in interior_edges:
        for dart in g.darts_of(e):
            tile = g.tile_of(dart)
            if tile.status != BOUNDED or not tile.edges <= interior_edges:
                cut_sides += 1
    inv_p = reciprocal(report.P)
    tech_rhs = rhs * (Fraction(1) - reciprocal(report.M) - 2 * inv_p) \
        - inv_p * cut_sides
    return DegsumResult(lhs=lhs, rhs=rhs, tech_rhs=tech_rhs,
                        holds=lhs <= rhs and lhs <= tech_rhs)
