"""Pointwise and global curvature-type quantities.

The characteristic value of an edge e is

    c(e) = 1/|e| - sum_{v in e} 1/m(v) - sum over the two sides of e of 1/p(T),

where m(v) is the total length of the star at v and p(T) the perimeter of
the tile on that side (1/p = 0 for unbounded tiles).  Each side of an edge
is resolved through its dart (the i-th edge's sides are darts 2i and
2i + 1, read off ``g.dart_tile``), so a truncation where both sides trace
into the same unbounded face still contributes two (zero) tile terms,
matching the two distinct unbounded tiles of the infinite graph.  The
corners at a vertex are the tiles of ``g.rotation_darts[v]``.

Quantities touching a frontier vertex or an indeterminate tile are None
(indeterminate), never silently wrong.

Every value is exact and normalised once, and computed once per distinct
local configuration: m(v) per sequence of star lengths in rotation order,
c(e) per |e| and the four reciprocals it subtracts, and kappa(v) per
deg(v) and multiset of bounded corner degrees.  The keys are the ids of
shared objects, so no Fraction is hashed: ``build_graph`` hands one length
to every edge with the same spelling and one perimeter to every tile with
the same boundary lengths in the order of its edge set, and
:func:`_weights` one m(v) to every star with the same lengths in rotation
order.  Equal values held by distinct objects ("1/2" and "2/4", or one
multiset in two orders) are computed once per object.  ell*, ell_min, M,
P, c_* and deg* are taken over the distinct values, and the Gauss-Bonnet
total over the distinct c(e)|e|, each times its number of edges.

Weights, the Gauss-Bonnet total and the degsum left-hand side are
:func:`~isotess.rational.scaled_sum` sums of int pairs, over the lcm of
their own terms, normalised once.  c(e) and kappa(v) are built from the
integer numerators and denominators of their terms (1/(n/d) = d/n) as
one Fraction each; the maxima M and P and the minimum c_* are compared by
cross-multiplication, and only the winner of M and P becomes a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    EmptyFrontierFreeRegion,
    FrontierContact,
    NotFiniteTessellation,
    NotStarLikeComplete,
)
from .graphcore import (
    BOUNDED,
    UNBOUNDED,
    MetricGraph,
    SubgraphSelection,
    Tile,
    classify_subgraph,
    validate_tessellation,
)
from .rational import INF, Extended, reciprocal, scaled_sum


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

    @cached_property
    def refined_terms(self) -> tuple[Fraction, Fraction]:
        """(1 - 1/M - 2/P, 1/P): the factor of deg(bd S) in the refined
        degree-sum bound and the weight of its cut sides, once per report."""
        inv_p = reciprocal(self.P)
        return Fraction(1) - reciprocal(self.M) - 2 * inv_p, inv_p


def vertex_weight(g: MetricGraph, v: int) -> Fraction:
    """m(v): total length of the star at v."""
    if v in g.frontier_vertices:
        raise FrontierContact(f"vertex {v} is a frontier vertex")
    return Fraction(*scaled_sum([(ell.numerator, ell.denominator)
                                 for ell in map(g.length.__getitem__, g.rotation[v])]))


def _weights(g: MetricGraph) -> tuple[dict[int, Fraction | None], list[list],
                                      dict[int, tuple[int, int]]]:
    """m(v) for every vertex, None on the frontier; one entry [m(v), (numerator,
    denominator) of m(v), key, number of vertices] per distinct star, keyed
    on the ids of its length objects in rotation order; and the
    (numerator, denominator) of each distinct length object, by id."""
    fr, length, rotation = g.frontier_vertices, g.length, g.rotation
    lengths = dict(zip(map(id, length.values()), length.values()))
    parts = {k: (x.numerator, x.denominator) for k, x in lengths.items()}
    memo: dict[tuple[int, ...], list] = {}
    out: dict[int, Fraction | None] = {}
    for v in g.vertices:
        if v in fr:
            out[v] = None
            continue
        key = tuple(map(id, map(length.__getitem__, rotation[v])))
        entry = memo.get(key)
        if entry is None:
            m = Fraction(*scaled_sum([parts[k] for k in key]))
            entry = memo[key] = [m, (m.numerator, m.denominator), key, 0]
        entry[3] += 1
        out[v] = entry[0]
    return out, list(memo.values()), parts


def char_values(g: MetricGraph) -> dict[int, Fraction | None]:
    return _char_values(g, *_weights(g)[:2])[0]


# 1/p(T) as an int pair (d, n) on an unbounded tile
_UNBOUNDED_RECIPROCAL = (0, 1)


def _char_values(g: MetricGraph, weights: dict[int, Fraction | None], stars: list[list]
                 ) -> tuple[dict[int, Fraction | None], list[list]]:
    """c(e) for every edge, given the weights m(v) and their entries from
    :func:`_weights`, and one entry [c(e), |e|, number of edges] per
    distinct configuration.

    The subtracted reciprocals 1/m(v) and 1/p(T) are int pairs (d, n) for
    d/n: 1/(n/d) = d/n, and 1/p = 0/1 on an unbounded tile; tiles whose
    perimeter is one object share one pair.  None marks a frontier vertex
    or an indeterminate tile.  A configuration is keyed on the ids of |e|,
    the two weights and the two tiles' pairs.
    """
    inv_m = {id(m): (d, n) for m, (n, d), _, _ in stars}
    pairs: dict[int, tuple[int, int]] = {}
    inv_p: list[tuple[int, int] | None] = []
    for t in g.tiles:
        if t.status == BOUNDED:
            p = t.perimeter
            pair = pairs.get(id(p))
            if pair is None:
                pair = pairs[id(p)] = (p.denominator, p.numerator)
        else:
            pair = _UNBOUNDED_RECIPROCAL if t.status == UNBOUNDED else None
        inv_p.append(pair)
    heads, dart_tile, length = g.dart_head, g.dart_tile, g.length
    memo: dict[tuple[int, ...], list] = {}
    out: dict[int, Fraction | None] = {}
    # edge i's sides are its darts 2i and 2i + 1
    for e, a, b, ta, tb in zip(g.edges, heads[::2], heads[1::2],
                               dart_tile[::2], dart_tile[1::2]):
        ma, mb = weights[a], weights[b]
        pa, pb = inv_p[ta], inv_p[tb]
        if ma is None or mb is None or pa is None or pb is None:
            out[e] = None
            continue
        ell = length[e]
        key = (id(ell), id(ma), id(mb), id(pa), id(pb))
        entry = memo.get(key)
        if entry is None:
            n, d = ell.numerator, ell.denominator
            (da, na), (db, nb), (dt, nt), (du, nu) = inv_m[key[1]], inv_m[key[2]], pa, pb
            den = math.lcm(n, na, nb, nt, nu)
            c = Fraction(d * (den // n) - da * (den // na) - db * (den // nb)
                         - dt * (den // nt) - du * (den // nu), den)
            entry = memo[key] = [c, ell, 0]
        entry[2] += 1
        out[e] = entry[0]
    return out, list(memo.values())


def _corner(tile: Tile) -> int | None:
    """A corner's tile degree in kappa(v): 0 on an unbounded tile, whose
    1/d_T is taken as 0, and None on an indeterminate one."""
    if tile.status == BOUNDED:
        return tile.degree
    return 0 if tile.status == UNBOUNDED else None


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
    degrees = [_corner(g.tiles[g.dart_tile[d]]) for d in g.rotation_darts[v]]
    if None in degrees:
        raise FrontierContact(f"corner tile of vertex {v} touches the frontier")
    return _kappa(g.degree(v), list(filter(None, degrees)))


def vertex_curvatures(g: MetricGraph) -> dict[int, Fraction | None]:
    """kappa(v) for every vertex, None where it is unavailable; one
    Fraction per distinct deg(v) and multiset of bounded corner degrees."""
    corner = list(map(_corner, g.tiles))
    fr, into, dart_tile = g.frontier_vertices, g.rotation_darts, g.dart_tile
    memo: dict[tuple[int, ...], Fraction] = {}
    out: dict[int, Fraction | None] = {}
    for v in g.vertices:
        if v in fr:
            out[v] = None
            continue
        darts = into[v]
        degrees = [corner[dart_tile[d]] for d in darts]
        if None in degrees:
            out[v] = None
            continue
        key = (len(darts), *sorted(filter(None, degrees)))
        kappa = memo.get(key)
        if kappa is None:
            kappa = memo[key] = _kappa(key[0], key[1:])
        out[v] = kappa
    return out


def _max_ratio(pairs) -> Fraction | None:
    """max of x/y over pairs (x, y) of positive rationals, each given as its
    (numerator, denominator) ints; None when empty.

    Candidates are compared by cross-multiplication; only the winner
    becomes a Fraction.
    """
    best_num, best_den = 0, 0
    for (xn, xd), (yn, yd) in pairs:
        num, den = xn * yd, xd * yn
        if not best_den or num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den) if best_den else None


def global_constants(g: MetricGraph) -> CurvatureReport:
    """All global constants, over the frontier-free region.

    M = sup m(v)/min incident length, P = sup p(T)/min boundary length
    (infinite as soon as one unbounded tile exists), K = 1 - 1/M - 2/P -
    1/((M-2)P).  On truncations these are observed values.
    """
    weights, stars, parts = _weights(g)
    cvals, configs = _char_values(g, weights, stars)
    kappas = vertex_curvatures(g)

    if not stars:
        raise EmptyFrontierFreeRegion("every vertex touches the frontier")

    lengths = dict(zip(map(id, g.length.values()), g.length.values())).values()
    ell_star = max(lengths)
    ell_min = min(lengths)

    # M = max over v of m(v)/min_{e at v} |e| = max over v and e at v of m(v)/|e|
    M = _max_ratio((m, parts[k]) for _, m, key, _ in stars for k in key)
    deg_star = max(len(key) for _, _, key, _ in stars)

    perims: dict[int, Extended | None] = {t.index: t.perimeter for t in g.tiles}
    bounded = [t for t in g.tiles if t.status == BOUNDED]
    n_unbounded = sum(t.status == UNBOUNDED for t in g.tiles)
    P: Extended | None
    dT_star: Extended | None
    if n_unbounded:
        P = dT_star = INF
    else:
        # P = max over T and e on T of p(T)/|e|: the tiles that share a
        # perimeter object are one group, with the lengths of all their edges
        length = g.length
        groups: dict[int, tuple[tuple[int, int], set[int]]] = {}
        for t in bounded:
            group = groups.get(id(t.perimeter))
            if group is None:
                p = t.perimeter
                group = groups[id(p)] = ((p.numerator, p.denominator), set())
            group[1].update(map(id, map(length.__getitem__, t.edges)))
        P = _max_ratio((p, parts[k]) for p, keys in groups.values() for k in keys)
        dT_star = max((t.degree for t in bounded), default=None)

    c_star = None  # the least c(e), compared by cross-multiplication
    for c, _, _ in configs:
        if c_star is None or c.numerator * c_star.denominator < c_star.numerator * c.denominator:
            c_star = c

    report = CurvatureReport(
        vertex_weight=weights,
        tile_perimeter=perims,
        char_value=cvals,
        vertex_curvature=kappas,
        ell_star=ell_star,
        ell_min=ell_min,
        c_star=c_star,
        M=M,
        P=P,
        K=None,
        deg_star=deg_star,
        dT_star=dT_star,
        observed=not g.is_frontier_free,
        counts={
            "frontier_free_vertices": sum(n for _, _, _, n in stars),
            "frontier_free_edges": sum(n for _, _, n in configs),
            "frontier_free_tiles": len(bounded) + n_unbounded,
        },
    )
    if M is not None and P is not None and M != 2:
        factor, inv_p = report.refined_terms
        report.K = factor - reciprocal(M - 2) * inv_p
    return report


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
    _, configs = _char_values(g, *_weights(g)[:2])
    num, scale = scaled_sum([(n * c.numerator * ell.numerator, c.denominator * ell.denominator)
                             for c, ell, n in configs])
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

    Cost, beyond the classification: the left-hand side adds |S| int pairs
    and builds one Fraction.  The sides of the interior edges are the darts
    into each interior vertex from another, read off ``g.rotation_darts``
    and counted per tile with no bisection, and a tile's sides are cut
    unless all of its darts are among them.  1 - 1/M - 2/P and 1/P come
    from ``report.refined_terms``, taken once per report.

    A tile all of whose darts are such sides need not be bounded for its
    sides to count as not cut.  Its edges are interior edges, so they are
    in S.  Were it indeterminate, their c(e) would be None, and the
    left-hand side would have raised FrontierContact.  Were it unbounded,
    P would be infinite and 1/P = 0, so its sides would weigh nothing
    either way.
    """
    star_like, complete = classify_subgraph(g, sel)
    if not (star_like and complete):
        raise NotStarLikeComplete(
            f"selection is star_like={star_like}, complete={complete}")
    if report is None:
        report = global_constants(g)

    terms = []
    for e in sel.edges:
        c = report.char_value[e]
        if c is None:
            raise FrontierContact(f"edge {e} has indeterminate characteristic value")
        ell = g.length[e]
        terms.append((c.numerator * ell.numerator, c.denominator * ell.denominator))
    lhs = Fraction(*scaled_sum(terms))
    rhs = Fraction(sel.boundary_degree)

    # the sides of the interior edges are the darts into an interior vertex
    # from another; counted per tile, a side is not cut when every dart of
    # its tile's cycle is one of them (docstring: the tile's status is moot)
    inner, head, dart_tile, tiles = sel.interior_vertices, g.dart_head, g.dart_tile, g.tiles
    sides: dict[int, int] = {}
    for v in inner:
        for d in g.rotation_darts[v]:
            if head[d ^ 1] in inner:
                t = dart_tile[d]
                sides[t] = sides.get(t, 0) + 1
    cut_sides = sum(n for t, n in sides.items() if n != len(tiles[t].cycle))
    factor, inv_p = report.refined_terms
    tech_rhs = rhs * factor - inv_p * cut_sides
    return DegsumResult(lhs=lhs, rhs=rhs, tech_rhs=tech_rhs,
                        holds=lhs <= rhs and lhs <= tech_rhs)
