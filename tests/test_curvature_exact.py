"""Differential check of the exact curvature data against plain Fraction formulas.

The ``_reference_*`` functions below compute every curvature quantity the
straightforward way, one Fraction operation per term: edge lengths parsed
per edge, weights m(v), tile perimeters p(T), characteristic values c(e),
vertex curvatures kappa(v), the constants ell*, ell_min, M, P, K, c_*,
deg*, d_T* and the Gauss-Bonnet total, and both sides of the degree-sum
inequalities of a star-like complete subgraph.  ``build_graph``,
``global_constants``, ``gauss_bonnet_check`` and ``degsum_check`` must
agree with them field by field, value and type, on seeded random
tessellations, family truncations and the finite corpus with seeded
rational lengths.  A failure names its seed; ``random.Random`` with that
string replays it.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from isotess.curvature import (
    degsum_check,
    gauss_bonnet_check,
    global_constants,
    vertex_curvature,
    vertex_weight,
)
from isotess.errors import FrontierContact
from isotess.families import (
    GkParams,
    PQParams,
    gen_gk,
    gen_nonequilateral_tree,
    gen_pq_ball,
)
from isotess.graphcore import BOUNDED, INDETERMINATE, UNBOUNDED, build_graph, subgraph_stats
from isotess.isoperimetry import enumerate_starlike_complete
from isotess.rational import INF

from conftest import finite_corpus
from test_closure_local import _distances

# lengths as an input file may spell them: "p/q", integers and decimals
LENGTH_POOL = ["1", "2", "3/2", "0.25", "7/3", "5/8", "1.5", "9/7", "4/9", "0.2", " 6/4 "]


def _relength(record: dict, rng: random.Random) -> dict:
    for item in record["edges"]:
        if rng.random() < 0.5:
            item["length"] = rng.choice(LENGTH_POOL)
        else:
            item["length"] = f"{rng.randint(1, 12)}/{rng.randint(1, 12)}"
    return record


def _respell(record: dict) -> dict:
    """Every length written as a spelling of its own, k p / k q for edge k."""
    for k, item in enumerate(record["edges"], start=1):
        ell = Fraction(item["length"].strip())
        item["length"] = f"{k * ell.numerator}/{k * ell.denominator}"
    return record


# ---------------------------------------------------------------------------
# the reference formulas
# ---------------------------------------------------------------------------

def _reference_lengths(record):
    return {item["id"]: Fraction(item["length"].strip()) for item in record["edges"]}


def _reference_weights(g):
    return {v: None if v in g.frontier_vertices
            else sum((g.length[e] for e in g.rotation[v]), Fraction(0))
            for v in g.vertices}


def _reference_perimeter(g, tile):
    if tile.status == UNBOUNDED:
        return INF
    if tile.status == INDETERMINATE:
        return None
    return sum((g.length[e] for e in tile.edges), Fraction(0))


def _reference_char_values(g, weights):
    out = {}
    for e in g.edges:
        a, b = g.edge_ends[e]
        if weights[a] is None or weights[b] is None:
            out[e] = None
            continue
        value = Fraction(1) / g.length[e] - Fraction(1) / weights[a] - Fraction(1) / weights[b]
        for dart in g.darts_of(e):
            tile = g.tiles[g.dart_tile[dart]]
            if tile.status == INDETERMINATE:
                value = None
                break
            if tile.status == BOUNDED:
                value -= Fraction(1) / _reference_perimeter(g, tile)
        out[e] = value
    return out


def _reference_kappa(g, v):
    if v in g.frontier_vertices:
        return None
    value = Fraction(1) - Fraction(g.degree(v), 2)
    for e in g.rotation[v]:
        tile = g.tiles[g.dart_tile[g.dart(e, v)]]
        if tile.status == INDETERMINATE:
            return None
        if tile.status == BOUNDED:
            value += Fraction(1, tile.degree)
    return value


def _reference_constants(g):
    weights = _reference_weights(g)
    cvals = _reference_char_values(g, weights)
    free = [v for v in g.vertices if weights[v] is not None]
    M = max((weights[v] / min(g.length[e] for e in g.rotation[v]) for v in free),
            default=None)
    deg_star = max((g.degree(v) for v in free), default=None)
    unbounded = any(t.status == UNBOUNDED for t in g.tiles)
    bounded = [t for t in g.tiles if t.status == BOUNDED]
    if unbounded:
        P, dT_star = INF, INF
    else:
        P = max((_reference_perimeter(g, t) / min(g.length[e] for e in t.edges)
                 for t in bounded), default=None)
        dT_star = max((t.degree for t in bounded), default=None)
    K = None
    if M is not None and P is not None and M != 2:
        inv_p = Fraction(0) if P == INF else Fraction(1) / P
        K = Fraction(1) - Fraction(1) / M - 2 * inv_p - Fraction(1) / (M - 2) * inv_p
    determinate = [c for c in cvals.values() if c is not None]
    return {
        "vertex_weight": weights,
        "tile_perimeter": {t.index: _reference_perimeter(g, t) for t in g.tiles},
        "char_value": cvals,
        "vertex_curvature": {v: _reference_kappa(g, v) for v in g.vertices},
        "ell_star": max(g.length.values()),
        "ell_min": min(g.length.values()),
        "c_star": min(determinate) if determinate else None,
        "M": M,
        "P": P,
        "K": K,
        "deg_star": deg_star,
        "dT_star": dT_star,
        "observed": bool(g.frontier_vertices),
        "counts": {
            "frontier_free_vertices": len(free),
            "frontier_free_edges": len(determinate),
            "frontier_free_tiles": len(bounded) + sum(t.status == UNBOUNDED for t in g.tiles),
        },
    }


def _reference_gauss_bonnet(g):
    cvals = _reference_char_values(g, _reference_weights(g))
    total = Fraction(0)
    for e in g.edges:
        total += -cvals[e] * g.length[e]
    return total


def _reference_degsum(g, sel, report):
    """(lhs, rhs, tech_rhs, holds), the interior edges and each side's tile
    read edge by edge."""
    lhs = sum((report.char_value[e] * g.length[e] for e in sel.edges), Fraction(0))
    rhs = Fraction(sel.boundary_degree)
    interior = {e for e in sel.edges if set(g.edge_ends[e]) <= sel.interior_vertices}
    cut_sides = 0
    for e in interior:
        for dart in g.darts_of(e):
            tile = g.tiles[g.dart_tile[dart]]
            if tile.status != BOUNDED or not tile.edges <= interior:
                cut_sides += 1
    inv_p = Fraction(0) if report.P == INF else Fraction(1) / report.P
    tech_rhs = rhs * (Fraction(1) - Fraction(1) / report.M - 2 * inv_p) - inv_p * cut_sides
    return lhs, rhs, tech_rhs, lhs <= rhs and lhs <= tech_rhs


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _same(got, want) -> bool:
    """Equal, and of the same type (an int or a float never stands in for a Fraction)."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() \
            and all(_same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


def _check_graph(record: dict, seed: str) -> None:
    g = build_graph(record)
    assert _same(dict(g.length), _reference_lengths(record)), seed
    for t in g.tiles:
        assert _same(t.perimeter, _reference_perimeter(g, t)), (seed, t.index)

    report = global_constants(g)
    want = _reference_constants(g)
    for name, value in want.items():
        assert _same(getattr(report, name), value), (seed, name)

    for v in g.vertices:
        if v in g.frontier_vertices:
            with pytest.raises(FrontierContact):
                vertex_weight(g, v)
        else:
            assert _same(vertex_weight(g, v), want["vertex_weight"][v]), (seed, v)
        kappa = want["vertex_curvature"][v]
        if kappa is None:
            with pytest.raises(FrontierContact):
                vertex_curvature(g, v)
        else:
            assert _same(vertex_curvature(g, v), kappa), (seed, v)


RANDOM_SEEDS = [f"random:{i}" for i in range(30)]


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_tessellation_matches_reference(random_tessellation, seed):
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(1, 80))
    _check_graph(record, seed)
    g = build_graph(record)
    result = gauss_bonnet_check(g)
    assert _same(result.total, _reference_gauss_bonnet(g)), seed
    # the identities the paper supplies hold exactly on every finite tessellation
    report = global_constants(g)
    total = sum((-report.char_value[e] * g.length[e] for e in g.edges), Fraction(0))
    assert total == 1 and result.total == 1 and result.holds, seed
    assert len(g.vertices) - len(g.edges) + len(g.tiles) == 2, seed


FAMILIES = {
    "pq73r3": lambda: gen_pq_ball(PQParams(7, 3), 3),
    "pq44r4": lambda: gen_pq_ball(PQParams(4, 4), 4),
    "pq37r3": lambda: gen_pq_ball(PQParams(3, 7), 3),
    "tree3r3": lambda: gen_pq_ball(PQParams(3, float("inf")), 3),
    "gk3": lambda: gen_gk(GkParams(k=3)),
    "netree63": lambda: gen_nonequilateral_tree(6, 3),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("relength", [False, True], ids=["family", "rational"])
def test_family_truncation_matches_reference(name, relength):
    seed = f"family:{name}:{relength}"
    record = FAMILIES[name]()
    if relength:
        _relength(record, random.Random(seed))
    _check_graph(record, seed)


@pytest.mark.parametrize("index", range(5))
def test_finite_corpus_matches_reference(index):
    for variant in range(5):
        seed = f"corpus:{index}:{variant}"
        rng = random.Random(seed)
        name, record = finite_corpus()[index]
        if variant:
            _relength(record, rng)
        if variant == 4:  # no two edges share a length object
            _respell(record)
        _check_graph(record, f"{seed}:{name}")
        g = build_graph(record)
        result = gauss_bonnet_check(g)
        assert _same(result.total, _reference_gauss_bonnet(g)), seed
        assert result.holds and result.total == 1, seed


def _check_degsum(g, sels, seed: str) -> None:
    report = global_constants(g)
    assert sels, seed
    for k, sel in enumerate(sels):
        got = degsum_check(g, sel, report=report)
        want = _reference_degsum(g, sel, report)
        assert _same([got.lhs, got.rhs, got.tech_rhs, got.holds], list(want)), (seed, k)


@pytest.mark.parametrize("seed", [f"degsum:{i}" for i in range(20)])
@pytest.mark.parametrize("outer", [True, False], ids=["outer", "closed"])
def test_random_degsum_matches_reference(random_tessellation, seed, outer):
    # without its unbounded mark the outer face is a bounded tile, so P is
    # finite and the cut sides count in the refined right-hand side
    rng = random.Random(seed)
    record = _relength(random_tessellation(rng, rng.randint(1, 20)), rng)
    if not outer:
        record["unbounded_face_reps"] = []
    g = build_graph(record)
    _check_degsum(g, enumerate_starlike_complete(g, 3)[0], seed)


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("outer", [True, False], ids=["outer", "closed"])
def test_whole_finite_graph_degsum(index, outer):
    # S = G: every vertex interior, no boundary, and every side of every
    # tile, the outer one too, lies between interior vertices, so no side
    # is cut.  Gauss-Bonnet gives lhs = -1 in the plane and -2 when the
    # outer face is a tile too; the refined side is 0 either way, by
    # 1/P = 0 or by no cut side
    seed = f"degsum-whole:{index}"
    name, record = finite_corpus()[index]
    record = _relength(record, random.Random(seed))
    if not outer:
        record["unbounded_face_reps"] = []
    g = build_graph(record)
    report = global_constants(g)
    assert (report.P == INF) is outer, name
    got = degsum_check(g, subgraph_stats(g, g.edges), report=report)
    assert _same([got.lhs, got.rhs, got.tech_rhs, got.holds],
                 [Fraction(-1 if outer else -2), Fraction(0), Fraction(0), True]), name
    assert _same([got.lhs, got.rhs, got.tech_rhs, got.holds],
                 list(_reference_degsum(g, subgraph_stats(g, g.edges), report))), name


@pytest.mark.parametrize("p,q,radius", [(4, 4, 5), (3, 7, 6), (7, 3, 4)])
def test_family_degsum_matches_reference(p, q, radius):
    # the criterion-8 sweep: generators within distance 2 of vertex 0
    g = build_graph(gen_pq_ball(PQParams(p, q), radius))
    gens = sorted(_distances(g, 0, limit=2))
    _check_degsum(g, enumerate_starlike_complete(g, 6, generators_from=gens)[0],
                  f"degsum:pq{p}{q}r{radius}")


# ---------------------------------------------------------------------------
# one value per distinct local configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("relength", [False, True], ids=["family", "rational"])
def test_distinct_spellings_give_the_same_constants(name, relength):
    # build_graph shares one length object per spelling, and the memos key
    # on those objects: with no two edges sharing one, every value is
    # computed afresh and must come out the same
    seed = f"respell:{name}:{relength}"
    record = FAMILIES[name]()
    if relength:
        _relength(record, random.Random(seed))
    plain = build_graph(record)
    respelled = build_graph(_respell(record))
    assert len(set(map(id, respelled.length.values()))) == len(respelled.edges)
    want, got = global_constants(plain), global_constants(respelled)
    for field in dataclasses.fields(want):
        assert _same(getattr(got, field.name), getattr(want, field.name)), (seed, field.name)
    _check_graph(record, seed)


def test_one_object_per_distinct_value():
    # on pq(7,3) r4 every determinate weight, characteristic value, vertex
    # curvature and bounded perimeter is the same value, held by one object
    g = build_graph(gen_pq_ball(PQParams(7, 3), 4))
    report = global_constants(g)
    for name in ("vertex_weight", "char_value", "vertex_curvature", "tile_perimeter"):
        values = [x for x in getattr(report, name).values() if x is not None]
        assert values, name
        assert len(set(map(id, values))) == len(set(values)) == 1, name
    assert len(report.char_value) == 546 and report.counts["frontier_free_edges"] == 140
