"""Characteristic values, curvatures, global constants, exact identities."""

import math
import random
from fractions import Fraction

import pytest

from isotess.curvature import (
    char_values,
    degsum_check,
    gauss_bonnet_check,
    global_constants,
    vertex_curvature,
    vertex_curvatures,
    vertex_weight,
)
from isotess.errors import FrontierContact, NotFiniteTessellation
from isotess.families import GkParams, PQParams, gen_gk, gen_pq_ball
from isotess.graphcore import build_graph, subgraph_stats
from isotess.rational import INF

from conftest import finite_corpus, k4_record


def scaled(record, t: Fraction):
    out = {k: v for k, v in record.items() if k != "edges"}
    out["edges"] = [{**e, "length": str(Fraction(e["length"]) * t)}
                    for e in record["edges"]]
    return out


# --- characteristic values ---------------------------------------------------

def test_k4_char_values(k4):
    cv = char_values(k4)
    spokes = [e for e in k4.edges if 0 in k4.edge_ends[e]]
    rim = [e for e in k4.edges if 0 not in k4.edge_ends[e]]
    # spoke: 1 - 2/3 - 2/3 = -1/3; rim: 1 - 2/3 - (1/3 + 0) = 0
    assert all(cv[e] == Fraction(-1, 3) for e in spokes)
    assert all(cv[e] == 0 for e in rim)


def test_wheel5_char_values(wheel5):
    cv = char_values(wheel5)
    spokes = [e for e in wheel5.edges if 0 in wheel5.edge_ends[e]]
    rim = [e for e in wheel5.edges if 0 not in wheel5.edge_ends[e]]
    # spoke: 1 - (1/5 + 1/3) - 2/3 = -1/5
    assert all(cv[e] == Fraction(-1, 5) for e in spokes)
    assert all(cv[e] == 0 for e in rim)


def test_tree_char_value_both_tiles_unbounded():
    for p in (3, 4, 5):
        g = build_graph(gen_pq_ball(PQParams(p, math.inf), 3))
        cv = [c for c in char_values(g).values() if c is not None]
        assert cv and all(c == 1 - Fraction(2, p) for c in cv)


def test_g3_char_value_row0():
    g = build_graph(gen_gk(GkParams(k=3, rows=3, cols=3, tree_depth=2)))
    values = set(c for c in char_values(g).values() if c is not None)
    # horizontal row-0 edges: 164/77 - 2/(3 + 11/18) = 7888/5005
    assert Fraction(7888, 5005) in values


# --- vertex weights ----------------------------------------------------------

def test_vertex_weights_gk():
    rec = gen_gk(GkParams(k=3, rows=3, cols=3, tree_depth=2))
    g = build_graph(rec)
    weights = {vertex_weight(g, v) for v in g.frontier_free_vertices()}
    # V_0: k + 2/4 + 1/9 = k + 11/18; V_1: 1/9 + 2/16 + 1/25 = 497/1800
    assert Fraction(3) + Fraction(11, 18) in weights
    assert Fraction(497, 1800) in weights


def test_vertex_weight_frontier_contact():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 2))
    leaf = sorted(g.frontier_vertices)[0]
    with pytest.raises(FrontierContact):
        vertex_weight(g, leaf)


def test_equilateral_weight_is_degree(k4):
    for v in k4.vertices:
        assert vertex_weight(k4, v) == k4.degree(v)


# --- vertex curvature --------------------------------------------------------

def test_kappa_lattice_zero():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 3))
    det = {v: k for v, k in vertex_curvatures(g).items() if k is not None}
    assert det and all(k == 0 for k in det.values())


def test_kappa_37_identity():
    g = build_graph(gen_pq_ball(PQParams(3, 7), 5))
    det = {v: k for v, k in vertex_curvatures(g).items() if k is not None}
    assert det
    c37 = Fraction(1) - Fraction(2, 3) - Fraction(2, 7)
    for k in det.values():
        assert k == Fraction(-1, 14)
        assert k == -Fraction(3, 2) * c37


def test_kappa_tree_vertex():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 3))
    assert vertex_curvature(g, 0) == Fraction(-1, 2)


# --- Gauss-Bonnet ------------------------------------------------------------

def test_gauss_bonnet_corpus_unit_lengths():
    for name, record in finite_corpus():
        res = gauss_bonnet_check(build_graph(record))
        assert res.holds and res.total == 1, name


def test_gauss_bonnet_random_rational_lengths():
    rng = random.Random(1905)

    def lengths(name, m):
        return {i: Fraction(rng.randint(1, 24), rng.randint(1, 24))
                for i in range(m)}

    for name, record in finite_corpus(lengths):
        res = gauss_bonnet_check(build_graph(record))
        assert res.holds and res.total == 1, name


def test_gauss_bonnet_rejects_truncations():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 2))
    with pytest.raises(NotFiniteTessellation):
        gauss_bonnet_check(g)


# --- global constants --------------------------------------------------------

def test_tree_constants():
    for p in (3, 4, 5):
        g = build_graph(gen_pq_ball(PQParams(p, math.inf), 3))
        rep = global_constants(g)
        assert rep.M == p
        assert rep.P == INF
        assert rep.K == Fraction(p - 1, p)
        assert rep.c_star == 1 - Fraction(2, p)
        assert rep.c_star / rep.K == Fraction(p - 2, p - 1)


def test_gk_constants():
    # deep tree edges (c = 1 - 2/k, the infimum class) need tree_depth >= 3
    # to be frontier-free
    for k in (3, 4):
        g = build_graph(gen_gk(GkParams(k=k, rows=3, cols=3, tree_depth=3)))
        rep = global_constants(g)
        assert rep.M == 9 * Fraction(k) + Fraction(11, 2)
        assert rep.P == INF
        assert rep.K == Fraction(18 * k + 9, 18 * k + 11)
        assert rep.c_star == Fraction(k - 2, k)


def test_remark_chain_on_generated_graphs():
    # radii chosen so at least one tile is frontier-free
    graphs = [build_graph(gen_pq_ball(PQParams(7, 3), 2)),
              build_graph(gen_pq_ball(PQParams(4, 5), 3)),
              build_graph(gen_pq_ball(PQParams(3, math.inf), 3))]
    for g in graphs:
        rep = global_constants(g)
        assert rep.K <= 1
        assert rep.M >= rep.deg_star >= 3
        assert rep.P >= rep.dT_star >= 3
        if rep.c_star > 0:
            assert rep.K > 0
        # rough estimate: c* <= (1/ell*)(1 - 2/deg* - 2/dT*)
        rhs = (1 / rep.ell_star) * (1 - Fraction(2, rep.deg_star)
                                    - 2 * (0 if rep.dT_star == INF
                                           else Fraction(1, rep.dT_star)))
        assert rep.c_star <= rhs
        # fundamental estimate: c*/K <= ((deg*-2)/(deg*-1)) / ell*
        if rep.c_star > 0:
            assert rep.c_star / rep.K <= \
                Fraction(rep.deg_star - 2, rep.deg_star - 1) / rep.ell_star


def test_length_scaling_covariance():
    base = k4_record()
    g0 = build_graph(base)
    rep0 = global_constants(g0)
    cv0 = char_values(g0)
    for t in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        g1 = build_graph(scaled(base, t))
        rep1 = global_constants(g1)
        cv1 = char_values(g1)
        assert all(cv1[e] == cv0[e] / t for e in g0.edges)
        assert rep1.c_star == rep0.c_star / t
        assert rep1.ell_star == rep0.ell_star * t
        assert rep1.M == rep0.M and rep1.P == rep0.P and rep1.K == rep0.K
        assert rep1.vertex_curvature == rep0.vertex_curvature


# --- degree-sum inequality ---------------------------------------------------

def test_degsum_tree_star():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 3))
    sel = subgraph_stats(g, list(g.rotation[0]))
    res = degsum_check(g, sel)
    assert res.lhs == 1  # 3 edges with c = 1/3
    assert res.rhs == 3
    assert res.holds


def test_degsum_lattice_star():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 4))
    sel = subgraph_stats(g, list(g.rotation[0]))
    res = degsum_check(g, sel)
    assert res.lhs == 0 and res.rhs == 4 and res.holds


def test_degsum_rejects_non_star_like():
    from isotess.errors import NotStarLikeComplete
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 3))
    sel = subgraph_stats(g, [g.rotation[0][0]])
    with pytest.raises(NotStarLikeComplete):
        degsum_check(g, sel)


def test_empty_frontier_free_region():
    from isotess.errors import EmptyFrontierFreeRegion
    rec = {
        "vertices": [{"id": 0, "rotation": [0]}, {"id": 1, "rotation": [0]}],
        "edges": [{"id": 0, "ends": [0, 1], "length": "1"}],
        "frontier_vertices": [0, 1],
        "true_degree": {"0": 3, "1": 3},
    }
    with pytest.raises(EmptyFrontierFreeRegion):
        global_constants(build_graph(rec))
