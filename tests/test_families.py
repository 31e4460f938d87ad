"""Generators and closed forms for the example families."""

import math
from fractions import Fraction

import pytest

from isotess.curvature import char_values, global_constants
from isotess.errors import (
    FamilyMismatch,
    NegativeCurvatureParams,
    ParamTooSmall,
    RadiusTooSmall,
    TruncationTooShallow,
)
from isotess.families import (
    GkParams,
    PQParams,
    closed_forms_pq,
    gen_gk,
    gen_nonequilateral_tree,
    gen_pq_ball,
    gk_closed_constants,
    gk_witness_sequence,
    read_family,
)
from isotess.graphcore import build_graph, subgraph_stats, validate_tessellation
from isotess.interchange import dumps_record, load_record, save
from isotess.rational import Surd

from conftest import record_from_coords, wheel_record


def test_pq_params_validation():
    with pytest.raises(NegativeCurvatureParams):
        PQParams(3, 3)
    with pytest.raises(NegativeCurvatureParams):
        PQParams(3, 5)
    with pytest.raises(ParamTooSmall):
        PQParams(2, 7)
    assert PQParams(3, 6).char_value == 0
    assert PQParams(3, math.inf).char_value == Fraction(1, 3)


def test_pq_ball_structure():
    for p, q, r in [(4, 4, 3), (3, 6, 3), (6, 3, 3), (3, 7, 3), (7, 3, 2), (4, 5, 2)]:
        g = build_graph(gen_pq_ball(PQParams(p, q), r))
        assert len(g.vertices) - len(g.edges) + len(g.tiles) == 2
        for v in g.frontier_free_vertices():
            assert g.degree(v) == p
        for t in g.tiles:
            if t.status == "bounded":
                assert t.degree == q
        assert validate_tessellation(g, "truncation").valid


def test_pq_ball_44_counts_match_lattice():
    # diamond ball of Z^2: 2r^2+2r+1 vertices, 4r^2 edges,
    # 2r(r-1) interior unit squares
    for r in (2, 3, 4):
        g = build_graph(gen_pq_ball(PQParams(4, 4), r))
        assert len(g.vertices) == 2 * r * r + 2 * r + 1
        assert len(g.edges) == 4 * r * r
        assert sum(t.status != "unbounded" and t.degree == 4 and
                   len(t.cycle) == 4 for t in g.tiles) >= 2 * r * (r - 1)
        bounded = [t for t in g.tiles if t.status == "bounded"]
        assert all(t.degree == 4 for t in bounded)


def test_pq_ball_deterministic():
    a = dumps_record(gen_pq_ball(PQParams(3, 7), 3))
    b = dumps_record(gen_pq_ball(PQParams(3, 7), 3))
    assert a == b


def test_pq_ball_radius_too_small():
    with pytest.raises(RadiusTooSmall):
        gen_pq_ball(PQParams(4, 4), 0)


def test_tree_ball_root_degree():
    g = build_graph(gen_pq_ball(PQParams(5, math.inf), 2))
    assert g.degree(0) == 5
    assert len(g.tiles) == 1 and g.tiles[0].status == "unbounded"


def test_roundtrip_through_file(tmp_path):
    record = gen_pq_ball(PQParams(3, 7), 3)
    path = tmp_path / "g.json"
    save(record, path)
    again = load_record(path)
    g1, g2 = build_graph(record), build_graph(again)
    assert g1.edge_ends == g2.edge_ends
    assert g1.length == g2.length
    assert g1.rotation == g2.rotation
    assert [t.status for t in g1.tiles] == [t.status for t in g2.tiles]


# --- G_k ----------------------------------------------------------------------

def test_gk_structure():
    params = GkParams(k=3, rows=3, cols=3, tree_depth=2)
    g = build_graph(gen_gk(params))
    assert validate_tessellation(g, "truncation").valid
    # true degrees: 4 in the lattice, k+3 on the bottom row, k in trees
    cols = params.cols
    assert g.true_degree[cols] == 6  # ("L", 0, 0)
    assert g.true_degree[(2 * cols + 1) + cols] == 4  # ("L", 0, 1)


def test_gk_class_values():
    consts = gk_closed_constants(3)
    assert consts["c_minus_0"] == Fraction(7888, 5005)
    assert consts["M"] == Fraction(65, 2)
    assert consts["K"] == Fraction(63, 65)
    g = build_graph(gen_gk(GkParams(k=3, rows=4, cols=3, tree_depth=3)))
    values = set(c for c in char_values(g).values() if c is not None)
    assert consts["c_minus_0"] in values
    assert consts["c_plus_0"] in values
    assert consts["c_star"] in values


def test_gk_row_ratio_sup():
    # sup over interior vertices in rows n >= 1 of m(v)/min incident length
    params = GkParams(k=3, rows=4, cols=3, tree_depth=2)
    g = build_graph(gen_gk(params))
    width = 2 * params.cols + 1
    ratios = set()
    for n in range(1, params.rows):
        for x in range(-params.cols, params.cols + 1):
            v = n * width + x + params.cols
            if v in g.frontier_vertices:
                continue
            m = sum(g.length[e] for e in g.rotation[v])
            ratios.add(m / min(g.length[e] for e in g.rotation[v]))
    assert max(ratios) == Fraction(497, 72)


def test_gk_frontier_free_pm_classes_exceed_one():
    g = build_graph(gen_gk(GkParams(k=3, rows=4, cols=4, tree_depth=2)))
    cv = char_values(g)
    small = [e for e in g.edges if g.length[e] < Fraction(1, 9)]  # rows n >= 1
    checked = 0
    for e in small:
        if cv[e] is not None:
            assert cv[e] > 1, (e, cv[e])
            checked += 1
    assert checked > 0


def test_gk_witness_closed_form_and_crosscheck():
    w = gk_witness_sequence(3, 2)
    assert w["measure"] == 9
    # boundary: the root keeps subgraph degree k = 3, each of the
    # k(k-1) = 6 leaves has degree 1
    assert w["boundary_degree"] == 9
    assert w["ratio"] == 1
    record = gen_gk(GkParams(k=3, rows=2, cols=2, tree_depth=2))
    g = build_graph(record)
    w2 = gk_witness_sequence(3, 2, graph=g, record=record)
    assert w2["cross_checked"]
    with pytest.raises(TruncationTooShallow):
        gk_witness_sequence(3, 3, graph=g, record=record)


def test_gk_witness_converges():
    w = gk_witness_sequence(3, 10)
    assert abs(w["ratio"] / Fraction(1, 2) - 1) < Fraction(1, 100)
    w4 = gk_witness_sequence(4, 12)
    assert abs(w4["ratio"] / Fraction(2, 3) - 1) < Fraction(1, 100)


# --- non-equilateral trees ----------------------------------------------------

def test_netree_lengths():
    for p in (5, 6, 8):
        record = gen_nonequilateral_tree(p, 2)
        g = build_graph(record)
        rep = global_constants(g)
        assert rep.ell_star == p
        assert rep.ell_min == 1
        hat = record["family"]["hat_edge"]
        sel = subgraph_stats(g, [hat])
        assert sel.ratio == Fraction(2, p)
    with pytest.raises(ParamTooSmall):
        gen_nonequilateral_tree(4, 2)


# --- closed forms ---------------------------------------------------------------

def test_closed_forms_zero_cases():
    for p, q in [(4, 4), (3, 6), (6, 3)]:
        f = closed_forms_pq(PQParams(p, q))
        assert f.c == 0 and f.kappa == 0 and f.alpha_lower == 0
        assert f.alpha_comb == 0 and f.alpha == 0 and f.delta == 0
        assert all(type(x) is Fraction for x in (f.alpha_comb, f.alpha, f.delta))
        assert f.alpha_comb_lower == 0


def test_closed_forms_tree_case():
    f = closed_forms_pq(PQParams(5, math.inf))
    assert f.alpha == Fraction(3, 4) == f.alpha_lower
    assert f.alpha_comb == Fraction(3, 5)
    assert f.alpha_comb_lower == Fraction(3, 5)


def test_alpha_lower_equals_c_over_K_grid():
    # c_*/K with M=p, P=q must equal q(p-2)c/(q(p-1)c+1), exactly
    for p in range(3, 21):
        for q in range(3, 21):
            c = Fraction(1) - Fraction(2, p) - Fraction(2, q)
            if c <= 0:
                continue
            f = closed_forms_pq(PQParams(p, q))
            K = 1 - Fraction(1, p) - Fraction(2, q) - Fraction(1, (p - 2) * q)
            assert f.alpha_lower == c / K, (p, q)
            assert f.kappa == -Fraction(p, 2) * c


def test_closed_forms_45():
    f = closed_forms_pq(PQParams(4, 5))
    assert f.alpha_lower == Fraction(2, 5)
    # d = x(x + 4) = 12 for (4, 5), so sqrt(12) = 2 sqrt(3)
    assert f.alpha == 2 / (1 + Surd(0, 1, 12))
    assert str(f.alpha) == "-2/11+2/11*sqrt(12)"
    assert f.alpha_lower <= f.alpha
    assert f.delta is not None and f.delta <= 1


def test_delta_at_most_one_grid():
    for p in range(3, 25):
        for q in range(3, 25):
            params = None
            try:
                params = PQParams(p, q)
            except NegativeCurvatureParams:
                continue
            f = closed_forms_pq(params)
            if f.delta is not None:
                assert f.delta <= 1, (p, q)


def test_family_metadata_helpers():
    rec = gen_pq_ball(PQParams(3, math.inf), 2)
    family = read_family(rec["family"], build_graph(rec))
    assert family.alpha_comb == Fraction(1, 3)
    assert any(b.value == Fraction(1, 2) and b.side == "lower" for b in family.bounds)
    rec = gen_gk(GkParams(k=3, rows=2, cols=2, tree_depth=2))
    gk = read_family(rec["family"], build_graph(rec))
    assert gk.alpha_comb == 0
    got = {(b.side, b.value) for b in gk.bounds}
    assert ("lower", Fraction(65, 189)) in got
    assert ("upper", Fraction(1, 2)) in got


def test_every_generated_pq_ball_passes_the_family_gate():
    # p, q <= 8 or q = infinity at radii 1-3, and radius 4 where
    # (p-2)(q-2) <= 12: the gate reads every ball as its own family
    balls = 0
    for p in range(3, 9):
        for q in [*range(3, 9), math.inf]:
            if q != math.inf and (p - 2) * (q - 2) < 4:
                continue
            deep = q != math.inf and (p - 2) * (q - 2) <= 12
            for r in range(1, 5 if deep else 4):
                record = gen_pq_ball(PQParams(p, q), r)
                family = read_family(record["family"], build_graph(record))
                assert family.ell_star == family.ell_min == 1, (p, q, r)
                balls += 1
    assert balls == 129


def test_family_gate_names_the_first_difference():
    # at radius 2 every square touches the frontier; radius 3 has bounded ones
    lattice = build_graph(gen_pq_ball(PQParams(4, 4), 3))
    with pytest.raises(FamilyMismatch, match="vertex 0 has degree 4, not p = 7$"):
        read_family({"kind": "pq", "p": 7, "q": 3}, lattice)
    with pytest.raises(FamilyMismatch, match="4 sides over 4 edges, not q = 5$"):
        read_family({"kind": "pq", "p": 4, "q": 5}, lattice)
    with pytest.raises(FamilyMismatch, match="vertex 0 has degree 4, not p = 3$"):
        read_family({"kind": "pq", "p": 3, "q": "inf"}, lattice)
    # a frontier vertex of unknown true degree may not show more than p edges
    wheel = wheel_record(5)
    wheel["frontier_vertices"] = [item["id"] for item in wheel["vertices"]]
    with pytest.raises(FamilyMismatch, match="vertex 0 has degree 5, not p = 4$"):
        read_family({"kind": "pq", "p": 4, "q": 4}, build_graph(wheel))
    assert read_family({"kind": "pq", "p": 5, "q": 4}, build_graph(wheel)).ell_min == 1
    # a bounded face that goes along a bridge twice: triangle 0-1-2 joined
    # by the bridge 0-3 to triangle 3-4-5, all of degree 3 through pendant
    # frontier vertices 6-9, walks 8 sides over its 7 distinct edges
    pos = {0: (0, 4), 1: (4, -3), 2: (-4, -3), 3: (0, 1.5), 4: (1, -0.5),
           5: (-1, -0.5), 6: (6, -4), 7: (-6, -4), 8: (0.3, 0), 9: (-0.3, 0)}
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3),
             (1, 6), (2, 7), (4, 8), (5, 9)]
    bridged = build_graph(record_from_coords(pos, edges, frontier=(6, 7, 8, 9)))
    with pytest.raises(FamilyMismatch, match="has 8 sides over 7 edges, not q = 7$"):
        read_family({"kind": "pq", "p": 3, "q": 7}, bridged)


def test_generator_sweep_structural():
    cases = [(3, 7, 4), (4, 5, 3), (5, 4, 3), (6, 4, 2), (3, 8, 4),
             (5, 5, 3), (8, 3, 2), (9, 3, 2), (4, 6, 3), (3, math.inf, 3)]
    for p, q, r in cases:
        params = PQParams(p, q)
        g = build_graph(gen_pq_ball(params, r))
        assert len(g.vertices) - len(g.edges) + len(g.tiles) == 2
        assert validate_tessellation(g, "truncation").valid
        for v in g.frontier_free_vertices():
            assert g.degree(v) == p
        for t in g.tiles:
            if t.status == "bounded":
                assert t.degree == q
                heads = [g.dart_head[d] for d in t.cycle]
                assert len(set(heads)) == len(heads)
        expect = params.char_value
        for c in char_values(g).values():
            assert c is None or c == expect
