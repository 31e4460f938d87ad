"""Graph model: construction, face tracing, validation, subgraph bookkeeping."""

import math
from fractions import Fraction

import pytest

from isotess.errors import (
    DisconnectedSelection,
    Disconnected,
    InconsistentFrontier,
    MalformedRotation,
    NonPositiveLength,
    NonSimple,
)
from isotess.families import PQParams, gen_pq_ball
from isotess.graphcore import (
    Tile,
    build_graph,
    classify_subgraph,
    complete_closure,
    subgraph_stats,
    validate_tessellation,
)

from conftest import wheel_record


TRIANGLE = {
    "vertices": [
        {"id": 0, "rotation": [0, 2]},
        {"id": 1, "rotation": [1, 0]},
        {"id": 2, "rotation": [2, 1]},
    ],
    "edges": [
        {"id": 0, "ends": [0, 1], "length": "1"},
        {"id": 1, "ends": [1, 2], "length": "1"},
        {"id": 2, "ends": [2, 0], "length": "1"},
    ],
    "unbounded_face_reps": [[0, 0]],
}


def test_triangle_two_tiles():
    g = build_graph(TRIANGLE)
    assert len(g.tiles) == 2
    statuses = sorted(t.status for t in g.tiles)
    assert statuses == ["bounded", "unbounded"]
    bounded = next(t for t in g.tiles if t.status == "bounded")
    assert bounded.degree == 3 and bounded.perimeter == 3


def test_k4_faces_and_validation(k4):
    assert len(k4.tiles) == 4
    assert sum(t.status == "bounded" for t in k4.tiles) == 3
    assert all(t.degree == 3 for t in k4.tiles)
    assert validate_tessellation(k4, "finite").valid
    # Euler formula
    assert len(k4.vertices) - len(k4.edges) + len(k4.tiles) == 2


def test_tiles_frozen_equal_and_hashable(k4):
    # two builds of one record give equal tiles with equal hashes; a tile
    # takes no assignment and is a field-wise value
    again = build_graph(TRIANGLE)
    first = build_graph(TRIANGLE)
    assert first.tiles == again.tiles
    assert [hash(t) for t in first.tiles] == [hash(t) for t in again.tiles]
    assert len(set(first.tiles) | set(again.tiles)) == len(first.tiles)
    tile = k4.tiles[0]
    with pytest.raises(AttributeError):
        tile.degree = 0
    assert type(tile) is Tile
    assert tile == Tile(*(getattr(tile, name) for name in Tile._fields))
    assert tile != tile._replace(status="indeterminate")


def test_every_dart_in_exactly_one_face(k4):
    darts = [d for t in k4.tiles for d in t.cycle]
    assert len(darts) == 2 * len(k4.edges)
    assert len(set(darts)) == len(darts)


def test_path_has_one_face_and_fails_iv():
    path = {
        "vertices": [{"id": 0, "rotation": [0]}, {"id": 1, "rotation": [0, 1]},
                     {"id": 2, "rotation": [1]}],
        "edges": [{"id": 0, "ends": [0, 1], "length": "1"},
                  {"id": 1, "ends": [1, 2], "length": "1"}],
        "unbounded_face_reps": [[0, 0]],
    }
    g = build_graph(path)
    assert len(g.tiles) == 1
    assert len(g.tiles[0].cycle) == 4
    conds = {v.condition for v in validate_tessellation(g, "finite").violations}
    assert "iv" in conds


def test_triangle_fails_v_only():
    conds = [v.condition for v in
             validate_tessellation(build_graph(TRIANGLE), "finite").violations]
    assert conds == ["v", "v", "v"]


def test_zero_length_rejected():
    bad = {**TRIANGLE, "edges": [dict(e) for e in TRIANGLE["edges"]]}
    bad["edges"][0]["length"] = "0/1"
    with pytest.raises(NonPositiveLength):
        build_graph(bad)


def test_loop_and_parallel_rejected():
    loop = {
        "vertices": [{"id": 0, "rotation": [0]}],
        "edges": [{"id": 0, "ends": [0, 0], "length": "1"}],
    }
    with pytest.raises(NonSimple):
        build_graph(loop)
    parallel = {
        "vertices": [{"id": 0, "rotation": [0, 1]}, {"id": 1, "rotation": [0, 1]}],
        "edges": [{"id": 0, "ends": [0, 1], "length": "1"},
                  {"id": 1, "ends": [0, 1], "length": "1"}],
    }
    with pytest.raises(NonSimple):
        build_graph(parallel)


def test_malformed_rotation_rejected():
    bad = {**TRIANGLE, "vertices": [dict(v) for v in TRIANGLE["vertices"]]}
    bad["vertices"][0]["rotation"] = [0, 1]  # edge 1 is not incident to vertex 0
    with pytest.raises(MalformedRotation):
        build_graph(bad)


def test_disconnected_rejected():
    two = {
        "vertices": [{"id": 0, "rotation": [0]}, {"id": 1, "rotation": [0]},
                     {"id": 2, "rotation": [1]}, {"id": 3, "rotation": [1]}],
        "edges": [{"id": 0, "ends": [0, 1], "length": "1"},
                  {"id": 1, "ends": [2, 3], "length": "1"}],
    }
    with pytest.raises(Disconnected):
        build_graph(two)


def test_frontier_true_degree_consistency():
    rec = {**TRIANGLE, "frontier_vertices": [0], "true_degree": {"0": 1}}
    with pytest.raises(InconsistentFrontier):
        build_graph(rec)
    rec2 = {**TRIANGLE, "true_degree": {"1": 5}}  # non-frontier mismatch
    with pytest.raises(InconsistentFrontier):
        build_graph(rec2)


def test_decimal_and_fraction_lengths():
    rec = {**TRIANGLE, "edges": [dict(e) for e in TRIANGLE["edges"]]}
    rec["edges"][0]["length"] = "0.25"
    rec["edges"][1]["length"] = "3/4"
    g = build_graph(rec)
    assert g.length[0] == Fraction(1, 4)
    assert g.length[1] == Fraction(3, 4)


# --- subgraph bookkeeping ---------------------------------------------------

def tree3():
    return build_graph(gen_pq_ball(PQParams(3, math.inf), 3))


def test_tree_single_edge_stats():
    g = tree3()
    e = g.rotation[0][0]
    sel = subgraph_stats(g, [e])
    assert sel.boundary_degree == 2
    assert sel.measure == 1
    assert sel.ratio == 2


def test_tree_star_stats():
    g = tree3()
    sel = subgraph_stats(g, list(g.rotation[0]))
    assert sel.boundary_degree == 3
    assert sel.measure == 3
    assert sel.ratio == 1
    star_like, complete = classify_subgraph(g, sel)
    assert star_like and complete


def test_whole_finite_graph_has_empty_boundary(k4):
    sel = subgraph_stats(k4, list(k4.edges))
    assert sel.boundary_degree == 0
    # no boundary vertex: every vertex of the selection has its whole star
    assert sel.interior_vertices == frozenset(k4.vertices)
    assert classify_subgraph(k4, sel) == (True, True)


def test_single_edge_not_star_like():
    g = tree3()
    sel = subgraph_stats(g, [g.rotation[0][0]])
    star_like, _ = classify_subgraph(g, sel)
    assert not star_like


def test_disconnected_selection_rejected():
    g = tree3()
    # two edges at depth 1 hanging off different children are disjoint
    child = g.other_end(g.rotation[0][0], 0)
    child2 = g.other_end(g.rotation[0][1], 0)
    e1 = [e for e in g.rotation[child] if g.other_end(e, child) != 0][0]
    e2 = [e for e in g.rotation[child2] if g.other_end(e, child2) != 0][0]
    with pytest.raises(DisconnectedSelection):
        subgraph_stats(g, [e1, e2])


@pytest.mark.parametrize("bad", ["0", 0.5])
def test_selection_ids_are_not_coerced(k4, bad):
    # ids are taken as given: a string or float naming no edge does not
    # select edge 0, it is an unknown edge like any other
    assert 0 in k4.edge_ends
    with pytest.raises(KeyError, match="unknown edge"):
        subgraph_stats(k4, [bad])
    with pytest.raises(KeyError, match="unknown edge"):
        subgraph_stats(k4, [0, bad])


def _ball44(radius):
    return build_graph(gen_pq_ball(PQParams(4, 4), radius))


def _distances(g, root=0):
    from collections import deque
    dist = {root: 0}
    q = deque([root])
    while q:
        v = q.popleft()
        for e in g.rotation[v]:
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def test_square_corners_star_union_classification():
    g = _ball44(4)
    # corners of one unit square adjacent to the center
    tiles = [t for t in g.tiles if t.status == "bounded"]
    sq = next(t for t in tiles if 0 in {g.dart_head[d] for d in t.cycle})
    corners = {g.dart_head[d] for d in sq.cycle}
    edges = set()
    for v in corners:
        edges.update(g.rotation[v])
    sel = subgraph_stats(g, edges)
    star_like, complete = classify_subgraph(g, sel)
    assert star_like and complete
    assert sel.interior_vertices == frozenset(corners)


def test_ring_of_eight_stars_already_complete():
    # stars of the 8-vertex ring around the center contain the center's
    # star, so the interior graph is the full 3x3 block: nothing to close
    g = _ball44(5)
    dist = _distances(g)
    center_nbrs = {g.other_end(e, 0) for e in g.rotation[0]}
    diags = set()
    for v in dist:
        if dist[v] == 2:
            common = center_nbrs & {g.other_end(e, v) for e in g.rotation[v]}
            if len(common) == 2:
                diags.add(v)
    ring = center_nbrs | diags
    assert len(ring) == 8
    edges = set()
    for v in ring:
        edges.update(g.rotation[v])
    sel = subgraph_stats(g, edges)
    assert classify_subgraph(g, sel) == (True, True)
    assert 0 in sel.interior_vertices
    assert complete_closure(g, sel).edges == sel.edges


def test_closure_fills_block_and_is_idempotent():
    from conftest import square_patch_record
    # 12-ring around a 3x3-square block inside a 7x7 grid: the closure must
    # absorb the stars of the four enclosed vertices
    record, _ = square_patch_record(6)
    g = build_graph(record)

    def vid(x, y):
        return x * 7 + y

    ring = {vid(x, y) for x in range(1, 5) for y in range(1, 5)} \
        - {vid(x, y) for x in range(2, 4) for y in range(2, 4)}
    assert len(ring) == 12
    edges = set()
    for v in ring:
        edges.update(g.rotation[v])
    sel = subgraph_stats(g, edges)
    star_like, complete = classify_subgraph(g, sel)
    assert star_like and not complete
    closed = complete_closure(g, sel)
    assert classify_subgraph(g, closed) == (True, True)
    inner = {vid(x, y) for x in range(2, 4) for y in range(2, 4)}
    assert inner <= closed.interior_vertices
    for v in inner:
        assert set(g.rotation[v]) <= closed.edges
    assert closed.boundary_degree <= sel.boundary_degree
    assert complete_closure(g, closed).edges == closed.edges


def test_closure_identity_on_tree_star():
    g = tree3()
    sel = subgraph_stats(g, list(g.rotation[0]))
    assert complete_closure(g, sel).edges == sel.edges


def test_wheel_valid_tessellation():
    for n in (4, 5, 6):
        g = build_graph(wheel_record(n))
        assert validate_tessellation(g, "finite").valid, n


def test_frontier_pocket_makes_faces_ambiguous():
    # mark the patch center as incomplete: the tiles around it become
    # indeterminate, and a ring enclosing it cannot classify or close
    from conftest import square_patch_record
    from isotess.errors import FrontierContact, IndeterminateFaces

    record, _ = square_patch_record(6)
    center = 3 * 7 + 3
    record["frontier_vertices"] = sorted(record["frontier_vertices"] + [center])
    record["true_degree"][str(center)] = 5
    g = build_graph(record)

    ring = {x * 7 + y for x in range(1, 6) for y in range(1, 6)} \
        - {x * 7 + y for x in range(2, 5) for y in range(2, 5)}
    edges = set()
    for v in ring:
        edges.update(g.rotation[v])
    sel = subgraph_stats(g, edges)
    with pytest.raises(IndeterminateFaces):
        classify_subgraph(g, sel)
    with pytest.raises(FrontierContact):
        complete_closure(g, sel)


def _stars(g, vertices):
    return set().union(*(g.rotation[v] for v in vertices))


def test_star_like_needs_connected_generating_set():
    # the stars of vertices 0 and 9, at distance 2, cover the selection,
    # but 0 and 9 are not adjacent: not star-like, and no face to fill
    g = _ball44(4)
    assert _distances(g)[9] == 2
    sel = subgraph_stats(g, _stars(g, (0, 9)))
    assert sel.interior_vertices == frozenset({0, 9})
    assert classify_subgraph(g, sel) == (False, True)


@pytest.mark.parametrize("p,q,radius", [(4, 4, 7), (6, 3, 8), (3, 6, 6), (3, 7, 7)])
def test_closure_of_annulus_fills_its_hole(p, q, radius):
    # every annulus r < d <= R (R - r >= 3, clear of the frontier at
    # d = radius) around vertex 0 encloses the ball d <= r; its closure
    # must absorb the whole hole and nothing else
    g = build_graph(gen_pq_ball(PQParams(p, q), radius))
    dist = _distances(g)
    annuli = [(r, big_r) for r in range(1, radius) for big_r in range(r + 3, radius)]
    assert annuli
    for r, big_r in annuli:
        sel = subgraph_stats(g, _stars(g, [v for v, d in dist.items() if r < d <= big_r]))
        assert classify_subgraph(g, sel) == (True, False), (r, big_r)
        closed = complete_closure(g, sel)
        assert closed.edges == _stars(g, [v for v, d in dist.items() if d <= big_r])
        assert classify_subgraph(g, closed) == (True, True)
        assert complete_closure(g, closed).edges == closed.edges
        assert closed.boundary_degree <= sel.boundary_degree
