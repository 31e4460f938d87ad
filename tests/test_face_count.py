"""Which path of the closure's face pass runs, and what it returns there.

``graphcore._bounded_faces`` answers without the whole-graph flood
``_flood_faces`` when every bounded face of the interior graph is a single
tile.  On the family balls of the benchmark that holds for every call, so
the star-like pass there must never flood.  On a random tessellation a
star-like selection can enclose a face of several tiles; the flood must
then run, and agree with the union-find oracle of
``tests/test_closure_local.py``, as it must for a disconnected interior
graph whose tile count matches that of a connected one.  When the
interior graph is a tree, the whole graph of a finite tree record
included, the pass answers without reading any tile.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from isotess import graphcore
from isotess.families import PQParams, gen_nonequilateral_tree, gen_pq_ball
from isotess.graphcore import build_graph
from isotess.isoperimetry import enumerate_starlike_complete

from test_closure_local import _bounded_faces_reference, _distances


def _no_flood(g, inner):
    raise AssertionError(f"flooded the whole graph for {sorted(inner)}")


# the inputs of the starlike-closure workload: bounds on pq(7,3) r4 and
# netree(8,3), and the criterion-8 sweep over pq(4,4) r5 and pq(3,7) r6
FAMILY_PASSES = {
    "pq73r4": (lambda: gen_pq_ball(PQParams(7, 3), 4), 4, None),
    "netree83": (lambda: gen_nonequilateral_tree(8, 3), 4, None),
    "pq44r5": (lambda: gen_pq_ball(PQParams(4, 4), 5), 6, 2),
    "pq37r6": (lambda: gen_pq_ball(PQParams(3, 7), 6), 6, 2),
}


@pytest.mark.parametrize("name", sorted(FAMILY_PASSES))
def test_family_balls_never_flood(name, monkeypatch):
    make, generators, radius = FAMILY_PASSES[name]
    g = build_graph(make())
    gens = None if radius is None else sorted(_distances(g, 0, limit=radius))
    monkeypatch.setattr(graphcore, "_flood_faces", _no_flood)
    sels, _ = enumerate_starlike_complete(g, generators, generators_from=gens)
    assert sels, name


def test_enclosed_face_floods_and_matches_oracle(random_tessellation, monkeypatch):
    # a triangulation: the interior graph of a star-like selection can
    # surround a vertex outside it, a face of several tiles
    g = build_graph(random_tessellation(random.Random("face-count"), 14))
    flood = graphcore._flood_faces
    bounded_faces = graphcore._bounded_faces
    floods = []
    calls = 0

    def counted_flood(g, inner):
        result = flood(g, inner)
        floods.append(result)
        return result

    def checked(g, inner):
        nonlocal calls
        calls += 1
        groups, ambiguous = bounded_faces(g, inner)
        want, want_ambiguous = _bounded_faces_reference(g, inner)
        assert {frozenset(ts) for ts in groups} == {frozenset(ts) for ts in want}, sorted(inner)
        assert ambiguous == want_ambiguous, sorted(inner)
        return groups, ambiguous

    monkeypatch.setattr(graphcore, "_flood_faces", counted_flood)
    monkeypatch.setattr(graphcore, "_bounded_faces", checked)
    enumerate_starlike_complete(g, 4)
    assert any(len(ts) > 1 for groups, _ in floods for ts in groups), len(floods)
    assert len(floods) < calls


def test_disconnected_interior_that_meets_the_count_floods():
    # the 8-cycle around a vertex of the square grid, plus a far vertex: H
    # has 8 edges, 9 vertices and no tile on it, the |E_H| - |V_H| + 1 = 0
    # tiles the count asks for, yet the cycle encloses the four tiles
    # around its centre
    g = build_graph(gen_pq_ball(PQParams(4, 4), 5))
    dist = _distances(g, 0)
    star = {v for v, d in dist.items() if d <= 1}
    corners = {v for v, d in dist.items()
               if d == 2 and sum(g.other_end(e, v) in star for e in g.rotation[v]) == 2}
    far = max(v for v, d in dist.items() if d == 4)
    inner = frozenset((star - {0}) | corners | {far})
    groups, ambiguous = graphcore._bounded_faces(g, inner)
    want, want_ambiguous = _bounded_faces_reference(g, inner)
    assert {frozenset(ts) for ts in groups} == {frozenset(ts) for ts in want}
    assert ambiguous == want_ambiguous
    assert sorted(map(len, groups)) == [4]


class _Unread:
    """A ``dart_tile`` that fails when read."""

    def __getitem__(self, d):
        raise AssertionError(f"read the tile of dart {d}")


def _is_tree(g, inner) -> bool:
    """Whether the graph induced on ``inner`` is a tree."""
    edges = [e for e in g.edges if set(g.edge_ends[e]) <= inner]
    reached, todo = {min(inner)}, [min(inner)]
    while todo:
        v = todo.pop()
        for e in edges:
            a, b = g.edge_ends[e]
            for x, y in ((a, b), (b, a)):
                if x == v and y not in reached:
                    reached.add(y)
                    todo.append(y)
    return reached == inner and len(edges) == len(inner) - 1


def _tree_interiors(g, generators, gens=None) -> list[frozenset[int]]:
    """The tree-shaped interiors the star-like pass asks the face pass about."""
    inners = set()
    bounded_faces = graphcore._bounded_faces

    def recorded(g, inner):
        inners.add(inner)
        return bounded_faces(g, inner)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphcore, "_bounded_faces", recorded)
        enumerate_starlike_complete(g, generators, generators_from=gens)
    return sorted((inner for inner in inners if inner and _is_tree(g, inner)), key=sorted)


def _assert_tree_shortcut(g, inners, label) -> None:
    assert inners, label
    unread = dataclasses.replace(g, dart_tile=_Unread())
    for inner in inners:
        got = graphcore._bounded_faces(unread, inner)
        assert got == ([], False), (label, sorted(inner))
        want, want_ambiguous = _bounded_faces_reference(g, inner)
        assert (want, want_ambiguous) == ([], False), (label, sorted(inner))


@pytest.mark.parametrize("name", sorted(FAMILY_PASSES))
def test_family_tree_interiors_read_no_tile(name):
    make, generators, radius = FAMILY_PASSES[name]
    g = build_graph(make())
    gens = None if radius is None else sorted(_distances(g, 0, limit=radius))
    _assert_tree_shortcut(g, _tree_interiors(g, generators, gens), name)


@pytest.mark.parametrize("seed", [f"tree:{i}" for i in range(30)])
def test_random_tree_interiors_read_no_tile(random_tessellation, seed):
    rng = random.Random(seed)
    g = build_graph(random_tessellation(rng, rng.randint(1, 20)))
    _assert_tree_shortcut(g, _tree_interiors(g, 3), seed)


def test_whole_graph_tree_reads_no_tile(monkeypatch):
    # the path 0 - 1 - 2 - 3 with one face, declared unbounded: with every
    # vertex interior, H is all of G, and as a tree it still has one face,
    # which holds every tile, so the pass answers as for any other tree
    record = {
        "vertices": [{"id": 0, "rotation": [0]}, {"id": 1, "rotation": [0, 1]},
                     {"id": 2, "rotation": [1, 2]}, {"id": 3, "rotation": [2]}],
        "edges": [{"id": k, "ends": [k, k + 1], "length": "1"} for k in range(3)],
        "unbounded_face_reps": [[0, 1]],
    }
    g = build_graph(record)
    assert len(g.tiles) == 1
    monkeypatch.setattr(graphcore, "_flood_faces", _no_flood)
    unread = dataclasses.replace(g, dart_tile=_Unread())
    for inner in (frozenset(g.vertices), frozenset({1, 2}), frozenset({0})):
        assert _bounded_faces_reference(g, inner) == ([], False), sorted(inner)
        assert graphcore._bounded_faces(unread, inner) == ([], False), sorted(inner)
