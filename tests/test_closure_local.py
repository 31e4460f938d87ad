"""Differential check of the closure's face pass against a global oracle.

``_bounded_faces_reference`` is the union-find pass over every vertex and
tile of the graph: tiles lie in one face of the interior graph when they
meet at a vertex outside it.  ``graphcore._bounded_faces`` must agree with
it on every seeded random selection, and so must ``classify_subgraph`` and
``complete_closure`` run on top of either pass.  A failure names its seed
(``graph:kind:index``); ``random.Random`` with that string replays it.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from isotess import graphcore
from isotess.errors import DisconnectedSelection, FrontierContact
from isotess.families import GkParams, PQParams, gen_gk, gen_nonequilateral_tree, gen_pq_ball
from isotess.graphcore import (
    BOUNDED,
    INDETERMINATE,
    build_graph,
    classify_subgraph,
    complete_closure,
    subgraph_stats,
)

from conftest import finite_corpus, k4_record, record_from_coords, square_patch_record


def _bounded_faces_reference(g, interior_vertices):
    """Union of the tiles around each non-interior vertex, over the whole graph."""
    parent = list(range(len(g.tiles)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in g.vertices:
        if v in interior_vertices:
            continue
        rot = g.rotation[v]
        first = find(g.dart_tile[g.dart(rot[0], v)])
        for e in rot[1:]:
            parent[find(g.dart_tile[g.dart(e, v)])] = first

    groups = {}
    statuses = {}
    for t in g.tiles:
        root = find(t.index)
        groups.setdefault(root, []).append(t.index)
        statuses.setdefault(root, set()).add(t.status)
    bounded = [ts for root, ts in groups.items() if statuses[root] == {BOUNDED}]
    return bounded, sum(INDETERMINATE in st for st in statuses.values()) > 1


def _pocket_record():
    # the patch center is incomplete: the tiles around it are indeterminate
    record, _ = square_patch_record(6)
    center = 3 * 7 + 3
    record["frontier_vertices"] = sorted(record["frontier_vertices"] + [center])
    record["true_degree"][str(center)] = 5
    return record


def _all_bounded_k4():
    record = k4_record()
    record["unbounded_face_reps"] = []
    return record


def _torus_record(n):
    # the n x n square grid on a torus, one tile marked unbounded: not
    # planar, so two faces of an interior graph can be one region
    def vid(i, j):
        return (i % n) * n + j % n

    edges = [(vid(i, j), vid(i, j + 1)) for i in range(n) for j in range(n)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(n) for j in range(n)]
    eid = {pair: k for k, pair in enumerate(edges)}
    vertices = []
    for i in range(n):
        for j in range(n):
            v = vid(i, j)
            east, south = eid[(v, vid(i, j + 1))], eid[(v, vid(i + 1, j))]
            west, north = eid[(vid(i, j - 1), v)], eid[(vid(i - 1, j), v)]
            vertices.append({"id": v, "rotation": [east, south, west, north]})
    return {
        "vertices": vertices,
        "edges": [{"id": k, "ends": list(pair), "length": "1"} for k, pair in enumerate(edges)],
        "unbounded_face_reps": [[0, 1]],
    }


def _nested_squares_record():
    # a square inside a square, joined by one edge: the tile between them
    # is bounded but not a simple cycle
    pos = {0: (0, 0), 1: (0, 4), 2: (4, 4), 3: (4, 0),
           4: (1, 1), 5: (1, 3), 6: (3, 3), 7: (3, 1)}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)]
    return record_from_coords(pos, edges)


GRAPHS = {
    "pq44r7": lambda: gen_pq_ball(PQParams(4, 4), 7),
    "pq73r3": lambda: gen_pq_ball(PQParams(7, 3), 3),
    "pq37r5": lambda: gen_pq_ball(PQParams(3, 7), 5),
    "netree63": lambda: gen_nonequilateral_tree(6, 3),
    "g3": lambda: gen_gk(GkParams(k=3, rows=2, cols=2, tree_depth=2)),
    "patch6": lambda: square_patch_record(6)[0],
    "pocket6": _pocket_record,
    "k4_all_bounded": _all_bounded_k4,
    "torus5": lambda: _torus_record(5),
    "nested_squares": _nested_squares_record,
    **{name: (lambda r=record: r) for name, record in finite_corpus()},
}

PER_KIND = 60


def _stars(g, vertices):
    return set().union(*(g.rotation[v] for v in vertices))


def _distances(g, root, limit=None):
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] == limit:
            continue
        for e in g.rotation[v]:
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _walk(rng, g, size):
    """A connected vertex set grown by a random walk."""
    v = rng.choice(g.vertices)
    out = {v}
    for _ in range(8 * size):
        if len(out) >= size:
            break
        v = g.other_end(rng.choice(g.rotation[v]), v)
        out.add(v)
    return out


def _walk_stars(rng, g):
    return _stars(g, _walk(rng, g, rng.randint(1, 7)))


def _random_edges(rng, g):
    """A connected edge set grown one random touching edge at a time."""
    edges = {rng.choice(g.edges)}
    ends = set(g.edge_ends[next(iter(edges))])
    for _ in range(rng.randint(0, 14)):
        v = rng.choice(sorted(ends))
        e = rng.choice(g.rotation[v])
        edges.add(e)
        ends.update(g.edge_ends[e])
    return edges


def _annulus(rng, g):
    # around a frontier vertex half the time, to enclose frontier pockets
    centers = sorted(g.frontier_vertices) if rng.random() < 0.5 else None
    dist = _distances(g, rng.choice(centers or g.vertices))
    r = rng.randint(0, 3)
    big_r = r + rng.randint(1, 3)
    return _stars(g, [v for v, d in dist.items() if r < d <= big_r])


def _holes(rng, g):
    # stars of a ball without the ends of a few edges well inside it and
    # apart from each other: one face of the interior graph per hole
    dist = _distances(g, rng.choice(g.vertices))
    radius = rng.randint(2, 6)
    ball = {v for v, d in dist.items() if d <= radius}
    safe = ball - g.frontier_vertices
    for x in rng.sample(sorted(ball), len(ball)):
        around = set(_distances(g, x, limit=2))
        if around <= safe:
            ball -= {x, g.other_end(rng.choice(g.rotation[x]), x)}
            safe -= around
    return _stars(g, ball)


def _single_star(rng, g):
    return set(g.rotation[rng.choice(g.vertices)])


def _two_stars(rng, g):
    # stars of two vertices joined by a shortest path: the interior is
    # usually disconnected
    a = rng.choice(g.vertices)
    dist = _distances(g, a)
    b = rng.choice(g.vertices)
    edges = _stars(g, {a, b})
    v = b
    while v != a:
        e = next(e for e in g.rotation[v] if dist[g.other_end(e, v)] == dist[v] - 1)
        edges.add(e)
        v = g.other_end(e, v)
    return edges


SELECTIONS = {
    "walk_stars": _walk_stars,
    "random_edges": _random_edges,
    "annulus": _annulus,
    "holes": _holes,
    "single_star": _single_star,
    "two_stars": _two_stars,
}


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return "raise", type(exc).__name__, str(exc)


def _closure(g, sel):
    closed = complete_closure(g, sel)
    return closed.edges, closed.boundary_degree


def _faces(bounded_faces, g, interior):
    groups, ambiguous = bounded_faces(g, frozenset(interior))
    return {frozenset(ts) for ts in groups}, ambiguous


def _with_reference(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(graphcore, "_bounded_faces", _bounded_faces_reference)
        return _outcome(fn, *args)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_frontier_tiles_are_never_bounded(name):
    # complete_closure absorbs only the tiles of all-bounded faces and so
    # never needs the star of a frontier vertex: build_graph must mark
    # every tile with a frontier vertex on its cycle indeterminate or
    # unbounded
    g = build_graph(GRAPHS[name]())
    for t in g.tiles:
        touches = any(g.dart_head[d] in g.frontier_vertices for d in t.cycle)
        if touches:
            assert t.status != BOUNDED, (name, t.index)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_face_pass_matches_union_oracle(name, monkeypatch):
    g = build_graph(GRAPHS[name]())
    for kind, select in SELECTIONS.items():
        for i in range(PER_KIND):
            seed = f"{name}:{kind}:{i}"
            rng = random.Random(seed)
            try:
                sel = subgraph_stats(g, select(rng, g))
            except (DisconnectedSelection, FrontierContact):
                continue  # an empty annulus, or a vertex of unknown degree
            assert _faces(graphcore._bounded_faces, g, sel.interior_vertices) \
                == _faces(_bounded_faces_reference, g, sel.interior_vertices), seed
            for fn in (classify_subgraph, _closure):
                assert _outcome(fn, g, sel) == _with_reference(monkeypatch, fn, g, sel), \
                    (seed, fn.__name__)

    # arbitrary vertex sets, connected or not, fed to the pass directly
    for i in range(2 * PER_KIND):
        seed = f"{name}:vertex_set:{i}"
        rng = random.Random(seed)
        if i % 2:
            interior = _walk(rng, g, rng.randint(0, len(g.vertices)))
        else:
            interior = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
        assert _faces(graphcore._bounded_faces, g, interior) \
            == _faces(_bounded_faces_reference, g, interior), seed
