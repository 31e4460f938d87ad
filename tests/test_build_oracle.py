"""``build_graph`` and ``trace_faces`` against the plain builder they replaced.

The builder checks ids and rotation entries in bulk, folds the rotation
check into a flat face-successor list over int darts and walks the faces
over that list, recording each dart's face as it goes.  The
straightforward builder it replaced is kept below as an oracle, in
``(edge id, head)`` darts: one ``_int`` per id, an incident-set check per
vertex, a tracer with a ``seen`` set, a second pass for each dart's face
and a Fraction sum per tile.  The built graph is read back into those
terms through ``edges[d >> 1]``, ``dart_head`` and ``dart``.  On family
balls and on seeded random tessellations
(``bench/inputs.py::random_tessellation`` through the conftest fixture)
both must build equal graphs, and on records with one fault each both
must raise the same exception class with the same message.
"""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import pytest

from isotess.errors import (
    Disconnected,
    InconsistentFrontier,
    InputFormatError,
    MalformedRotation,
    NonPositiveLength,
    NonSimple,
)
from isotess.families import GkParams, PQParams, gen_gk, gen_nonequilateral_tree, gen_pq_ball
from isotess.graphcore import (
    BOUNDED,
    INDETERMINATE,
    UNBOUNDED,
    MetricGraph,
    _darts,
    _orbits,
    build_graph,
    trace_faces,
)
from isotess.rational import INF, parse_rational

from conftest import k4_record, square_patch_record

SEEDS = [f"build:{i}" for i in range(30)]


# ---------------------------------------------------------------------------
# the oracle: the builder and tracer as they were before the dart pass
# ---------------------------------------------------------------------------

def _two_pass_dart_tile(cycles):
    """Each dart's face index, in a second pass over the traced faces."""
    dart_tile = {}
    for idx, cycle in enumerate(cycles):
        for d in cycle:
            dart_tile[d] = idx
    return dart_tile


def _assert_same_orbits(rotation, edge_ends, label):
    # the one-pass walk's dart -> face list equals the two-pass map, and
    # its faces, read as (edge id, head) darts, equal the oracle tracer's
    cycles = _oracle_trace_faces(rotation, edge_ends)
    edges = sorted(edge_ends)
    head, _, succ = _darts(rotation, edge_ends, edges)
    faces, dart_tile = _orbits(succ)
    assert [[(edges[d >> 1], head[d]) for d in f] for f in faces] == cycles, label
    assert {(edges[d >> 1], head[d]): t for d, t in enumerate(dart_tile)} \
        == _two_pass_dart_tile(cycles), label
    assert trace_faces(rotation, edge_ends) == cycles, label


def _oracle_reach(start, rotation, edge_ends):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in rotation[v]:
            a, b = edge_ends[e]
            w = b if a == v else a
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _oracle_trace_faces(rotation, edge_ends):
    succ_edge = {}
    for v, rot in rotation.items():
        n = len(rot)
        for i, e in enumerate(rot):
            succ_edge[(e, v)] = rot[(i + 1) % n]

    faces = []
    seen = set()
    for e in sorted(edge_ends):
        for v in sorted(edge_ends[e]):
            d = (e, v)
            if d in seen:
                continue
            cycle = []
            while d not in seen:
                seen.add(d)
                cycle.append(d)
                e2 = succ_edge[d]
                a, b = edge_ends[e2]
                d = (e2, b if a == d[1] else a)
            faces.append(cycle)
    return faces


def _oracle_int(x) -> int:
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _oracle_build_graph(record) -> dict:
    """The graph's fields, darts as (edge id, head) pairs and tiles as tuples."""
    rotation = {}
    edge_ends = {}
    length = {}
    parsed = {}
    pair_seen = set()
    try:
        for item in record["vertices"]:
            vid = _oracle_int(item["id"])
            if vid in rotation:
                raise InputFormatError(f"duplicate vertex id {vid}")
            rotation[vid] = tuple(map(_oracle_int, item["rotation"]))

        for item in record["edges"]:
            eid = _oracle_int(item["id"])
            if eid in edge_ends:
                raise InputFormatError(f"duplicate edge id {eid}")
            a, b = map(_oracle_int, item["ends"])
            if a == b:
                raise NonSimple(f"edge {eid} is a loop at vertex {a}")
            if a not in rotation or b not in rotation:
                raise InputFormatError(f"edge {eid} references unknown vertex")
            pair = (min(a, b), max(a, b))
            if pair in pair_seen:
                raise NonSimple(f"parallel edge {eid} between {a} and {b}")
            pair_seen.add(pair)
            edge_ends[eid] = (a, b)
            raw = item["length"]
            ell = parsed.get(raw) if type(raw) is str else None
            if ell is None:
                ell = parse_rational(raw)
                if ell <= 0:
                    raise NonPositiveLength(f"edge {eid} has length {ell}")
                if type(raw) is str:
                    parsed[raw] = ell
            length[eid] = ell

        frontier = frozenset(map(_oracle_int, record.get("frontier_vertices", ())))
        declared = {}
        names = {str(v): v for v in rotation}
        for key, td in record.get("true_degree", {}).items():
            if key not in names:
                raise InputFormatError(f"true_degree key {key!r} names no vertex")
            declared[names[key]] = _oracle_int(td)
        face_reps = [(_oracle_int(e), _oracle_int(h))
                     for e, h in record.get("unbounded_face_reps", ())]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InputFormatError(f"malformed record: {exc!r}") from exc
    if not rotation:
        raise InputFormatError("record has no vertices")

    incident = {v: set() for v in rotation}
    for eid, (a, b) in edge_ends.items():
        incident[a].add(eid)
        incident[b].add(eid)
    for v, rot in rotation.items():
        if len(set(rot)) != len(rot):
            raise MalformedRotation(f"vertex {v}: repeated edge in rotation")
        if set(rot) != incident[v]:
            raise MalformedRotation(
                f"vertex {v}: rotation {sorted(rot)} != incident {sorted(incident[v])}")
        if not rot:
            raise MalformedRotation(f"vertex {v} is isolated")

    verts = sorted(rotation)
    unreached = len(verts) - len(_oracle_reach(verts[0], rotation, edge_ends))
    if unreached:
        raise Disconnected(f"{unreached} vertices unreachable")

    if not frontier <= set(rotation):
        raise InputFormatError("frontier lists unknown vertex")
    true_degree = {}
    for v in rotation:
        visible = len(rotation[v])
        if v in declared:
            td = declared[v]
            if td < 1:
                raise InconsistentFrontier(f"vertex {v}: true degree {td} < 1")
            if v in frontier:
                if td < visible:
                    raise InconsistentFrontier(
                        f"frontier vertex {v}: true degree {td} < visible {visible}")
            elif td != visible:
                raise InconsistentFrontier(
                    f"vertex {v}: true degree {td} != visible degree {visible}")
            true_degree[v] = td
        else:
            true_degree[v] = visible if v not in frontier else None

    cycles = _oracle_trace_faces(rotation, edge_ends)
    dart_tile = _two_pass_dart_tile(cycles)

    unbounded_faces = set()
    for eid, head in face_reps:
        if eid not in edge_ends or head not in edge_ends[eid]:
            raise InputFormatError(f"bad unbounded face rep {[eid, head]!r}")
        unbounded_faces.add(dart_tile[(eid, head)])

    tiles = []
    for idx, cycle in enumerate(cycles):
        edges = frozenset(d[0] for d in cycle)
        touches = any(d[1] in frontier for d in cycle)
        if idx in unbounded_faces:
            status, perimeter = UNBOUNDED, INF
        elif touches:
            status, perimeter = INDETERMINATE, None
        else:
            status, perimeter = BOUNDED, sum((length[e] for e in edges), Fraction(0))
        tiles.append((idx, tuple(cycle), edges, len(edges), status, perimeter))

    return {"rotation": rotation, "edge_ends": edge_ends, "frontier_vertices": frontier,
            "true_degree": true_degree, "length": length, "tiles": tiles,
            "dart_tile": dart_tile, "vertices": tuple(verts),
            "edges": tuple(sorted(edge_ends))}


# ---------------------------------------------------------------------------
# equal graphs
# ---------------------------------------------------------------------------

def _pair(g: MetricGraph, d: int) -> tuple[int, int]:
    """Dart ``d`` of ``g`` as (edge id, head)."""
    return g.edges[d >> 1], g.dart_head[d]


def _fields(g: MetricGraph) -> dict:
    """The oracle's fields of ``g``, darts read as (edge id, head) pairs."""
    return {
        "rotation": g.rotation,
        "edge_ends": g.edge_ends,
        "frontier_vertices": g.frontier_vertices,
        "true_degree": g.true_degree,
        "length": g.length,
        "tiles": [(t.index, tuple(_pair(g, d) for d in t.cycle), t.edges, t.degree,
                   t.status, t.perimeter) for t in g.tiles],
        "dart_tile": {_pair(g, d): t for d, t in enumerate(g.dart_tile)},
        "vertices": g.vertices,
        "edges": g.edges,
    }


def _assert_same_build(record, label) -> MetricGraph:
    got, want = build_graph(record), _oracle_build_graph(record)
    got_fields = _fields(got)
    for name in want:
        assert got_fields[name] == want[name], (label, name)
    assert list(got.true_degree) == list(want["true_degree"]), label
    assert all(got.dart_tile[got.dart(e, h)] == t
               for (e, h), t in want["dart_tile"].items()), label
    assert all(type(t.perimeter) is type(u[5])
               for t, u in zip(got.tiles, want["tiles"])), label
    return got


FAMILY_RECORDS = {
    "pq73r3": lambda: gen_pq_ball(PQParams(7, 3), 3),
    "pq44r4": lambda: gen_pq_ball(PQParams(4, 4), 4),
    "pq37r5": lambda: gen_pq_ball(PQParams(3, 7), 5),
    "pq54r3": lambda: gen_pq_ball(PQParams(5, 4), 3),
    "tree3r4": lambda: gen_pq_ball(PQParams(3, math.inf), 4),
    "gk3": lambda: gen_gk(GkParams(k=3, rows=3, cols=3, tree_depth=2)),
    "netree6": lambda: gen_nonequilateral_tree(6, 3),
    "square4": lambda: square_patch_record(4)[0],
    "K4": k4_record,
}


@pytest.mark.parametrize("name", sorted(FAMILY_RECORDS))
def test_family_builds_match_oracle(name):
    record = FAMILY_RECORDS[name]()
    g = _assert_same_build(record, name)
    _assert_same_orbits(g.rotation, g.edge_ends, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_builds_match_oracle(random_tessellation, seed):
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(0, 60))
    if rng.random() < 0.5:
        # ids, rotation starts and record order need not be canonical
        shift = rng.randint(-5, 1000)
        for item in record["vertices"]:
            rot = item["rotation"]
            k = rng.randrange(len(rot))
            item["rotation"] = [e + shift for e in rot[k:] + rot[:k]]
        for item in record["edges"]:
            item["id"] += shift
            item["ends"].reverse()
        record["unbounded_face_reps"] = [[e + shift, h]
                                         for e, h in record["unbounded_face_reps"]]
        rng.shuffle(record["vertices"])
        rng.shuffle(record["edges"])
    g = _assert_same_build(record, seed)

    # the tracer on the rotation restricted to a vertex subset, as the
    # closure code calls it
    inside = set(rng.sample(g.vertices, rng.randint(1, len(g.vertices))))
    rot = {v: [e for e in g.rotation[v] if set(g.edge_ends[e]) <= inside] for v in inside}
    ends = {e: g.edge_ends[e] for r in rot.values() for e in r}
    _assert_same_orbits(g.rotation, g.edge_ends, seed)
    _assert_same_orbits(rot, ends, seed)


# ---------------------------------------------------------------------------
# equal faults
# ---------------------------------------------------------------------------

def _vertex(record, vid):
    return next(item for item in record["vertices"] if item["id"] == vid)


def _edge(record, eid):
    return next(item for item in record["edges"] if item["id"] == eid)


ROTATION_FAULTS = {
    # vertex 0 of K4 carries edges 0, 1, 2
    "repeated-edge": lambda r: _vertex(r, 0)["rotation"].append(
        _vertex(r, 0)["rotation"][0]),
    "repeated-edge-replacing-one": lambda r: _vertex(r, 0).update(
        rotation=[0, 0, 1]),
    "foreign-edge": lambda r: _vertex(r, 0)["rotation"].append(3),
    "foreign-edge-replacing-one": lambda r: _vertex(r, 0).update(rotation=[0, 1, 3]),
    "missing-edge": lambda r: _vertex(r, 0)["rotation"].pop(),
    "empty-rotation": lambda r: _vertex(r, 0).update(rotation=[]),
    "unknown-edge-id": lambda r: _vertex(r, 0)["rotation"].append(99),
    "unknown-edge-id-replacing-one": lambda r: _vertex(r, 0).update(rotation=[0, 1, 99]),
    "swapped-between-vertices": lambda r: (_vertex(r, 0).update(rotation=[0, 1, 3]),
                                           _vertex(r, 3).update(rotation=[2, 5, 4])),
    "isolated-vertex": lambda r: r["vertices"].append({"id": 7, "rotation": []}),
    "last-vertex-missing-edge": lambda r: _vertex(r, 3)["rotation"].pop(0),
}

PARSE_FAULTS = {
    "duplicate-vertex-id": lambda r: r["vertices"].append(
        {"id": 2, "rotation": [3, 1, 4]}),
    "duplicate-edge-id": lambda r: r["edges"].append(
        {"id": 4, "ends": [0, 1], "length": "1"}),
    "loop": lambda r: _edge(r, 3).update(ends=[1, 1]),
    "parallel-edge": lambda r: _edge(r, 3).update(ends=[0, 1]),
    "parallel-edge-reversed": lambda r: _edge(r, 3).update(ends=[1, 0]),
    "unknown-end": lambda r: _edge(r, 3).update(ends=[1, 9]),
    "three-ends": lambda r: _edge(r, 3).update(ends=[1, 2, 0]),
    "one-end": lambda r: _edge(r, 3).update(ends=[1]),
    "ends-not-a-list": lambda r: _edge(r, 3).update(ends=5),
    "float-vertex-id": lambda r: _vertex(r, 1).update(id=1.0),
    "bool-rotation-entry": lambda r: _vertex(r, 1)["rotation"].__setitem__(0, True),
    "string-rotation": lambda r: _vertex(r, 1).update(rotation="035"),
    "float-edge-end": lambda r: _edge(r, 3).update(ends=[1, 2.0]),
    "no-length": lambda r: _edge(r, 3).pop("length"),
    "zero-length": lambda r: _edge(r, 3).update(length="0"),
    "negative-length-int": lambda r: _edge(r, 3).update(length=-2),
    "bad-length": lambda r: _edge(r, 3).update(length="x"),
    "frontier-unknown": lambda r: r.update(frontier_vertices=[9]),
    "frontier-float": lambda r: r.update(frontier_vertices=[1.0]),
    "true-degree-key-padded": lambda r: r.update(true_degree={" 1": 3}),
    "true-degree-key-plus": lambda r: r.update(true_degree={"+1": 3}),
    "true-degree-low": lambda r: r.update(true_degree={"1": 2}),
    "frontier-true-degree-low": lambda r: r.update(frontier_vertices=[1],
                                                   true_degree={"1": 2}),
    "bad-face-rep": lambda r: r.update(unbounded_face_reps=[[0, 3]]),
    "disconnected": lambda r: (r["vertices"].extend([{"id": 7, "rotation": [9]},
                                                     {"id": 8, "rotation": [9]}]),
                               r["edges"].append({"id": 9, "ends": [7, 8],
                                                  "length": "1"})),
}


def _raised(build, record):
    with pytest.raises(Exception) as info:
        build(copy.deepcopy(record))
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(ROTATION_FAULTS) + sorted(PARSE_FAULTS))
def test_faults_match_oracle(name):
    record = k4_record()
    (ROTATION_FAULTS.get(name) or PARSE_FAULTS[name])(record)
    got, want = _raised(build_graph, record), _raised(_oracle_build_graph, record)
    assert got == want, name
    if name in ROTATION_FAULTS:
        assert got[0] is MalformedRotation, name
