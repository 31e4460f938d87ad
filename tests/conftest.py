"""Shared fixtures: small hand-checkable graphs built from coordinates."""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from isotess import isoperimetry
from isotess.errors import BudgetExceeded
from isotess.graphcore import build_graph, trace_faces


def record_from_coords(pos, edges, lengths=None, mark_outer=True,
                       frontier=(), true_degree=None):
    """Interchange record from a straight-line drawing.

    ``pos``: vertex id -> (x, y); ``edges``: list of (u, v).  Rotations are
    the clockwise angular order of the incident edges; with ``mark_outer``
    the outer face is found by orientation (the unique clockwise polygon
    walk) and marked unbounded.  Only for 2-connected drawings.
    """
    edges = list(edges)
    edge_ends = {i: (u, v) for i, (u, v) in enumerate(edges)}
    incident = {v: [] for v in pos}
    for i, (u, v) in edge_ends.items():
        incident[u].append(i)
        incident[v].append(i)

    def angle(v, e):
        u = edge_ends[e][1] if edge_ends[e][0] == v else edge_ends[e][0]
        return math.atan2(pos[u][1] - pos[v][1], pos[u][0] - pos[v][0])

    rotation = {v: sorted(es, key=lambda e: -angle(v, e)) for v, es in incident.items()}

    reps = []
    if mark_outer:
        outer = None
        for cycle in trace_faces(rotation, edge_ends):
            walk = [d[1] for d in cycle]
            area = 0.0
            for i in range(len(walk)):
                x1, y1 = pos[walk[i]]
                x2, y2 = pos[walk[(i + 1) % len(walk)]]
                area += x1 * y2 - x2 * y1
            if area < 0:
                assert outer is None, "two clockwise faces: drawing is not planar"
                outer = cycle
        assert outer is not None, "no outer face found"
        reps = [[outer[0][0], outer[0][1]]]

    if lengths is None:
        lengths = {i: Fraction(1) for i in edge_ends}
    return {
        "vertices": [{"id": v, "rotation": rotation[v]} for v in sorted(pos)],
        "edges": [{"id": i, "ends": list(edge_ends[i]), "length": str(lengths[i])}
                  for i in sorted(edge_ends)],
        "frontier_vertices": sorted(frontier),
        "true_degree": {str(v): d for v, d in (true_degree or {}).items()},
        "unbounded_face_reps": reps,
    }


def square_patch_record(n):
    """(n+1) x (n+1) grid truncation of the square lattice, unit lengths.

    Vertex (x, y) has id x*(n+1)+y; rim vertices are frontier with true
    degree 4.  Returns (record, coordinate map).
    """
    pos = {}
    for x in range(n + 1):
        for y in range(n + 1):
            pos[x * (n + 1) + y] = (float(x), float(y))
    edges = []
    for x in range(n + 1):
        for y in range(n + 1):
            v = x * (n + 1) + y
            if x < n:
                edges.append((v, (x + 1) * (n + 1) + y))
            if y < n:
                edges.append((v, v + 1))
    rim = [v for v, (x, y) in pos.items()
           if x in (0.0, float(n)) or y in (0.0, float(n))]
    record = record_from_coords(pos, edges, mark_outer=False, frontier=rim,
                                true_degree={v: 4 for v in rim})
    return record, pos


def k4_record(lengths=None):
    pos = {0: (0.0, 0.0), 1: (0.0, 2.0), 2: (1.8, -1.0), 3: (-1.8, -1.0)}
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)]
    return record_from_coords(pos, edges, lengths)


def wheel_record(n, lengths=None):
    """Hub 0 plus an n-cycle rim; spokes are edges 0..n-1, rim n..2n-1."""
    pos = {0: (0.0, 0.0)}
    for i in range(1, n + 1):
        theta = math.pi / 2 - 2 * math.pi * (i - 1) / n  # clockwise placement
        pos[i] = (2 * math.cos(theta), 2 * math.sin(theta))
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return record_from_coords(pos, edges, lengths)


def triangulated_hexagon_record(lengths=None):
    """Hexagon rim 0..5, inner triangle 6,7,8, all faces triangles."""
    pos = {}
    for i in range(6):
        theta = math.pi / 2 - math.pi * i / 3
        pos[i] = (2 * math.cos(theta), 2 * math.sin(theta))
    for j, deg in ((6, 30.0), (7, -90.0), (8, 150.0)):
        theta = math.radians(deg)
        pos[j] = (0.8 * math.cos(theta), 0.8 * math.sin(theta))
    edges = [(i, (i + 1) % 6) for i in range(6)]          # rim 0..5
    edges += [(6, 7), (7, 8), (8, 6)]                     # inner triangle 6..8
    edges += [(6, 0), (6, 1), (6, 2)]                     # 9..11
    edges += [(7, 2), (7, 3), (7, 4)]                     # 12..14
    edges += [(8, 4), (8, 5), (8, 0)]                     # 15..17
    return record_from_coords(pos, edges, lengths)


def finite_corpus(lengths_fn=None):
    """The finite tessellating corpus: K4, W4, W5, W6, triangulated hexagon."""
    builders = [("K4", k4_record, 6), ("W4", lambda le=None: wheel_record(4, le), 8),
                ("W5", lambda le=None: wheel_record(5, le), 10),
                ("W6", lambda le=None: wheel_record(6, le), 12),
                ("trihex", triangulated_hexagon_record, 18)]
    out = []
    for name, make, n_edges in builders:
        lengths = lengths_fn(name, n_edges) if lengths_fn else None
        out.append((name, make(lengths)))
    return out


@pytest.fixture
def k4():
    return build_graph(k4_record())


@pytest.fixture
def wheel5():
    return build_graph(wheel_record(5))


@pytest.fixture
def trihex():
    return build_graph(triangulated_hexagon_record())


@pytest.fixture(scope="session")
def random_tessellation():
    """``random_tessellation`` of bench/inputs.py, loaded by path.

    That module imports its bench/ siblings, so bench/ is on the path while
    it loads.
    """
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("bench_inputs", bench / "inputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module.random_tessellation


def with_pendants(record: dict, rng: random.Random, count: int,
                  onto: list[int] | None = None) -> None:
    """Hang ``count`` edges of true degree 1 at their new end off random
    vertices, of ``onto`` when given; a declared true degree of the old
    end grows with it."""
    rotation = {item["id"]: item["rotation"] for item in record["vertices"]}
    declared = record.get("true_degree", {})
    for _ in range(count):
        v = rng.choice(onto if onto is not None else sorted(rotation))
        if str(v) in declared:
            declared[str(v)] += 1
        x, f = len(rotation), len(record["edges"])
        rotation[v].insert(rng.randrange(len(rotation[v]) + 1), f)
        rotation[x] = [f]
        record["vertices"].append({"id": x, "rotation": rotation[x]})
        record["edges"].append({"id": f, "ends": [v, x], "length": "1"})


def unpruned(monkeypatch):
    """Make ``alpha_upper_bruteforce`` scan with the hook dropped."""
    scan = isoperimetry.scan_connected_edge_subsets

    def every_set(*args, **kwargs):
        kwargs["_hopeless"] = None
        return scan(*args, **kwargs)

    monkeypatch.setattr(isoperimetry, "scan_connected_edge_subsets", every_set)


def bruteforce_outcome(g, budget, proper_only):
    """(value, witness, count, note) of ``alpha_upper_bruteforce``, or
    ("budget", yielded) when it raises BudgetExceeded."""
    try:
        res = isoperimetry.alpha_upper_bruteforce(g, budget, proper_only=proper_only)
    except BudgetExceeded as exc:
        return "budget", exc.yielded
    return res.bound.value, res.bound.witness, res.enumerated, res.bound.note
