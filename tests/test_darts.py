"""The int dart convention of ``graphcore``.

The i-th edge of ``g.edges`` has darts 2i and 2i+1, the odd one into the
edge's larger end, so ``d ^ 1`` is the twin of ``d`` and int order is
(edge id, head) order.  On every generated family ball at radii 1 to 4
and on seeded random tessellations: twins, ``dart`` lookups, the face
rule along every tile cycle and ``rotation_darts`` against ``rotation``.
Records whose ``ends`` list the larger end first, or whose edge ids are
remapped to sparse negative ids, must give the same tiles and the same
command results.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from isotess import cli
from isotess.families import GkParams, PQParams, gen_gk, gen_nonequilateral_tree, gen_pq_ball
from isotess.graphcore import MetricGraph, build_graph

FAMILIES = {
    "pq73": lambda r: gen_pq_ball(PQParams(7, 3), r),
    "pq44": lambda r: gen_pq_ball(PQParams(4, 4), r),
    "pq37": lambda r: gen_pq_ball(PQParams(3, 7), r),
    "pq54": lambda r: gen_pq_ball(PQParams(5, 4), r),
    "tree3": lambda r: gen_pq_ball(PQParams(3, math.inf), r),
    # a non-equilateral tree needs depth 2 at least
    "netree6": lambda r: gen_nonequilateral_tree(6, r + 1),
    "gk3": lambda r: gen_gk(GkParams(k=3, rows=3, cols=3, tree_depth=r)),
}

SEEDS = [f"darts:{i}" for i in range(30)]


def _assert_dart_convention(g: MetricGraph, label) -> None:
    n = 2 * len(g.edges)
    assert len(g.dart_head) == len(g.dart_tile) == n, label
    for d in range(n):
        e = g.edges[d >> 1]
        lo, hi = sorted(g.edge_ends[e])
        # d ^ 1 is the twin: the same edge, into its other end
        assert g.edges[(d ^ 1) >> 1] == e, (label, d)
        assert (g.dart_head[d & ~1], g.dart_head[d | 1]) == (lo, hi), (label, d)
        assert g.dart(e, g.dart_head[d]) == d, (label, d)
        assert g.darts_of(e) == (d & ~1, d | 1), (label, d)

    # each tile's cycle follows the face rule and starts at its smallest dart
    seen = []
    for t in g.tiles:
        assert t.cycle[0] == min(t.cycle), (label, t.index)
        for d, nxt in zip(t.cycle, t.cycle[1:] + t.cycle[:1]):
            v = g.dart_head[d]
            rot = g.rotation[v]
            after = rot[(rot.index(g.edges[d >> 1]) + 1) % len(rot)]
            assert g.dart_head[nxt ^ 1] == v and g.edges[nxt >> 1] == after, (label, d)
            assert g.dart_tile[d] == t.index, (label, d)
        seen.extend(t.cycle)
    assert sorted(seen) == list(range(n)), label
    starts = [t.cycle[0] for t in g.tiles]
    assert starts == sorted(starts), label

    # rotation_darts[v] lines up with rotation[v]
    assert g.rotation_darts.keys() == g.rotation.keys(), label
    for v, rot in g.rotation.items():
        darts = g.rotation_darts[v]
        assert [g.edges[d >> 1] for d in darts] == list(rot), (label, v)
        assert all(g.dart_head[d] == v for d in darts), (label, v)

    # dart(e, v) is a KeyError when v is not an end of e, or e is no edge
    e = g.edges[0]
    stranger = next(v for v in g.vertices if v not in g.edge_ends[e])
    with pytest.raises(KeyError):
        g.dart(e, stranger)
    with pytest.raises(KeyError):
        g.dart(max(g.edges) + 1, g.edge_ends[e][0])


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_dart_convention(name, radius):
    _assert_dart_convention(build_graph(FAMILIES[name](radius)), (name, radius))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_dart_convention(random_tessellation, seed):
    rng = random.Random(seed)
    _assert_dart_convention(build_graph(random_tessellation(rng, rng.randint(0, 60))), seed)


# ---------------------------------------------------------------------------
# records that spell the same graph differently
# ---------------------------------------------------------------------------

def _larger_end_first(record: dict) -> dict:
    out = copy.deepcopy(record)
    for item in out["edges"]:
        item["ends"] = sorted(item["ends"], reverse=True)
    return out


def _sparse_negative_ids(record: dict, rng: random.Random) -> tuple[dict, dict[int, int]]:
    """The record with every edge id e renamed new[e], a sparse negative id
    in no particular order, in its rotations and face reps too."""
    out = copy.deepcopy(record)
    ids = [item["id"] for item in out["edges"]]
    new = dict(zip(ids, rng.sample(range(-10 ** 9, 0), len(ids))))
    for item in out["edges"]:
        item["id"] = new[item["id"]]
    for item in out["vertices"]:
        item["rotation"] = [new[e] for e in item["rotation"]]
    out["unbounded_face_reps"] = [[new[e], h] for e, h in out.get("unbounded_face_reps", ())]
    return out, new


def _tiles_by_edges(g: MetricGraph, rename=None) -> dict:
    """Each tile's (status, degree, perimeter), keyed by its edge ids,
    renamed back through ``rename`` when given."""
    back = {v: k for k, v in rename.items()} if rename else {}
    out = {frozenset(back.get(e, e) for e in t.edges): (t.status, t.degree, t.perimeter)
           for t in g.tiles}
    assert len(out) == len(g.tiles)
    return out


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_larger_end_first_builds_the_same_tiles(radius):
    record = gen_pq_ball(PQParams(7, 3), radius)
    plain, flipped = build_graph(record), build_graph(_larger_end_first(record))
    assert flipped.tiles == plain.tiles
    assert flipped.dart_head == plain.dart_head
    assert flipped.dart_tile == plain.dart_tile


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_sparse_negative_ids_build_the_same_tiles(random_tessellation, seed):
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(0, 60))
    renamed, new = _sparse_negative_ids(record, rng)
    g = build_graph(renamed)
    _assert_dart_convention(g, seed)
    assert _tiles_by_edges(g, new) == _tiles_by_edges(build_graph(record))


def test_sparse_negative_ids_on_a_family_ball():
    record = gen_pq_ball(PQParams(7, 3), 3)
    renamed, new = _sparse_negative_ids(record, random.Random("sparse"))
    assert _tiles_by_edges(build_graph(renamed), new) \
        == _tiles_by_edges(build_graph(record))


def _result(tmp_path, capsys, record: dict, *argv) -> dict:
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    return json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize("argv", [("faces",), ("curvature",), ("validate",),
                                  ("alpha", "--budget-edges", "4")])
def test_larger_end_first_gives_the_same_results(tmp_path, capsys, argv):
    # pq(7,3) r5 exhausts alpha's default yield budget (exit 3), so alpha
    # scans 4 edges
    record = gen_pq_ball(PQParams(7, 3), 5)
    assert _result(tmp_path, capsys, _larger_end_first(record), *argv) \
        == _result(tmp_path, capsys, record, *argv)
