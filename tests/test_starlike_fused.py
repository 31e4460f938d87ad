"""The star-like pass against the two-phase pass it replaced.

``enumerate_starlike_complete`` grows each candidate's union of stars
inside the ESU scan and closes the candidate as soon as it is built.
``_two_phase`` is the earlier pass: the vertex scan lists every
connected generator set first, then each set's union of stars is
measured, closed and deduplicated in that order.  Both must return the
same selections, field by field and in the same order, with the same
``skipped``, and must stop at the same ``max_yield``.  A failure names its
input; random tessellations are replayed by ``random.Random`` with the
seed string.
"""

from __future__ import annotations

import random

import pytest

from isotess.errors import BudgetExceeded, FrontierContact
from isotess.families import PQParams, gen_nonequilateral_tree, gen_pq_ball
from isotess.graphcore import build_graph, complete_closure, subgraph_stats
from isotess.isoperimetry import (
    Budget,
    _scan_connected_vertex_sets,
    enumerate_starlike_complete,
)

from test_closure_local import _distances
from test_starlike_exact import _fields

RANDOM_SEEDS = [f"fused:{i}" for i in range(30)]


def _two_phase(g, max_generators, generators_from=None, max_yield=Budget.max_yield):
    vertex_ids = sorted(generators_from if generators_from is not None
                        else g.frontier_free_vertices())
    vertex_sets = []

    def visit(stack, cut, sumdeg):
        vertex_sets.append(tuple(vertex_ids[i] for i in stack))

    _scan_connected_vertex_sets(g, vertex_ids, max_generators, visit, max_yield)
    seen = set()
    out = []
    skipped = 0
    for generators in vertex_sets:
        edges = set()
        for v in generators:
            edges.update(g.rotation[v])
        try:
            sel = complete_closure(g, subgraph_stats(g, edges))
        except FrontierContact:
            skipped += 1
            continue
        if sel.edges not in seen:
            seen.add(sel.edges)
            out.append(sel)
    return out, skipped


def _hidden_frontier(record):
    # the frontier's true degrees deleted: most closures are skipped
    for v in record["frontier_vertices"]:
        del record["true_degree"][str(v)]
    return record


# (record, generators, radius of the generator region or None); the first
# four are the inputs of the starlike-closure benchmark workload
INPUTS = {
    "pq73r4": (lambda: gen_pq_ball(PQParams(7, 3), 4), 4, None),
    "netree83": (lambda: gen_nonequilateral_tree(8, 3), 4, None),
    "pq44r5": (lambda: gen_pq_ball(PQParams(4, 4), 5), 6, 2),
    "pq37r6": (lambda: gen_pq_ball(PQParams(3, 7), 6), 6, 2),
    "pq73r3": (lambda: gen_pq_ball(PQParams(7, 3), 3), 4, None),
    "pq73r3-hidden": (lambda: _hidden_frontier(gen_pq_ball(PQParams(7, 3), 3)), 4, None),
}


def _assert_same(got, want, label):
    (sels, skipped), (want_sels, want_skipped) = got, want
    assert skipped == want_skipped, label
    assert [_fields(s) for s in sels] == [_fields(s) for s in want_sels], label


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_family_inputs_match_two_phase(name):
    make, generators, radius = INPUTS[name]
    g = build_graph(make())
    gens = None if radius is None else sorted(_distances(g, 0, limit=radius))
    got = enumerate_starlike_complete(g, generators, generators_from=gens)
    _assert_same(got, _two_phase(g, generators, gens), name)
    if name == "pq73r3-hidden":
        assert got[1] > 0


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_tessellations_match_two_phase(random_tessellation, seed):
    rng = random.Random(seed)
    g = build_graph(random_tessellation(rng, rng.randint(1, 20)))
    for generators in range(1, 5):
        _assert_same(enumerate_starlike_complete(g, generators),
                     _two_phase(g, generators), (seed, generators))


@pytest.mark.parametrize("radius,sets", [(3, 869), (4, 3_165)])
def test_max_yield_boundary(radius, sets):
    # the scan counts each batch of sets before it closes any of them, so
    # the last budget that passes is the number of generator sets
    g = build_graph(gen_pq_ball(PQParams(7, 3), radius))
    _assert_same(enumerate_starlike_complete(g, 4, max_yield=sets),
                 _two_phase(g, 4, max_yield=sets), radius)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_starlike_complete(g, 4, max_yield=sets - 1)
    assert info.value.yielded == sets
    assert str(info.value) == f"enumeration exceeded max_yield={sets - 1}"
