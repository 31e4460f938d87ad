"""The bound-pruned edge scan against the same scan with no pruning.

``alpha_upper_bruteforce`` hands ``_lex_min``'s hook to the edge scan,
which then skips batches whose ratio floor cannot change the result.
Dropping the hook gives the scan that visits every set.  On seeded random
tessellations (``bench/inputs.py::random_tessellation``), some with
pendant edges so that eligible vertices of true degree 1 occur, both must
give the same value, witness, count and note for budgets of 1 to 6 edges,
with and without ``proper_only``, and hit ``max_yield`` at the same
point.  Their degree-3 vertices make closers (vertices one edge short of
their true degree) common; only at 6 edges does a floor taken with a
closer present skip a batch that holds the minimiser.  Random inputs
never meet the floor exactly, so two hand-built paths that do pin the tie
rule and the floor's term for vertices of true degree 1.  Pruning less
changes no result, so pins on the visit counts of G_3 and a (4,4) ball,
where closers are common, catch a scan that takes fewer floors than it
may.  A failure names its seed; ``random.Random`` with that string
replays it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from isotess import families, isoperimetry
from isotess.graphcore import build_graph
from isotess.isoperimetry import Budget, alpha_upper_bruteforce

from conftest import bruteforce_outcome, unpruned, with_pendants

SEEDS = [f"prune:{i}" for i in range(60)]


def _graph(random_tessellation, seed):
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(1, 7))
    if rng.random() < 0.5:
        # unit lengths: many ratios tie, so the witness rule decides
        for item in record["edges"]:
            item["length"] = "1"
    if rng.random() < 0.3:
        with_pendants(record, rng, rng.randint(1, 4))
    return build_graph(record)


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_scan_matches_unpruned(random_tessellation, monkeypatch, seed):
    g = _graph(random_tessellation, seed)
    cases = [(Budget(max_edges=k), proper_only)
             for k in range(1, 7) for proper_only in (False, True)]
    pruned = [bruteforce_outcome(g, *case) for case in cases]
    with monkeypatch.context() as m:
        unpruned(m)
        full = [bruteforce_outcome(g, *case) for case in cases]
    for case, got, want in zip(cases, pruned, full):
        assert got == want, (seed, case)


@pytest.mark.parametrize("max_edges", [2, 3, 4])
def test_pruned_scan_keeps_max_yield_boundary(random_tessellation, monkeypatch, max_edges):
    for seed in SEEDS[:5]:
        g = _graph(random_tessellation, seed)
        total = bruteforce_outcome(g, Budget(max_edges=max_edges), False)[2]
        for cap in (1, total // 3, total - 1, total):
            budget = Budget(max_edges=max_edges, max_yield=cap)
            got = bruteforce_outcome(g, budget, False)
            with monkeypatch.context() as m:
                unpruned(m)
                want = bruteforce_outcome(g, budget, False)
            assert got == want, (seed, max_edges, cap)
            assert (got[0] == "budget") == (cap < total), (seed, max_edges, cap)


def _path(lengths, end_degree):
    """The path a -0- u -2- c -1- d: u has true degree 2, a and c 3, d ``end_degree``."""
    frontier = {0: 3, 2: 3}
    if end_degree > 1:
        frontier[3] = end_degree
    return build_graph({
        "vertices": [{"id": 0, "rotation": [0]}, {"id": 1, "rotation": [0, 2]},
                     {"id": 2, "rotation": [2, 1]}, {"id": 3, "rotation": [1]}],
        "edges": [{"id": e, "ends": ends, "length": lengths[e]}
                  for e, ends in ((0, [0, 1]), (1, [2, 3]), (2, [1, 2]))],
        "frontier_vertices": sorted(frontier),
        "true_degree": {str(v): d for v, d in frontier.items()},
        "unbounded_face_reps": [[0, 1]],
    })


# the leaves of [0, 2] (closer u saturated by edge 2) meet the floor
# exactly and tie the best [0, 2]: only the leaf [0, 1, 2] wins, by its
# witness, so the tie rule and the floor's low term must let it through
@pytest.mark.parametrize("lengths,end_degree,value", [
    (["1", "2", "1"], 3, 1),  # low = 1: every end has true degree >= 2
    (["2", "2", "2"], 1, Fraction(1, 2)),  # low = 0: d has true degree 1
])
def test_floor_met_exactly_keeps_the_smaller_witness(lengths, end_degree, value):
    g = _path(lengths, end_degree)
    res = alpha_upper_bruteforce(g, Budget(max_edges=3), eligible_edges=[0, 1, 2])
    assert (res.bound.value, res.bound.witness, res.enumerated) == (value, (0, 1, 2), 6)


def test_pruned_scan_skips_most_visits_on_pq73_r3(monkeypatch):
    g = build_graph(families.gen_pq_ball(families.PQParams(p=7, q=3), 3))
    visits = 0
    scan = isoperimetry.scan_connected_edge_subsets

    def counted(g, max_edges, visit, *args, **kwargs):
        def counting(*x):
            nonlocal visits
            visits += 1
            return visit(*x)
        return scan(g, max_edges, counting, *args, **kwargs)

    monkeypatch.setattr(isoperimetry, "scan_connected_edge_subsets", counted)
    res = alpha_upper_bruteforce(g, Budget(max_edges=6))
    assert res.enumerated == 300_125
    assert res.bound.witness == (0,)
    assert visits <= 1_000


# G_3 and the (4,4) ball are full of closers: a scan that keeps counting
# a vertex as a closer once it is saturated takes fewer floors and visits
# more sets (3,910 and 19,473), with the same results
@pytest.mark.parametrize("graph,visits,enumerated", [
    (lambda: families.gen_gk(families.GkParams(k=3)), 3_677, 17_578),
    (lambda: families.gen_pq_ball(families.PQParams(4, 4), 5), 18_101, 30_547),
], ids=["gk3", "pq44r5"])
def test_pruned_scan_visits_where_closers_occur(monkeypatch, graph, visits, enumerated):
    got = 0
    scan = isoperimetry.scan_connected_edge_subsets

    def counted(g, max_edges, visit, *args, **kwargs):
        def counting(*x):
            nonlocal got
            got += 1
            return visit(*x)
        return scan(g, max_edges, counting, *args, **kwargs)

    monkeypatch.setattr(isoperimetry, "scan_connected_edge_subsets", counted)
    res = alpha_upper_bruteforce(build_graph(graph()), Budget(max_edges=6))
    assert (got, res.enumerated) == (visits, enumerated)
