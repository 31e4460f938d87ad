"""The ESU scans against an ``itertools.combinations`` filter.

On seeded random tessellations (``bench/inputs.py::random_tessellation``,
through the ``random_tessellation`` fixture of conftest.py), the connected
edge subsets and connected vertex sets of each size are listed naively:
every combination, kept when it is connected.  The scans must visit
exactly those sets, once each, and the brute-force minima must be the
naive minimum ratio with the lexicographically smallest sorted witness
among its minimisers.  The scans visit each set's extensions in one
batch; a one-set-per-call recursive ESU, read in the same order, is kept
here as an oracle for the visiting order, the positions and the
statistics of every set.  A failure names its seed; ``random.Random``
with that string replays it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from isotess.errors import BudgetExceeded
from isotess.graphcore import build_graph
from isotess.isoperimetry import (
    Budget,
    _scan_connected_vertex_sets,
    alpha_comb_upper_bruteforce,
    alpha_upper_bruteforce,
    enumerate_connected_subgraphs,
    length_scale,
    scan_connected_edge_subsets,
)

SEEDS = [f"esu:{i}" for i in range(30)]
MAX_VERTICES = 4


def _connected(items, ends) -> bool:
    """Whether the edges ``items`` (ids into ``ends``) form one component."""
    comp = {v: v for e in items for v in ends[e]}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for e in items:
        a, b = ends[e]
        comp[find(a)] = find(b)
    return len({find(v) for v in comp}) == 1


def _naive_edge_subsets(g, max_edges):
    return [combo for k in range(1, max_edges + 1)
            for combo in combinations(g.edges, k) if _connected(combo, g.edge_ends)]


def _naive_vertex_sets(g, max_size):
    out = []
    for k in range(1, max_size + 1):
        for combo in combinations(g.vertices, k):
            inside = set(combo)
            induced = [e for e in g.edges if set(g.edge_ends[e]) <= inside]
            if k == 1 or (induced and _connected(induced, g.edge_ends)
                          and {v for e in induced for v in g.edge_ends[e]} == inside):
                out.append(combo)
    return out


def _edge_ratio(g, combo) -> Fraction:
    degree: dict[int, int] = {}
    for e in combo:
        for v in g.edge_ends[e]:
            degree[v] = degree.get(v, 0) + 1
    boundary = sum(d for v, d in degree.items() if d < g.true_degree[v])
    return Fraction(boundary) / sum((g.length[e] for e in combo), Fraction(0))


def _vertex_ratio(g, combo) -> Fraction:
    inside = set(combo)
    cut = sum(len(inside & set(g.edge_ends[e])) == 1 for e in g.edges)
    return Fraction(cut, sum(g.true_degree[v] for v in combo))


def _graph(random_tessellation, seed):
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(0, 5))
    if rng.random() < 0.5:
        # unit lengths: many ratios tie, so the witness rule decides
        for item in record["edges"]:
            item["length"] = "1"
    g = build_graph(record)
    # K4 (no split) is scanned whole, so the empty-boundary subset shows
    max_edges = len(g.edges) if len(g.edges) <= 6 else 4
    return g, max_edges


@pytest.mark.parametrize("seed", SEEDS)
def test_scans_match_combinations(random_tessellation, seed):
    g, max_edges = _graph(random_tessellation, seed)

    naive_edges = _naive_edge_subsets(g, max_edges)
    got = enumerate_connected_subgraphs(g, max_edges)
    assert len(got) == len(set(got)), seed
    assert sorted(got) == sorted(naive_edges), seed

    sets = []
    count = _scan_connected_vertex_sets(
        g, list(g.vertices), MAX_VERTICES,
        lambda stack, cut, sumdeg: sets.append(tuple(sorted(g.vertices[i] for i in stack))),
        max_yield=10**6)
    assert count == len(sets) == len(set(sets)), seed
    assert sorted(sets) == sorted(_naive_vertex_sets(g, MAX_VERTICES)), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_minima_match_combinations(random_tessellation, seed):
    g, max_edges = _graph(random_tessellation, seed)
    budget = Budget(max_edges=max_edges, max_generators=MAX_VERTICES)

    naive_edges = _naive_edge_subsets(g, max_edges)
    for proper_only in (False, True):
        ranked = [(_edge_ratio(g, c), c) for c in naive_edges]
        if proper_only:
            ranked = [(r, c) for r, c in ranked if r]
        res = alpha_upper_bruteforce(g, budget, proper_only=proper_only)
        assert res.enumerated == len(naive_edges), (seed, proper_only)
        assert (res.bound.value, res.bound.witness) == min(ranked), (seed, proper_only)

    naive_sets = _naive_vertex_sets(g, MAX_VERTICES)
    comb = alpha_comb_upper_bruteforce(g, budget)
    assert comb.enumerated == len(naive_sets), seed
    assert (comb.value, comb.witness_vertices) \
        == min((_vertex_ratio(g, c), c) for c in naive_sets), seed


def _recursive_esu(nbrs, max_size):
    """Every set, as a node tuple, in the scans' visiting order.

    Wernicke's ESU recursion, one call per set, builds the tree of sets:
    each set is grown by every later node of ``ext`` and by the
    neighbours no smaller set has reached.  The scans do not read that
    tree in preorder: they visit the single nodes first, then, for each
    set in turn, all of its children together before growing any of them.
    """
    touched = bytearray(len(nbrs))
    stack = []
    children = {(): []}

    def extend(i, ext):
        stack.append(i)
        key = tuple(stack)
        children[key[:-1]].append(key)
        children[key] = []
        if len(stack) < max_size:
            fresh = [j for j in nbrs[i] if not touched[j]]
            for j in fresh:
                touched[j] = 1
            ext = ext + fresh
            for k, j in enumerate(ext):
                extend(j, ext[k + 1:])
            for j in fresh:
                touched[j] = 0
        stack.pop()

    for r in range(len(nbrs)):
        touched[r] = 1
        extend(r, [])

    out = []

    def read(key):
        out.extend(children[key])
        for child in children[key]:
            read(child)

    read(())
    return out


def _recorded(scan):
    """Every (stack, num, den, position) that ``scan(visit)`` visits, and its count."""
    out = []
    count = scan(lambda stack, num, den: out.append((tuple(stack), num, den, len(out))))
    return out, count


@pytest.mark.parametrize("seed", SEEDS)
def test_scans_match_recursive_esu(random_tessellation, seed):
    g, _ = _graph(random_tessellation, seed)
    edge_ids = sorted(g.frontier_free_edges())
    scale = length_scale(g, edge_ids)
    line = [sorted(j for j, f in enumerate(edge_ids)
                   if f != e and set(g.edge_ends[f]) & set(g.edge_ends[e]))
            for e in edge_ids]
    vertex_ids = list(g.vertices)
    adjacent = {frozenset(ends) for ends in g.edge_ends.values()}
    adj = [[j for j, w in enumerate(vertex_ids) if frozenset((v, w)) in adjacent]
           for v in vertex_ids]

    def edge_stats(stack):
        degree: dict[int, int] = {}
        for i in stack:
            for v in g.edge_ends[edge_ids[i]]:
                degree[v] = degree.get(v, 0) + 1
        boundary = sum(d for v, d in degree.items() if d < g.true_degree[v])
        return boundary, int(sum(g.length[edge_ids[i]] for i in stack) * scale)

    def vertex_stats(stack):
        inside = {vertex_ids[i] for i in stack}
        sumdeg = sum(g.true_degree[v] for v in inside)
        internal = sum(set(ends) <= inside for ends in g.edge_ends.values())
        return sumdeg - 2 * internal, sumdeg

    for max_size in range(1, 5):
        want = [(stack, *edge_stats(stack), idx)
                for idx, stack in enumerate(_recursive_esu(line, max_size))]
        got, count = _recorded(lambda visit: scan_connected_edge_subsets(
            g, max_size, visit, edge_ids))
        assert got == want and count == len(want), (seed, "edges", max_size)

        want = [(stack, *vertex_stats(stack), idx)
                for idx, stack in enumerate(_recursive_esu(adj, max_size))]
        got, count = _recorded(lambda visit: _scan_connected_vertex_sets(
            g, vertex_ids, max_size, visit, 10**6))
        assert got == want and count == len(want), (seed, "vertices", max_size)


@pytest.mark.parametrize("max_size", [1, 2, 3, 4])
def test_max_yield_boundary(random_tessellation, max_size):
    def ignore(stack, num, den):
        pass

    for seed in SEEDS[:6]:
        g, _ = _graph(random_tessellation, seed)
        scans = {
            "edges": lambda cap: scan_connected_edge_subsets(
                g, max_size, ignore, max_yield=cap),
            "vertices": lambda cap: _scan_connected_vertex_sets(
                g, list(g.vertices), max_size, ignore, cap),
        }
        for name, scan in scans.items():
            total = scan(10**6)
            assert scan(total) == total, (seed, name, max_size)
            for cap in (1, total - 1):
                with pytest.raises(BudgetExceeded) as info:
                    scan(cap)
                assert info.value.yielded == cap + 1, (seed, name, max_size, cap)
