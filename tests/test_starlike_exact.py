"""Differential check of the star-like pass against plain Fraction formulas.

``_reference_subgraph_stats`` computes a selection's interior vertices,
boundary degree and measure the straightforward way: one walk over the
selected edges and one Fraction addition per edge length.
``_reference_est01`` averages c(e)|e| over each selection with one
Fraction operation per term and takes the minimum of the averages.
``graphcore.subgraph_stats``, which sums integer length parts over the lcm
of the selection's own denominators, and the est01 bound of
``lower_bounds``, which compares integer averages by cross-multiplication,
must agree with them field by field, value and type, on seeded random
tessellations and on the pq(7,3) and pq(4,4) balls.  A failure names its seed;
``random.Random`` with that string replays it.
"""

from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from isotess import graphcore, isoperimetry
from isotess.curvature import global_constants
from isotess.errors import (
    DisconnectedSelection,
    FrontierContact,
    InconsistentFrontier,
)
from isotess.families import PQParams, gen_pq_ball
from isotess.graphcore import SubgraphSelection, build_graph, subgraph_stats
from isotess.isoperimetry import Budget, enumerate_starlike_complete, lower_bounds

RANDOM_SEEDS = [f"starlike:{i}" for i in range(30)]
RANDOM_GENERATORS = 3
SELECTIONS_PER_GRAPH = 40


# ---------------------------------------------------------------------------
# the reference formulas
# ---------------------------------------------------------------------------

def _reference_subgraph_stats(g, edge_ids) -> SubgraphSelection:
    edges = frozenset(edge_ids)
    if not edges:
        raise DisconnectedSelection("empty selection")
    for e in edges:
        if e not in g.edge_ends:
            raise KeyError(f"unknown edge {e}")
    degree: dict[int, int] = {}
    for e in edges:
        for v in g.edge_ends[e]:
            degree[v] = degree.get(v, 0) + 1
    vertices = frozenset(degree)
    start = next(iter(vertices))
    reached, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for e in edges:
            a, b = g.edge_ends[e]
            if v in (a, b):
                w = b if a == v else a
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
    if reached != vertices:
        raise DisconnectedSelection("selection does not induce a connected subgraph")

    boundary = set()
    boundary_degree = 0
    for v, d in degree.items():
        td = g.true_degree[v]
        if td is None:
            raise FrontierContact(f"vertex {v} has unknown true degree")
        if d > td:
            raise InconsistentFrontier(f"vertex {v}: selection degree {d} > true degree {td}")
        if d < td:
            boundary.add(v)
            boundary_degree += d
    measure = Fraction(0)
    for e in edges:
        measure += g.length[e]
    return SubgraphSelection(
        edges=edges, interior_vertices=vertices - boundary,
        boundary_degree=boundary_degree, measure=measure)


def _reference_est01(g, report, selections):
    """(min(2/ell*, smallest average of c(e)|e|), number averaged) or None."""
    averages = []
    for sel in selections:
        cs = [report.char_value[e] for e in sel.edges]
        if any(c is None for c in cs):
            continue
        total = Fraction(0)
        for e, c in zip(sel.edges, cs):
            total += c * g.length[e]
        averages.append(total / sel.measure)
    if not averages:
        return None
    return min(Fraction(2) / report.ell_star, min(averages)), len(averages)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _fields(sel: SubgraphSelection) -> list:
    """Every field of a selection with the type of its value."""
    return [(f.name, getattr(sel, f.name), type(getattr(sel, f.name)))
            for f in dataclasses.fields(sel)]


def _outcome(fn, *args):
    try:
        return "ok", _fields(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return "raise", type(exc).__name__, str(exc)


def _random_selection(rng: random.Random, g) -> list:
    """Star unions, grown edge sets, a disconnected pair or an unknown edge."""
    kind = rng.randrange(5)
    if kind == 0:
        vertices = {rng.choice(g.vertices)}
        for _ in range(rng.randint(0, 4)):
            v = rng.choice(sorted(vertices))
            vertices.add(g.other_end(rng.choice(g.rotation[v]), v))
        return sorted(set().union(*(g.rotation[v] for v in vertices)))
    if kind in (1, 2):
        edges = {rng.choice(g.edges)}
        for _ in range(rng.randint(0, 15)):
            e = rng.choice(sorted(edges))
            v = rng.choice(g.edge_ends[e])
            edges.add(rng.choice(g.rotation[v]))
        return sorted(edges)
    if kind == 3:
        return rng.sample(g.edges, min(2, len(g.edges)))
    return [rng.choice(g.edges), max(g.edges) + rng.randint(1, 5)]


def _est01(bounds):
    """(value, count) of the est01 bound among ``bounds``, or None."""
    est = [b for b in bounds if b.provenance == "est01_empirical"]
    if not est:
        return None
    (b,) = est
    return b.value, int(re.search(r"over (\d+) ", b.note).group(1))


def _check_graph(g, seed: str, budget: Budget, monkeypatch) -> None:
    rng = random.Random(seed)
    for i in range(SELECTIONS_PER_GRAPH):
        edges = _random_selection(rng, g)
        assert _outcome(subgraph_stats, g, edges) \
            == _outcome(_reference_subgraph_stats, g, edges), (seed, i, edges)

    got, skipped = enumerate_starlike_complete(g, budget.max_generators)
    with monkeypatch.context() as m:
        # complete_closure looks subgraph_stats up on graphcore, the
        # generator loop on isoperimetry
        m.setattr(graphcore, "subgraph_stats", _reference_subgraph_stats)
        m.setattr(isoperimetry, "subgraph_stats", _reference_subgraph_stats)
        want, want_skipped = enumerate_starlike_complete(g, budget.max_generators)
    assert skipped == want_skipped, seed
    assert len(got) == len(want), seed
    for k, (a, b) in enumerate(zip(got, want)):
        assert _fields(a) == _fields(b), (seed, k)

    report = global_constants(g)
    est = _est01(lower_bounds(g, report=report, budget=budget))
    ref = _reference_est01(g, report, want)
    assert est == ref, seed
    if est is not None:
        assert type(est[0]) is Fraction, seed


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_tessellation_matches_reference(random_tessellation, seed, monkeypatch):
    rng = random.Random(seed)
    g = build_graph(random_tessellation(rng, rng.randint(1, 20)))
    _check_graph(g, seed, Budget(max_generators=RANDOM_GENERATORS), monkeypatch)


@pytest.mark.parametrize("p,q,radius", [(7, 3, 3), (4, 4, 4)])
def test_pq_ball_matches_reference(monkeypatch, p, q, radius):
    # truncations: frontier vertices of unknown degree, and edges near the
    # rim whose c(e) is unknown and whose selections est01 skips; on (4,4)
    # every known c(e) is 0 and must still be averaged
    g = build_graph(gen_pq_ball(PQParams(p, q), radius))
    _check_graph(g, f"starlike:pq{p}{q}r{radius}", Budget(), monkeypatch)
