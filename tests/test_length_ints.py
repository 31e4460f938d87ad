"""``MetricGraph.length_ints``: one integer length table per graph.

The table holds L, the lcm of every edge-length denominator, and each
edge's length times L as an int, when L has at most 64 bits; past that
it holds None and each length's numerator and denominator.
``subgraph_stats`` takes a measure as one int sum over L in the first
case, and over the lcm of the selection's own denominators in the
second, so on either side of the cut the measure must equal the
plain Fraction sum of the lengths.  Commands that measure no selection
(validate, faces, curvature, gauss-bonnet) must not build it.
"""

from __future__ import annotations

import argparse
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from isotess import cli, graphcore
from isotess.errors import DisconnectedSelection
from isotess.families import (
    GkParams,
    PQParams,
    gen_gk,
    gen_nonequilateral_tree,
    gen_pq_ball,
)
from isotess.graphcore import build_graph, subgraph_stats

from conftest import k4_record

FAMILIES = {
    "pq73r3": lambda: gen_pq_ball(PQParams(7, 3), 3),
    "pq44r4": lambda: gen_pq_ball(PQParams(4, 4), 4),
    "gk3": lambda: gen_gk(GkParams(k=3, rows=3, cols=3, tree_depth=2)),
    "netree6": lambda: gen_nonequilateral_tree(6, 3),
}

# the lengths the CI gives K4: more digits than Python writes in c(e)
HUGE_K4 = [f"1/{10**1400 + k}" for k in (1, 3, 7, 9, 13, 19)]


def _relength(record: dict, rng: random.Random, digits: int) -> dict:
    """Every length n/d with a distinct odd ``digits``-digit d."""
    dens: set[int] = set()
    while len(dens) < len(record["edges"]):
        dens.add(rng.randrange(10 ** (digits - 1), 10 ** digits) | 1)
    for item, d in zip(record["edges"], sorted(dens)):
        item["length"] = f"{rng.randint(1, 9)}/{d}"
    return record


def _check_table(record: dict) -> bool:
    """Check the table against the lcm of the lengths; whether it was built."""
    g = build_graph(record)
    lcm = math.lcm(*(ell.denominator for ell in g.length.values()))
    if lcm.bit_length() > 64:
        assert g.length_ints == (None, {e: (ell.numerator, ell.denominator)
                                        for e, ell in g.length.items()})
        return False
    scale, ints = g.length_ints
    assert scale == lcm
    assert ints.keys() == set(g.edges)
    for e, ell in g.length.items():
        assert type(ints[e]) is int
        assert ints[e] == ell * scale
    return True


@pytest.mark.parametrize("seed", [f"length_ints:{i}" for i in range(10)])
def test_table_is_each_length_times_the_lcm(random_tessellation, seed):
    rng = random.Random(seed)
    assert _check_table(random_tessellation(rng, rng.randint(0, 30)))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("digits", [0, 30], ids=["family", "long"])
def test_family_table_is_each_length_times_the_lcm(name, digits):
    record = FAMILIES[name]()
    if digits:
        _relength(record, random.Random(f"length_ints:{name}"), digits)
    assert _check_table(record) == (not digits)


def _k4(denominators) -> dict:
    record = k4_record()
    for k, (item, d) in enumerate(zip(record["edges"], denominators)):
        item["length"] = f"{k + 1}/{d}"
    return record


# each row: K4's six denominators and whether their lcm fits in 64 bits
CUT = [
    pytest.param([2**64 - 1] * 6, True, id="one-64-bit"),
    pytest.param([2**32 - 1, 2**32 + 1] * 3, True, id="lcm-of-64-bits"),
    pytest.param([1, 1, 1, 1, 1, 2**64 + 1], False, id="one-65-bit"),
    pytest.param([2**32 + 1, 2**32 + 3, 1, 1, 1, 1], False, id="lcm-of-65-bits"),
]


@pytest.mark.parametrize("denominators, built", CUT)
def test_table_is_built_up_to_64_bits(denominators, built):
    record = _k4(denominators)
    assert _check_table(record) == built
    g = build_graph(record)
    for size in range(1, len(g.edges) + 1):
        for edges in combinations(g.edges, size):
            try:
                sel = subgraph_stats(g, edges)
            except DisconnectedSelection:
                continue
            assert sel.measure == _plain_measure(record, edges), edges


def test_lcm_is_given_up_at_the_first_denominator_past_64_bits(monkeypatch):
    # six distinct 30-digit denominators: the first alone is past 64 bits
    g = build_graph(_relength(k4_record(), random.Random("length_ints:early"), 30))
    calls = []
    lcm = math.lcm

    def counted(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(graphcore.math, "lcm", counted)
    assert g.length_ints[0] is None
    assert len(calls) == 1 and len(calls[0]) == 2  # lcm(1, d) of one d


def _connected_sets(g, rng: random.Random, count: int, max_size: int):
    """``count`` connected edge sets, each grown from a random edge."""
    for _ in range(count):
        chosen = {rng.choice(g.edges)}
        size = rng.randint(1, max_size)
        while len(chosen) < size:
            nbrs = sorted({f for e in chosen for v in g.edge_ends[e]
                           for f in g.rotation[v]} - chosen)
            if not nbrs:
                break
            chosen.add(rng.choice(nbrs))
        yield chosen


def _plain_measure(record: dict, edges) -> Fraction:
    lengths = {item["id"]: Fraction(item["length"]) for item in record["edges"]}
    return sum((lengths[e] for e in edges), Fraction(0))


@pytest.mark.parametrize("seed", [f"measure:{i}" for i in range(10)])
@pytest.mark.parametrize("digits", [0, 30, 200])
def test_measure_is_the_plain_sum(random_tessellation, seed, digits):
    # digits 0 keeps the generator's lengths, whose L fits in 64 bits;
    # distinct long denominators make L long, and the table None
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(1, 20))
    if digits:
        _relength(record, rng, digits)
    g = build_graph(record)
    assert (g.length_ints[0] is None) == bool(digits)
    for edges in _connected_sets(g, rng, 30, len(g.edges)):
        assert subgraph_stats(g, edges).measure == _plain_measure(record, edges), (seed, edges)


def test_measure_with_the_huge_k4_denominators():
    # every connected edge set of K4, lengths 1/(10**1400 + k)
    record = k4_record()
    for item, length in zip(record["edges"], HUGE_K4):
        item["length"] = length
    g = build_graph(record)
    assert g.length_ints[0] is None
    measured = 0
    for size in range(1, len(g.edges) + 1):
        for edges in combinations(g.edges, size):
            try:
                sel = subgraph_stats(g, edges)
            except DisconnectedSelection:
                continue
            measured += 1
            assert sel.measure == _plain_measure(record, edges), edges
    assert measured == 60  # the connected edge sets of K4


@pytest.mark.parametrize("record", [
    pytest.param(lambda: gen_pq_ball(PQParams(7, 3), 3), id="pq73r3"),
    pytest.param(k4_record, id="K4"),
])
def test_commands_without_a_selection_leave_the_table_unbuilt(record):
    g = build_graph(record())
    args = argparse.Namespace(mode="auto")
    for analysis in (cli._validate, cli._faces, cli._curvature, cli._gauss_bonnet):
        analysis(g, None, args)
        assert "length_ints" not in vars(g), analysis.__name__
    subgraph_stats(g, g.rotation[g.vertices[0]])
    assert "length_ints" in vars(g)
