"""Length-scaling invariants on seeded random tessellations.

Multiplying every edge length by a rational t > 0 divides c(e), c_* and
the brute-force upper bound on alpha by t and multiplies ell* and ell_min
by t, while M, P, K, kappa(v), the Gauss-Bonnet total and the brute-force
witness and subgraph count do not move.  w(e) = c(e)|e| does not move
either, while mes(S) and ell* are multiplied by t, so est01, the least
average of w over mes(S) capped at 2/ell*, is divided by t and averages
the same star-like subgraphs.  On both graphs every certified
lower bound of the bracket is at most every certified upper bound.  The
tessellations come from ``bench/inputs.py::random_tessellation`` (the
``random_tessellation`` fixture of conftest.py).  A failure names its seed;
``random.Random`` with that string replays it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from isotess.curvature import gauss_bonnet_check, global_constants
from isotess.graphcore import build_graph
from isotess.isoperimetry import Budget, alpha_bracket, alpha_upper_bruteforce, lower_bounds

SEEDS = [f"scale-{i}" for i in range(50)]
BUDGET = Budget(max_edges=3)


def _scaled(record: dict, t: Fraction) -> dict:
    edges = [{**item, "length": str(Fraction(item["length"]) * t)}
             for item in record["edges"]]
    return {**record, "edges": edges}


def _bracket_ordered(g) -> bool:
    """Every certified lower bound is at most every certified upper bound.

    A lower bound on alpha bounds alpha_S too, not the other way round.
    """
    bounds = [b for b in alpha_bracket(g, BUDGET).bounds if b.certified]
    return all(lo.value <= up.value for lo in bounds if lo.side == "lower"
               for up in bounds if up.side == "upper"
               if lo.target == "alpha" or lo.target == up.target)


@pytest.mark.parametrize("seed", SEEDS)
def test_length_scaling(random_tessellation, seed):
    rng = random.Random(seed)
    record = random_tessellation(rng, rng.randint(1, 12))
    t = Fraction(1)
    while t == 1:
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    g, h = build_graph(record), build_graph(_scaled(record, t))

    a, b = global_constants(g), global_constants(h)
    assert b.char_value == {e: c / t for e, c in a.char_value.items()}, seed
    assert b.c_star == a.c_star / t, seed
    assert (b.ell_star, b.ell_min) == (a.ell_star * t, a.ell_min * t), seed
    assert (b.M, b.P, b.K) == (a.M, a.P, a.K), seed
    assert b.vertex_curvature == a.vertex_curvature, seed
    assert gauss_bonnet_check(h).total == gauss_bonnet_check(g).total, seed

    base, scaled = alpha_upper_bruteforce(g, BUDGET), alpha_upper_bruteforce(h, BUDGET)
    assert scaled.bound.value == base.bound.value / t, seed
    assert scaled.bound.witness == base.bound.witness, seed
    assert scaled.enumerated == base.enumerated, seed

    est, scaled_est = ([b for b in lower_bounds(x, budget=BUDGET)
                        if b.provenance == "est01_empirical"] for x in (g, h))
    assert len(est) == 1, seed
    assert (scaled_est[0].value, scaled_est[0].note) == (est[0].value / t, est[0].note), seed

    assert _bracket_ordered(g) and _bracket_ordered(h), seed
