"""Edge-scan subtrees counted whole against the scan with no pruning.

When no eligible vertex of true degree >= 2 has a true degree within the
edge budget, no set of the scan closes a vertex, and the edge scan may
rule out every set grown from a set, not only its leaves; those sets are
then counted by a walk that visits none of them.  On family balls where
that holds ((p,q) balls of vertex degree 7 to 9 up to 6 edges, the
(5,5) ball up to 4 edges, the 7-regular tree), each also with pendant
edges whose new end has true degree 1, the pruned scan must give the
value, witness, count and note of the scan that visits every set, for
budgets of 1 to 6 edges with and without ``proper_only``, and must pass
``max_yield`` exactly when the count does.  There every set's ratio is a
mediant of its edges' ratios, so the single edges, visited first, hold
the minimiser and any skip gives the same result; a hook that rules out
the ratios above a threshold, on balls of mixed lengths, checks the
floors themselves: every set at or below it is still visited.  A pin on
the sets pushed on pq(7,3) r3 catches a scan that counts only leaf
batches.  A failure names its input.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from isotess import families, isoperimetry
from isotess.graphcore import build_graph
from isotess.isoperimetry import Budget, alpha_upper_bruteforce

from conftest import bruteforce_outcome, unpruned, with_pendants

# (name, p, q, radius, largest edge budget)
BALLS = [
    ("pq73r2", 7, 3, 2, 6),
    ("pq73r3", 7, 3, 3, 6),
    ("pq83r2", 8, 3, 2, 6),
    ("pq93r2", 9, 3, 2, 6),
    ("pq74r2", 7, 4, 2, 6),
    ("pq55r2", 5, 5, 2, 4),
    ("tree7r3", 7, math.inf, 3, 6),
]
CASES = [(*ball, pendants) for ball in BALLS for pendants in (0, 3)]
# the radius-2 balls, small enough to keep every set of the scan
SMALL = [case for case in CASES if case[3] == 2]


def _graph(p, q, radius, pendants, name, lengths=("1",)):
    rng = random.Random(name)
    record = families.gen_pq_ball(families.PQParams(p, q), radius)
    for item in record["edges"]:
        item["length"] = rng.choice(lengths)
    inner = sorted({item["id"] for item in record["vertices"]}
                   - set(record["frontier_vertices"]))
    with_pendants(record, rng, pendants, onto=inner)
    return build_graph(record)


@pytest.mark.parametrize("name,p,q,radius,largest,pendants", CASES,
                         ids=[f"{c[0]}+{c[5]}" for c in CASES])
def test_counted_subtrees_match_unpruned(monkeypatch, name, p, q, radius, largest,
                                         pendants):
    g = _graph(p, q, radius, pendants, name)
    cases = [(Budget(max_edges=k), proper_only)
             for k in range(1, largest + 1) for proper_only in (False, True)]
    pruned = [bruteforce_outcome(g, *case) for case in cases]
    with monkeypatch.context() as m:
        unpruned(m)
        full = [bruteforce_outcome(g, *case) for case in cases]
    for case, got, want in zip(cases, pruned, full):
        assert got == want, (name, pendants, case)
    for k in range(1, largest + 1):
        total = next(want[2] for case, want in zip(cases, full)
                     if case[0].max_edges == k)
        for cap, over in ((total - 1, True), (total, False)):
            got = bruteforce_outcome(g, Budget(max_edges=k, max_yield=cap), False)
            assert (got[0] == "budget") == over, (name, pendants, k, cap)


def test_no_set_is_pushed_on_pq73_r3(monkeypatch):
    # every set of pq(7,3) r3 is counted from the single edges: a scan that
    # rules out only leaf batches pushes 8,820 sets
    pushes = 0
    esu = isoperimetry._esu

    def counting(nbrs, max_size, push, *args):
        def pushed(i):
            nonlocal pushes
            pushes += 1
            push(i)
        return esu(nbrs, max_size, pushed, *args)

    monkeypatch.setattr(isoperimetry, "_esu", counting)
    g = build_graph(families.gen_pq_ball(families.PQParams(7, 3), 3))
    res = alpha_upper_bruteforce(g, Budget(max_edges=6))
    assert (pushes, res.enumerated, res.bound.witness) == (0, 300_125, (0,))


def _visits(g, max_edges, hopeless=None):
    """(count, {sorted stack: (bd, mes)}) of one scan."""
    seen = {}

    def visit(stack, bd, mes):
        seen[tuple(sorted(stack))] = bd, mes

    count = isoperimetry.scan_connected_edge_subsets(g, max_edges, visit,
                                                     _hopeless=hopeless)
    return count, seen


@pytest.mark.parametrize("name,p,q,radius,largest,pendants", SMALL,
                         ids=[f"{c[0]}+{c[5]}" for c in SMALL])
def test_floors_keep_every_set_at_or_below_a_threshold(name, p, q, radius, largest,
                                                       pendants):
    # a hook that rules out ratios above a threshold: every set at or
    # below it must still be visited, with its own statistics, at every
    # depth; mixed lengths make the floors of r = 1 and of the last r differ
    g = _graph(p, q, radius, pendants, name, lengths=("1", "2", "3", "1/2", "5/2"))
    for k in range(1, largest + 1):
        total, every = _visits(g, k)
        ratios = sorted(Fraction(bd, mes) for bd, mes in every.values())
        for t in {ratios[len(ratios) * i // 8] for i in range(8)}:
            count, seen = _visits(g, k, lambda first, num, den:
                                  num * t.denominator > t.numerator * den)
            assert count == total, (name, pendants, k, t)
            want = {s: x for s, x in every.items() if Fraction(*x) <= t}
            assert want.items() <= seen.items(), (name, pendants, k, t)
