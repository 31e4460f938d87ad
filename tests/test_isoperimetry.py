"""Enumeration oracles, brute-force bounds, bracket assembly."""

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from isotess.errors import BudgetExceeded, OutOfRange
from isotess.families import (
    PQParams,
    gen_nonequilateral_tree,
    gen_pq_ball,
    read_family,
)
from isotess.graphcore import build_graph, classify_subgraph, subgraph_stats
from isotess.isoperimetry import (
    Bound,
    Budget,
    Family,
    alpha_bracket,
    alpha_comb_upper_bruteforce,
    alpha_upper_bruteforce,
    cheeger_interval,
    enumerate_connected_subgraphs,
    enumerate_starlike_complete,
    equilateral_transform,
    lower_bounds,
)
from isotess.rational import Surd

from conftest import finite_corpus, k4_record


def path_record(n):
    return {
        "vertices": [{"id": i,
                      "rotation": [e for e in (i - 1, i) if 0 <= e < n]}
                     for i in range(n + 1)],
        "edges": [{"id": i, "ends": [i, i + 1], "length": "1"} for i in range(n)],
        "unbounded_face_reps": [[0, 0]],
    }


def star_record(n):
    return {
        "vertices": [{"id": 0, "rotation": list(range(n))}]
        + [{"id": i + 1, "rotation": [i]} for i in range(n)],
        "edges": [{"id": i, "ends": [0, i + 1], "length": "1"} for i in range(n)],
        "unbounded_face_reps": [[0, 0]],
    }


def naive_connected_subsets(g, max_edges, edges=None):
    """Powerset filter oracle: all connected edge subsets of size <= max_edges."""
    edges = sorted(edges if edges is not None else g.edges)
    out = set()
    for k in range(1, max_edges + 1):
        for combo in itertools.combinations(edges, k):
            verts = set()
            for e in combo:
                verts.update(g.edge_ends[e])
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for e in combo:
                a, b = g.edge_ends[e]
                parent[find(a)] = find(b)
            if len({find(v) for v in verts}) == 1:
                out.add(frozenset(combo))
    return out


def test_path_subset_count():
    g = build_graph(path_record(3))
    subs = enumerate_connected_subgraphs(g, 3)
    assert len(subs) == 6  # 3 singletons, 2 pairs, 1 triple


def test_star_subset_count():
    g = build_graph(star_record(3))
    subs = enumerate_connected_subgraphs(g, 2)
    assert len(subs) == 6  # 3 singletons + 3 pairs


def test_enumeration_matches_naive_filter():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 2))
    eligible = list(g.edges)  # include frontier-touching edges for the count
    subs = enumerate_connected_subgraphs(g, 4, eligible_edges=eligible)
    assert len(subs) == len(set(map(frozenset, subs)))  # exactly-once
    assert set(map(frozenset, subs)) == naive_connected_subsets(g, 4)


def test_budget_exceeded():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 2))
    with pytest.raises(BudgetExceeded):
        enumerate_connected_subgraphs(g, 4, max_yield=10,
                                      eligible_edges=list(g.edges))
    with pytest.raises(BudgetExceeded):
        alpha_comb_upper_bruteforce(g, Budget(max_generators=4, max_yield=10))


def test_scan_deeper_than_recursion_limit_is_out_of_range():
    # the first set the scan grows on pq(7,3) r6 reaches 990 edges long
    # before max_yield: the recursion limit, not the budget, stops it
    g = build_graph(gen_pq_ball(PQParams(7, 3), 6))
    with pytest.raises(OutOfRange, match="990"):
        alpha_upper_bruteforce(g, Budget(max_edges=990))


# --- star-like complete enumeration ------------------------------------------

def test_starlike_enumeration_tree():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 2))
    sels, skipped = enumerate_starlike_complete(g, 2)
    assert skipped == 0
    for sel in sels:
        assert classify_subgraph(g, sel) == (True, True)
    # unions of stars over connected U are closed already in a tree:
    # singletons (root + 3 children) + adjacent pairs (3 root edges)
    free = g.frontier_free_vertices()
    assert len(free) == 4
    assert len(sels) == 4 + 3


@pytest.mark.parametrize("generators,kept,hidden", [
    (2, (22, 0), (1, 21)),
    (4, (92, 0), (1, 91)),
])
def test_starlike_closure_escaping_the_region_is_skipped(generators, kept, hidden):
    # without the frontier's true degrees, every closure but the one of the
    # centre's star reaches a vertex of unknown degree and is skipped
    record = gen_pq_ball(PQParams(7, 3), 2)
    g = build_graph(record)
    sels, skipped = enumerate_starlike_complete(g, generators)
    assert (len(sels), skipped) == kept
    for v in g.frontier_vertices:
        del record["true_degree"][str(v)]
    sels, skipped = enumerate_starlike_complete(build_graph(record), generators)
    assert (len(sels), skipped) == hidden


def test_starlike_enumeration_square_yields_block():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 4))
    sels, _ = enumerate_starlike_complete(g, 4)
    for sel in sels:
        assert classify_subgraph(g, sel) == (True, True)
    # the 2x2-block star union must be among them, with interior a 4-cycle
    def interior_edges(s):
        return [e for e in s.edges if set(g.edge_ends[e]) <= s.interior_vertices]

    blocks = [s for s in sels if len(s.interior_vertices) == 4
              and len(interior_edges(s)) == 4 and len(s.edges) == 12]
    assert blocks


# --- brute-force upper bounds ------------------------------------------------

def test_alpha_upper_tree_witness_decreases():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 5))
    # star-like balls generated by the radius-l vertex ball: ratios
    # (p-2)(p-1)^l / ((p-1)^{l+1} - 1) decrease toward 1/2
    from collections import deque
    dist = {0: 0}
    q = deque([0])
    while q:
        v = q.popleft()
        for e in g.rotation[v]:
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    prev = None
    for l in range(0, 4):
        edges = set()
        for v in [v for v, d in dist.items() if d <= l]:
            edges.update(g.rotation[v])
        ratio = subgraph_stats(g, edges).ratio
        expected = Fraction(1 * 2 ** l, 2 ** (l + 1) - 1)
        assert ratio == expected
        if prev is not None:
            assert ratio <= prev
        prev = ratio


def test_alpha_upper_bruteforce_monotone_in_budget():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 4))
    prev = None
    for max_edges in (1, 2, 3, 4, 6):
        res = alpha_upper_bruteforce(g, Budget(max_edges=max_edges))
        if prev is not None:
            assert res.bound.value <= prev
        prev = res.bound.value


def test_alpha_upper_netree_finds_hat_edge():
    for p in (6, 8):
        record = gen_nonequilateral_tree(p, 3)
        g = build_graph(record)
        hat = record["family"]["hat_edge"]
        res = alpha_upper_bruteforce(g, Budget(max_edges=6, max_yield=500_000))
        assert res.bound.value == Fraction(2, p)
        assert res.bound.witness == (hat,)


def test_witness_independent_of_workers():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 3))
    results = [alpha_upper_bruteforce(g, Budget(max_edges=5), workers=w)
               for w in (1, 4, 8)]
    assert len({(r.bound.value, r.bound.witness) for r in results}) == 1


def naive_alpha_upper(g, max_edges):
    """Combination filter oracle: the number of connected edge subsets with
    <= max_edges edges, and their least (ratio, sorted edge ids), over all
    of them and over those with nonempty boundary."""
    subsets = naive_connected_subsets(g, max_edges)
    items = []
    for sub in subsets:
        deg = Counter(v for e in sub for v in g.edge_ends[e])
        bd = sum(d for v, d in deg.items() if d < g.true_degree[v])
        items.append((bd / sum(g.length[e] for e in sub), tuple(sorted(sub))))
    return len(subsets), min(items), min(item for item in items if item[0])


def _rational_lengths(rng, n):
    dens = (1, 2, 3, 4, 5, 7)  # cycled, so each record has several denominators
    return {i: Fraction(rng.randrange(1, 13 * dens[i % 6]), dens[i % 6])
            for i in range(n)}


def _edge_scan_cases():
    rng = random.Random(5)
    cases = [(f"{name}-rational", record) for name, record
             in finite_corpus(lambda name, n: _rational_lengths(rng, n))]
    for copy in range(2):
        record = gen_pq_ball(PQParams(4, 4), 2)
        lengths = _rational_lengths(rng, len(record["edges"]))
        for item in record["edges"]:
            item["length"] = str(lengths[item["id"]])
        cases.append((f"pq44r2-rational{copy}", record))
    # equilateral graphs, where many subsets tie the minimum ratio; on K4
    # and trihex a tied subset visited later has the smaller witness
    cases += [("pq73r1", gen_pq_ball(PQParams(7, 3), 1)),
              ("pq44r2", gen_pq_ball(PQParams(4, 4), 2)), *finite_corpus()]
    return cases


@pytest.mark.parametrize("name,record", _edge_scan_cases())
def test_edge_scan_matches_naive_filter(name, record):
    # the integer scan (lengths scaled by L, cross-multiplied ratios, tied
    # subsets skipped by their smallest index) against exact Fractions
    g = build_graph(record)
    if "rational" in name:
        assert len({g.length[e].denominator for e in g.edges}) >= 3
    count, *bests = naive_alpha_upper(g, 6)
    for proper_only, best in zip((False, True), bests):
        res = alpha_upper_bruteforce(g, Budget(max_edges=6), eligible_edges=g.edges,
                                     proper_only=proper_only)
        assert res.enumerated == count
        assert (res.bound.value, res.bound.witness) == best


# --- combinatorial upper bounds ----------------------------------------------

def test_comb_single_vertex_ratio_one():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 2))
    res = alpha_comb_upper_bruteforce(g, Budget(max_generators=1))
    assert res.value == 1  # p boundary edges over degree p


def test_comb_tree_balls_decrease():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 5))
    from collections import deque
    dist = {0: 0}
    q = deque([0])
    while q:
        v = q.popleft()
        for e in g.rotation[v]:
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    prev = None
    for l in range(0, 4):
        U = [v for v, d in dist.items() if d <= l]
        sumdeg = 3 * len(U)
        internal = sum(1 for e in g.edges
                       if g.edge_ends[e][0] in set(U) and g.edge_ends[e][1] in set(U))
        ratio = Fraction(sumdeg - 2 * internal, sumdeg)
        # closed form: 2^l / (3*2^l - 2) -> 1/3
        assert ratio == Fraction(2 ** l, 3 * 2 ** l - 2)
        if prev is not None:
            assert ratio < prev
        prev = ratio
    assert abs(float(prev) - Fraction(1, 3)) < 0.06


def test_comb_square_blocks():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 4))
    res = alpha_comb_upper_bruteforce(g, Budget(max_generators=4,
                                                max_yield=500_000))
    # the 2x2 block: 8 boundary edges over degree sum 16 = 1/2
    assert res.value == Fraction(1, 2)


def naive_comb_upper(g, max_size):
    """Combination filter oracle: (count, (ratio, witness)) over connected
    frontier-free vertex sets of size <= max_size."""
    count, best = 0, None
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(g.frontier_free_vertices(), k):
            members = set(combo)
            seen, todo = {combo[0]}, [combo[0]]
            while todo:
                v = todo.pop()
                for e in g.rotation[v]:
                    w = g.other_end(e, v)
                    if w in members and w not in seen:
                        seen.add(w)
                        todo.append(w)
            if len(seen) != k:
                continue
            count += 1
            sumdeg = sum(g.true_degree[v] for v in combo)
            internal = sum(1 for a, b in g.edge_ends.values()
                           if a in members and b in members)
            item = (Fraction(sumdeg - 2 * internal, sumdeg), combo)
            best = item if best is None else min(best, item)
    return count, best


@pytest.mark.parametrize("name,record", [
    ("pq44r2", gen_pq_ball(PQParams(4, 4), 2)), *finite_corpus()])
def test_comb_enumeration_matches_naive_filter(name, record):
    g = build_graph(record)
    res = alpha_comb_upper_bruteforce(g, Budget(max_generators=4))
    count, (value, witness) = naive_comb_upper(g, 4)
    assert res.enumerated == count
    assert res.value == value
    assert res.witness_vertices == witness


# --- lower bounds and brackets -----------------------------------------------

def test_lower_bounds_tree():
    g = build_graph(gen_pq_ball(PQParams(5, math.inf), 3))
    bounds = {b.provenance: b for b in lower_bounds(g)}
    assert bounds["cK_lower"].value == Fraction(3, 4)  # (p-2)/(p-1)
    assert bounds["cstar_lower"].value == Fraction(3, 5)


def test_lower_bounds_lattice_zero():
    g = build_graph(gen_pq_ball(PQParams(4, 4), 4))
    bounds = {b.provenance: b for b in lower_bounds(g)}
    assert "cK_lower" not in bounds  # c* = 0
    assert bounds["est01_empirical"].value == 0


def test_bracket_netree_reduction():
    for p, fires in ((6, True), (8, True), (5, False)):
        record = gen_nonequilateral_tree(p, 3)
        g = build_graph(record)
        br = alpha_bracket(g, Budget(max_edges=5), read_family(record["family"], g))
        if fires:
            assert br.alpha_exact == Fraction(2, p)
            assert br.best_lower == br.best_upper == Fraction(2, p)
        else:
            assert br.alpha_exact is None
            assert br.best_upper == Fraction(2, p)


def test_bracket_finite_graph():
    g = build_graph(k4_record())
    br = alpha_bracket(g, Budget(max_edges=6))
    assert br.alpha_exact == 0
    assert br.restricted_alpha is not None
    assert br.restricted_alpha["exhaustive"]
    # restricted alpha of K4: best proper subgraph; 5 edges leave one vertex
    # deficient: deg 2, mes 5... the minimum over proper subgraphs:
    naive = min(
        Fraction(subgraph_stats(g, s).boundary_degree) / subgraph_stats(g, s).measure
        for s in (set(c) for k in range(1, 6)
                  for c in itertools.combinations(g.edges, k))
        if _connected(g, s))
    assert br.restricted_alpha["value"] == naive


def _connected(g, edges):
    verts = set()
    for e in edges:
        verts.update(g.edge_ends[e])
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for e in g.rotation[v]:
            if e in edges:
                w = g.other_end(e, v)
                if w not in seen:
                    stack.append(w)
    return seen == verts


def test_bracket_tree_collapses():
    record = gen_pq_ball(PQParams(3, math.inf), 4)
    g = build_graph(record)
    br = alpha_bracket(g, Budget(max_edges=4), read_family(record["family"], g))
    assert br.alpha_exact == Fraction(1, 2)
    assert br.cheeger["lambda0_lower"] == Fraction(1, 16)
    assert br.cheeger["lambda0_upper"] == PI2_UPPER / 4


def test_bracket_consistency_certified():
    # best_lower <= best_upper whenever both certified
    cases = [gen_pq_ball(PQParams(3, math.inf), 4),
             gen_nonequilateral_tree(6, 3),
             gen_pq_ball(PQParams(4, 4), 3)]
    for record in cases:
        g = build_graph(record)
        br = alpha_bracket(g, Budget(max_edges=4), read_family(record["family"], g))
        if br.best_lower is not None and br.best_upper is not None:
            assert br.best_lower <= br.best_upper


def test_bracket_refuses_lower_above_upper():
    # a certified family lower bound of 3 on a tree of ell* = 1, where
    # alpha <= 2/ell* = 2: the bracket would contradict itself
    record = gen_pq_ball(PQParams(3, math.inf), 2)
    claim = Bound(value=Fraction(3), provenance="closed_form", side="lower",
                  certified=True)
    with pytest.raises(OutOfRange, match="lower bound exceeds"):
        alpha_bracket(build_graph(record), Budget(max_edges=2),
                      Family(bounds=(claim,), ell_star=Fraction(1)))
    # at 2/ell* the claim pins alpha instead
    claim = dataclasses.replace(claim, value=Fraction(2))
    br = alpha_bracket(build_graph(record), Budget(max_edges=2),
                       Family(bounds=(claim,), ell_star=Fraction(1)))
    assert br.alpha_exact == br.best_lower == br.best_upper == 2


# --- scalar helpers ----------------------------------------------------------

# (355/113)^2 > pi^2: the factor of the exact Cheeger upper end
PI2_UPPER = Fraction(355, 113) ** 2


def test_cheeger_interval_values():
    assert cheeger_interval(Fraction(0), Fraction(1)) == (0, 0)
    assert cheeger_interval(Fraction(1, 2), Fraction(1)) == (Fraction(1, 16), PI2_UPPER / 4)
    assert cheeger_interval(Fraction(2, 6), Fraction(1)) == (Fraction(1, 36), PI2_UPPER / 6)
    # alpha of (7, 3): both ends lie in Q(sqrt(5)), squared exactly
    alpha = Surd(Fraction(-5, 22), Fraction(7, 22), 5)
    lo, hi = cheeger_interval(alpha, Fraction(1))
    assert lo == Surd(Fraction(135, 968), Fraction(-35, 968), 5) == alpha * alpha / 4
    assert hi == alpha / 2 * PI2_UPPER and type(hi) is Surd


@pytest.mark.parametrize("alpha,ell_min", [
    (Fraction(10**400), Fraction(10**399)),        # float(alpha) overflows
    (Fraction(1, 10**300), Fraction(1, 10**400)),  # float(ell_min) is 0.0
    (Fraction(10**300), Fraction(10**310)),        # float(ell_min) overflows
    (Fraction(1, 10**400), Fraction(10**400)),     # below the least positive float
    (Fraction(1), Fraction(1, 10**400)),           # above the largest float
    (Fraction(1, 10**400), Fraction(1)),           # a float would give 0.0
    (Fraction(1, 10**300), Fraction(10**10)),      # a float would be subnormal
])
def test_cheeger_upper_outside_float_range(alpha, ell_min):
    # one exact path for every alpha and ell_min: alpha / (2 ell_min) (355/113)^2
    lo, hi = cheeger_interval(alpha, ell_min)
    assert lo == alpha * alpha / 4 and type(lo) is Fraction
    assert hi == alpha / (2 * ell_min) * PI2_UPPER and type(hi) is Fraction
    assert hi > Fraction(math.pi ** 2) * alpha / (2 * ell_min) > 0


def test_cheeger_rejects_bad_ell_min():
    from isotess.errors import NonPositiveEllMin
    with pytest.raises(NonPositiveEllMin):
        cheeger_interval(Fraction(1, 2), Fraction(0))


def test_equilateral_transform():
    assert equilateral_transform(Fraction(0)) == 0
    assert equilateral_transform(Fraction(1)) == 1
    # (4,5): transform of the combinatorial closed form (1/2) sqrt(1/3) must
    # equal the independent metric closed form 2/(1 + 2 sqrt(3)), exactly;
    # with sqrt(12) = 2 sqrt(3) both lie in Q(sqrt(12))
    a = Surd(0, Fraction(1, 12), 12)
    assert equilateral_transform(a) == 2 / (1 + Surd(0, 1, 12))
    with pytest.raises(OutOfRange):
        equilateral_transform(Fraction(3, 2))


def test_estvol_bound_for_declared_finite_measure():
    g = build_graph(gen_pq_ball(PQParams(3, math.inf), 2))
    bounds = {b.provenance: b for b in lower_bounds(g, total_measure=Fraction(10))}
    assert bounds["estvol_lower"].value == Fraction(1, 5)
    assert bounds["estvol_lower"].certified


def test_pq_bracket_consistency_with_closed_forms():
    # curvature lower bound <= alpha <= brute-force upper, on truncations
    from isotess.families import closed_forms_pq
    for p, q, r in [(4, 5, 3), (3, 7, 4), (7, 3, 2)]:
        record = gen_pq_ball(PQParams(p, q), r)
        g = build_graph(record)
        forms = closed_forms_pq(PQParams(p, q))
        brute = alpha_upper_bruteforce(g, Budget(max_edges=4))
        assert forms.alpha_lower <= forms.alpha <= brute.bound.value
        br = alpha_bracket(g, Budget(max_edges=4), read_family(record["family"], g))
        assert br.best_lower <= br.best_upper


def test_degsum_triangular_and_pentagonal():
    from collections import deque
    from isotess.curvature import degsum_check, global_constants

    def dists(g):
        dist = {0: 0}
        q = deque([0])
        while q:
            v = q.popleft()
            for e in g.rotation[v]:
                w = g.other_end(e, v)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist

    for p, q, r, dmax in [(6, 3, 3, 1), (4, 5, 5, 1)]:
        g = build_graph(gen_pq_ball(PQParams(p, q), r))
        dist = dists(g)
        gens = [v for v, d in dist.items() if d <= dmax]
        rep = global_constants(g)
        sels, _ = enumerate_starlike_complete(g, 4, generators_from=gens)
        assert sels
        for sel in sels:
            res = degsum_check(g, sel, report=rep)
            assert res.holds, (p, q, sorted(sel.edges))
