"""Acceptance suite: one check per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
All rational comparisons are exact; the only tolerances are the ones
stated with each criterion.
"""

import math
import random
from collections import deque
from fractions import Fraction

from isotess.cli import main as cli_main
from isotess.curvature import (
    char_values,
    degsum_check,
    gauss_bonnet_check,
    global_constants,
    vertex_curvatures,
)
from isotess.errors import NegativeCurvatureParams
from isotess.families import (
    GkParams,
    PQParams,
    closed_forms_pq,
    gen_gk,
    gen_nonequilateral_tree,
    gen_pq_ball,
    gk_closed_constants,
    gk_witness_sequence,
    read_family,
)
from isotess.graphcore import build_graph, subgraph_stats
from isotess.interchange import save
from isotess.isoperimetry import (
    Budget,
    alpha_bracket,
    alpha_upper_bruteforce,
    enumerate_starlike_complete,
    equilateral_transform,
    length_scale,
    scan_connected_edge_subsets,
)

from conftest import finite_corpus


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number}: {description}"


def distances(g, root=0):
    dist = {root: 0}
    q = deque([root])
    while q:
        v = q.popleft()
        for e in g.rotation[v]:
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def scaled(record, t: Fraction):
    out = {k: v for k, v in record.items() if k != "edges"}
    out["edges"] = [{**e, "length": str(Fraction(e["length"]) * t)}
                    for e in record["edges"]]
    return out


def test_criterion_01_gauss_bonnet():
    rng = random.Random(20230817)

    def rational_lengths(name, m):
        return {i: Fraction(rng.randint(1, 30), rng.randint(1, 30))
                for i in range(m)}

    ok = True
    for lengths_fn in (None, rational_lengths):
        for name, record in finite_corpus(lengths_fn):
            res = gauss_bonnet_check(build_graph(record))
            ok &= res.holds and res.total == 1
    report(1, "Gauss-Bonnet sum of -c(e)|e| = 1 exactly on the finite corpus, "
              "unit and randomized rational lengths", ok)


def test_criterion_02_zero_curvature_lattices():
    ok = True
    for p, q, r in [(4, 4, 4), (3, 6, 4), (6, 3, 3)]:
        g = build_graph(gen_pq_ball(PQParams(p, q), r))
        cv = [c for c in char_values(g).values() if c is not None]
        kv = [k for k in vertex_curvatures(g).values() if k is not None]
        ok &= bool(cv) and all(c == 0 for c in cv)
        ok &= bool(kv) and all(k == 0 for k in kv)
    report(2, "c(e) = 0 and kappa(v) = 0 exactly on interior data of the "
              "(4,4), (3,6), (6,3) balls", ok)


def test_criterion_03_curvature_lower_bound_identity():
    ok = True
    for p in range(3, 21):
        for q in range(3, 21):
            c = Fraction(1) - Fraction(2, p) - Fraction(2, q)
            if c <= 0:
                continue
            K = 1 - Fraction(1, p) - Fraction(2, q) - Fraction(1, (p - 2) * q)
            lhs = c / K
            rhs = Fraction(q * (p - 2)) * c / (Fraction(q * (p - 1)) * c + 1)
            ok &= lhs == rhs == closed_forms_pq(PQParams(p, q)).alpha_lower
    report(3, "c_*/K with M=p, P=q equals q(p-2)c/(q(p-1)c+1) exactly on the "
              "3..20 grid", ok)


def test_criterion_04_trees():
    ok = True
    for p in (3, 4, 5):
        target = Fraction(p - 2, p - 1)
        # closed-form and observed routes agree exactly
        g = build_graph(gen_pq_ball(PQParams(p, math.inf), 5))
        rep = global_constants(g)
        ok &= rep.c_star / rep.K == target
        ok &= closed_forms_pq(PQParams(p, math.inf)).alpha_lower == target
        # star-like balls generated by the radius-l vertex set: ratios
        # monotone non-increasing, within 5% at l = 4
        dist = distances(g)
        prev = None
        ratios = []
        for l in range(1, 5):
            edges = set()
            for v, d in dist.items():
                if d <= l:
                    edges.update(g.rotation[v])
            ratio = subgraph_stats(g, edges).ratio
            ratios.append(ratio)
            if prev is not None:
                ok &= ratio <= prev
            prev = ratio
        ok &= abs(ratios[-1] / target - 1) <= Fraction(1, 20)
    report(4, "trees p in {3,4,5}: c_*/K = (p-2)/(p-1) exactly; ball ratios "
              "monotone and within 5% at depth 4", ok)


def test_criterion_05_pq_closed_form_coherence():
    ok = True
    for p in range(3, 41):
        for q in range(3, 41):
            try:
                f = closed_forms_pq(PQParams(p, q))
            except NegativeCurvatureParams:
                continue
            if f.c <= 0:
                continue
            ok &= equilateral_transform(f.alpha_comb) == f.alpha
            ok &= f.alpha_lower <= f.alpha
            if p >= 5 and q >= 5:  # each gap lies in its own field Q(sqrt(d))
                ok &= (f.alpha - f.alpha_lower) * (p * q) ** 2 <= 12
    report(5, "transform(alpha_comb) equals alpha exactly; the curvature "
              "lower bound never exceeds alpha and its gap times (pq)^2 "
              "stays under 12 over 5..40", ok)


def test_criterion_06_gk_constants():
    ok = True
    for k in (3, 4, 5):
        consts = gk_closed_constants(k)
        g = build_graph(gen_gk(GkParams(k=k, rows=3, cols=3, tree_depth=3)))
        rep = global_constants(g)
        ok &= rep.M == 9 * Fraction(k) + Fraction(11, 2) == consts["M"]
        ok &= rep.K == Fraction(18 * k + 9, 18 * k + 11) == consts["K"]
        cv = char_values(g)
        minus0 = [cv[e] for e in g.edges
                  if g.length[e] == Fraction(1, 4) and cv[e] is not None]
        ok &= bool(minus0) and all(
            c == Fraction(164, 77) - 2 / (k + Fraction(11, 18)) for c in minus0)
        deep = [cv[e] for e in g.edges
                if g.length[e] <= Fraction(1, 16) and cv[e] is not None]
        ok &= bool(deep) and all(c > 1 for c in deep)
        w = gk_witness_sequence(k, 10)
        ok &= abs(w["ratio"] / Fraction(k - 2, k - 1) - 1) <= Fraction(1, 100)
        ok &= consts["alpha_lower"] <= consts["alpha_upper"]
        ok &= consts["alpha_lower"] == \
            Fraction(18 * k + 11, 18 * k + 9) * Fraction(k - 2, k)
    report(6, "G_k constants exact (M, K, row-0 class, n>=1 classes > 1), "
              "witness ratio within 1% at l=10, bracket ordered", ok)


def test_criterion_07_nonequilateral_tree():
    ok = True
    for p in (6, 8):
        record = gen_nonequilateral_tree(p, 3)
        g = build_graph(record)
        hat = record["family"]["hat_edge"]
        brute = alpha_upper_bruteforce(g, Budget(max_edges=6, max_yield=1_000_000))
        ok &= brute.bound.value == Fraction(2, p)
        ok &= brute.bound.witness == (hat,)
        br = alpha_bracket(g, Budget(max_edges=5), read_family(record["family"], g))
        ok &= br.alpha_exact == Fraction(2, p)
    report(7, "non-equilateral trees p in {6,8}: brute force finds 2/p with "
              "the long edge as witness; reduction reports alpha = 2/p "
              "exactly", ok)


def _safe_gk_generators(g, params):
    width = 2 * params.cols + 1
    gens = []
    for n in (0, 1):
        for x in range(-(params.cols - 2), params.cols - 1):
            gens.append(n * width + x + params.cols)
    # level-1 tree vertices below interior roots: unit-length neighbors
    for x in range(-(params.cols - 2), params.cols - 1):
        root = x + params.cols
        for e in g.rotation[root]:
            if g.length[e] == 1:
                gens.append(g.other_end(e, root))
    return gens


def test_criterion_08_degsum_inequalities():
    ok = True
    checked = 0

    def run_checks(g, gens):
        nonlocal ok, checked
        rep = global_constants(g)
        sels, _ = enumerate_starlike_complete(g, 6, generators_from=gens)
        for sel in sels:
            res = degsum_check(g, sel, report=rep)
            ok_here = res.lhs <= res.rhs and res.lhs <= res.tech_rhs
            ok &= ok_here and res.holds
            checked += 1

    g44 = build_graph(gen_pq_ball(PQParams(4, 4), 5))
    d44 = distances(g44)
    run_checks(g44, [v for v, d in d44.items() if d <= 2])

    g37 = build_graph(gen_pq_ball(PQParams(3, 7), 6))
    d37 = distances(g37)
    run_checks(g37, [v for v, d in d37.items() if d <= 2])

    params = GkParams(k=3, rows=3, cols=4, tree_depth=3)
    gk = build_graph(gen_gk(params))
    run_checks(gk, _safe_gk_generators(gk, params))

    report(8, f"deg-sum and refined inequalities hold for every star-like "
              f"complete subgraph enumerated ({checked} subgraphs, "
              f"(4,4)/(3,7)/G_3)", ok and checked > 100)


def test_criterion_09_reduction_oracle():
    ok = True
    for p, q, r in [(4, 4, 3), (3, 7, 2)]:
        big = build_graph(gen_pq_ball(PQParams(p, q), r + 1))
        dist = distances(big)
        sels, _ = enumerate_starlike_complete(big, 4)
        sc_min = min(s.ratio for s in sels)
        inside = [e for e in big.edges
                  if dist[big.edge_ends[e][0]] <= r and dist[big.edge_ends[e][1]] <= r]
        # all lengths are 1: min over e in S of 2/|e| is always 2
        floor = min(Fraction(2), sc_min)
        num, den = floor.numerator, floor.denominator
        scale = length_scale(big, inside)  # the scan's mes is mes(S) * scale
        violations = []

        def visit(stack, bd, mes):
            # ratio(S) = bd * scale / mes >= floor  <=>  bd * scale * den >= num * mes
            if bd * scale * den < num * mes:
                violations.append(tuple(stack))

        scan_connected_edge_subsets(big, 8, visit, eligible_edges=inside,
                                    max_yield=50_000_000)
        ok &= not violations
    report(9, "every connected subgraph with <= 8 edges respects the "
              "star-like-complete reduction floor ((4,4) r3 and (3,7) r2)", ok)


def test_criterion_10_structural():
    ok = True
    for name, record in finite_corpus():
        g = build_graph(record)
        ok &= len(g.vertices) - len(g.edges) + len(g.tiles) == 2
        rep0 = global_constants(g)
        cv0 = char_values(g)
        for t in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
            g1 = build_graph(scaled(record, t))
            rep1 = global_constants(g1)
            cv1 = char_values(g1)
            ok &= all(cv1[e] == cv0[e] / t for e in g.edges)
            ok &= rep1.c_star == rep0.c_star / t
            ok &= rep1.K == rep0.K and rep1.M == rep0.M and rep1.P == rep0.P
            ok &= rep1.vertex_curvature == rep0.vertex_curvature
    report(10, "Euler formula V - E + F = 2 on the corpus; length scaling by "
               "t in {1/3, 2, 7/5} scales c by 1/t and fixes kappa, K, M, P",
           ok)


def test_criterion_11_worker_determinism(tmp_path, capsys):
    ok = True
    for p, q, r in [(4, 4, 3), (3, 7, 2)]:
        graph = tmp_path / f"b{p}{q}.json"
        save(gen_pq_ball(PQParams(p, q), r), graph)
        payloads = []
        for w in (1, 4, 8):
            out = tmp_path / f"alpha{p}{q}w{w}.json"
            code = cli_main(["alpha", str(graph), "--budget-edges", "5",
                             "--workers", str(w), "--output", str(out)])
            ok &= code == 0
            payloads.append(out.read_bytes())
        ok &= payloads[0] == payloads[1] == payloads[2]
    capsys.readouterr()
    report(11, "alpha reports byte-identical for worker counts 1, 4, 8 on "
               "the criterion-9 inputs", ok)
