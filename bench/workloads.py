"""The operations of each workload and the oracles that judge their output.

An operation is one `isotess.cli.main` call on a generated input file, or
the criterion-8 library sweep.  Each carries its expected exit code, an
oracle that returns a list of problems (empty when the output is right),
and a corruption that the oracle must reject; run.py applies the
corruption to a real report once per run to prove the oracle is live.

Oracles check facts known independently of the code under test: pinned
enumeration counts, closed forms, Euler's formula, exact Gauss-Bonnet
recomputed from the reported characteristic values, and witness ratios
recomputed from the input record.  When a traced pass supplies the
operation's layer counters, the oracle also checks closure counts.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Edge budget of `alpha` on the random tessellation of alpha-scan; set-up
# counts the subsets at this budget for the oracle.
RANDOM_ALPHA_EDGES = 4


@dataclass
class Outcome:
    exit_code: int
    text: str
    counts: dict | None = None  # layer counters of this operation, traced only

    def report(self) -> dict:
        return json.loads(self.text)


@dataclass(frozen=True)
class Op:
    label: str
    input: str
    argv: tuple[str, ...]  # CLI arguments after the input path; () for the sweep
    expected_exit: int
    check: Callable[[dict, dict, dict | None], list[str]]
    corrupt: Callable[[dict], None]
    library: Callable | None = None

    def judge(self, outcome: Outcome, facts: dict) -> list[str]:
        if outcome.exit_code != self.expected_exit:
            return [f"exit code {outcome.exit_code}, expected {self.expected_exit}"]
        try:
            return self.check(outcome.report(), facts[self.input], outcome.counts)
        except Exception as exc:  # noqa: BLE001
            # malformed output (not JSON, a field missing or of the wrong
            # type) fails this operation; the run goes on to report it
            return [f"report does not parse as expected: {exc!r}"]


def _record(fact: dict) -> dict:
    return json.loads(Path(fact["path"]).read_text(encoding="utf-8"))


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _note_count(bound: dict) -> int | None:
    m = re.search(r" over (\d+) ", bound["note"])
    return int(m.group(1)) if m else None


def _bound(report: dict, provenance: str) -> dict | None:
    return next((b for b in report["result"]["bounds"]
                 if b["provenance"] == provenance), None)


def witness_ratio(record: dict, edges: list[int]) -> Fraction | None:
    """deg(bd S)/mes(S) of a connected edge set, from the record alone."""
    if not edges:
        return None
    ends = {e["id"]: e["ends"] for e in record["edges"]}
    length = {e["id"]: Fraction(e["length"]) for e in record["edges"]}
    true_degree = {int(v): d for v, d in record["true_degree"].items()}
    visible = {v["id"]: len(v["rotation"]) for v in record["vertices"]}
    deg: dict[int, int] = {}
    for e in edges:
        for v in ends[e]:
            deg[v] = deg.get(v, 0) + 1
    # connectivity of the selection
    adj: dict[int, set[int]] = {v: set() for v in deg}
    for e in edges:
        a, b = ends[e]
        adj[a].add(b)
        adj[b].add(a)
    seen = {next(iter(adj))}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    if len(seen) != len(adj):
        return None
    bd = sum(d for v, d in deg.items() if d < true_degree.get(v, visible[v]))
    return Fraction(bd) / sum(length[e] for e in edges)


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def check_alpha(subsets: int | None, exact: str | None = None,
                witness: list[int] | None = None):
    def check(report, fact, counts):
        p: list[str] = []
        brute = _bound(report, "bruteforce_upper")
        if brute is None:
            return ["no bruteforce_upper bound"]
        want = subsets if subsets is not None else fact["subsets"]
        _expect(p, "enumerated subsets", _note_count(brute), want)
        _expect(p, "bruteforce certified", brute["certified"], True)
        ratio = witness_ratio(_record(fact), brute["witness"] or [])
        _expect(p, "witness ratio", ratio, Fraction(brute["value"]))
        if witness is not None:
            _expect(p, "witness", brute["witness"], witness)
        result = report["result"]
        if exact is not None:
            _expect(p, "alpha_exact", result["alpha_exact"], exact)
        if fact["family"] is None:  # finite: alpha = 0, proper infimum apart
            _expect(p, "alpha_exact", result["alpha_exact"], "0")
            restricted = result["restricted_alpha"] or {}
            _expect(p, "restricted_alpha", restricted.get("value"), brute["value"])
        if counts is not None:
            _expect(p, "traced edge subsets", counts["isoperimetry.edge_subsets"], want)
        return p
    return check


def corrupt_alpha(report: dict) -> None:
    brute = _bound(report, "bruteforce_upper")
    brute["note"] = brute["note"].replace(" over ", " over 1")


# ---------------------------------------------------------------------------
# bounds and the degsum sweep
# ---------------------------------------------------------------------------

def check_bounds(averaged: int, closures: int, cstar: str | None = None):
    def check(report, fact, counts):
        p: list[str] = []
        est = _bound(report, "est01_empirical")
        if est is None:
            return ["no est01_empirical bound"]
        _expect(p, "averaged subgraphs", _note_count(est), averaged)
        if cstar is not None:
            cs = _bound(report, "cstar_lower")
            _expect(p, "c_*", cs and cs["value"], cstar)
        if counts is not None:
            _expect(p, "closures", counts["graphcore.closure_calls"], closures)
            _expect(p, "generator sets", counts["isoperimetry.generator_sets"], closures)
            _expect(p, "skipped", counts["isoperimetry.starlike_skipped"], 0)
        return p
    return check


def corrupt_bounds(report: dict) -> None:
    est = _bound(report, "est01_empirical")
    est["note"] = est["note"].replace(" over ", " over 1")


# (input, star-like complete subgraphs from generators within distance 2
# of vertex 0, at most 6 generators) as in acceptance criterion 8
SWEEP = (("pq44r5", 470), ("pq37r6", 98))


def degsum_sweep(isotess, facts: dict) -> str:
    """Run degsum_check on every star-like complete subgraph of criterion 8.

    Library calls are looked up on their modules at call time, so traced
    passes see them.  Returns the canonical JSON summary as the report.
    """
    interchange, graphcore = isotess.interchange, isotess.graphcore
    curvature, isoperimetry = isotess.curvature, isotess.isoperimetry
    out = []
    for name, _ in SWEEP:
        g = graphcore.build_graph(interchange.load_record(facts[name]["path"]))
        dist = {0: 0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for e in g.rotation[v]:
                w = g.other_end(e, v)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        gens = [v for v, d in dist.items() if d <= 2]
        rep = curvature.global_constants(g)
        sels, skipped = isoperimetry.enumerate_starlike_complete(
            g, 6, generators_from=gens)
        rows = []
        for sel in sels:
            res = curvature.degsum_check(g, sel, report=rep)
            rows.append([str(res.lhs), str(res.rhs), str(res.tech_rhs), res.holds])
        out.append({"input": name, "checked": len(rows), "skipped": skipped,
                    "rows": rows})
    return json.dumps({"sweep": out}, sort_keys=True) + "\n"


def check_sweep(report, fact, counts):
    p: list[str] = []
    graphs = report["sweep"]
    _expect(p, "sweep inputs", [[g["input"], g["checked"]] for g in graphs],
            [list(s) for s in SWEEP])
    for g in graphs:
        _expect(p, f"{g['input']} skipped", g["skipped"], 0)
        for lhs, rhs, tech, holds in g["rows"]:
            lhs = Fraction(lhs)
            if not (holds and lhs <= Fraction(rhs) and lhs <= Fraction(tech)):
                p.append(f"{g['input']}: degsum inequality fails")
                break
    if counts is not None:
        total = sum(n for _, n in SWEEP)
        _expect(p, "degsum checks", counts["curvature.degsum_checked"], total)
    return p


def corrupt_sweep(report: dict) -> None:
    report["sweep"][0]["rows"][0][3] = False


# ---------------------------------------------------------------------------
# validate, faces, curvature, gauss-bonnet
# ---------------------------------------------------------------------------

def _pq_c(family: dict) -> Fraction:
    """c(e) of the equilateral (p, q) tessellation: 1 - 2/p - 2/q."""
    return 1 - Fraction(2, family["p"]) - Fraction(2, family["q"])


def check_validate(report, fact, counts):
    p: list[str] = []
    result = report["result"]
    _expect(p, "mode", result["mode"],
            "finite" if fact["family"] is None else "truncation")
    _expect(p, "valid", result["valid"], True)
    _expect(p, "violations", result["violations"], [])
    return p


def corrupt_validate(report: dict) -> None:
    report["result"]["valid"] = False


def check_faces(report, fact, counts):
    p: list[str] = []
    result = report["result"]
    c = result["counts"]
    _expect(p, "vertices", c["vertices"], fact["vertices"])
    _expect(p, "edges", c["edges"], fact["edges"])
    _expect(p, "tiles", len(result["tiles"]), c["faces"])
    _expect(p, "V - E + F", c["vertices"] - c["edges"] + c["faces"], 2)
    _expect(p, "euler_characteristic", result["euler_characteristic"], 2)
    family = fact["family"]
    statuses = [t["status"] for t in result["tiles"]]
    bounded = {t["degree"] for t in result["tiles"] if t["status"] == "bounded"}
    if family is None:  # triangulation with one declared outer face
        _expect(p, "unbounded tiles", statuses.count("unbounded"), 1)
        _expect(p, "bounded tile degrees", bounded, {3})
    else:
        _expect(p, "bounded tile degrees", bounded, {family["q"]})
    return p


def corrupt_faces(report: dict) -> None:
    report["result"]["euler_characteristic"] += 1


def check_curvature(report, fact, counts):
    p: list[str] = []
    result = report["result"]
    family = fact["family"]
    if family is None:
        length = {str(e["id"]): Fraction(e["length"]) for e in _record(fact)["edges"]}
        cvals = result["char_value"]
        if set(cvals) != set(length):
            return ["char_value does not cover every edge"]
        total = -sum(Fraction(cvals[e]) * length[e] for e in length)
        _expect(p, "sum of -c(e)|e|", total, 1)
    else:
        _expect(p, "c_*", result["globals"]["c_star"], str(_pq_c(family)))
        _expect(p, "ell_star", result["globals"]["ell_star"], "1")
    return p


def corrupt_curvature(report: dict) -> None:
    result = report["result"]
    key = "0" if "0" in result["char_value"] else next(iter(result["char_value"]))
    result["char_value"][key] = str(Fraction(result["char_value"][key] or 0) + 1)
    result["globals"]["c_star"] = str(Fraction(result["globals"]["c_star"]) + 1)


def check_gauss_bonnet(report, fact, counts):
    p: list[str] = []
    result = report["result"]
    if fact["family"] is None:
        _expect(p, "sum", result.get("sum"), "1")
        _expect(p, "holds", result.get("holds"), True)
    else:
        _expect(p, "error", result.get("error"), "NotFiniteTessellation")
    return p


def corrupt_gauss_bonnet(report: dict) -> None:
    result = report["result"]
    result["sum"] = "2"
    result["error"] = "None"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _build_ops(name: str, finite: bool) -> list[Op]:
    return [
        Op(f"validate {name}", name, ("validate",), 0, check_validate,
           corrupt_validate),
        Op(f"faces {name}", name, ("faces",), 0, check_faces, corrupt_faces),
        Op(f"curvature {name}", name, ("curvature",), 0, check_curvature,
           corrupt_curvature),
        Op(f"gauss-bonnet {name}", name, ("gauss-bonnet",), 0 if finite else 2,
           check_gauss_bonnet, corrupt_gauss_bonnet),
    ]


WORKLOADS: dict[str, list[Op]] = {
    "alpha-scan": [
        Op("alpha pq73r3", "pq73r3", ("alpha",), 0, check_alpha(300_125),
           corrupt_alpha),
        Op("alpha gk3", "gk3", ("alpha",), 0, check_alpha(17_578), corrupt_alpha),
        Op("alpha netree6", "netree6", ("alpha",), 0,
           check_alpha(21_010, exact="1/3", witness=[0]), corrupt_alpha),
        Op("alpha rand-small", "rand-small",
           ("alpha", "--budget-edges", str(RANDOM_ALPHA_EDGES)), 0,
           check_alpha(None), corrupt_alpha),
    ],
    "starlike-closure": [
        Op("bounds pq73r4", "pq73r4", ("bounds",), 0,
           check_bounds(869, 3_165, cstar="1/21"), corrupt_bounds),
        Op("bounds netree8", "netree8", ("bounds",), 0,
           check_bounds(101, 1_277), corrupt_bounds),
        Op("degsum sweep", SWEEP[0][0], (), 0, check_sweep, corrupt_sweep,
           library=degsum_sweep),
    ],
    "build-curvature": (_build_ops("pq73r7", False) + _build_ops("pq44r40", False)
                        + _build_ops("rand-2k", True) + _build_ops("rand-3k", True)),
}
