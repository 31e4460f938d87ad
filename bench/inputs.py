"""Generate, write and validate one workload's input files.

run.py starts this as a child process, so that input generation never
counts toward the peak memory of the process that runs the operations:

    python3 bench/inputs.py --workload alpha-scan --seed 1 --out DIR

Set-up is repeated (at least MIN_REPS times and for at least
MIN_SECONDS), each repetition generating, writing and validating every
file of the workload from the seed alone, between two reference loops and
under probes (bench/reference.py).  The last line of standard output is
one JSON object: per-repetition set-up seconds (probes taken out), set-up
time in reference loops and generator seconds, and a manifest of the
files with the facts the oracles check.
Exits 1 when a generated input fails validation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from isotess import families, interchange  # noqa: E402
from isotess.curvature import gauss_bonnet_check  # noqa: E402
from isotess.graphcore import build_graph, validate_tessellation  # noqa: E402
from reference import Probes, in_loops, time_reference  # noqa: E402
from workloads import RANDOM_ALPHA_EDGES  # noqa: E402

MIN_REPS = 5
MIN_SECONDS = 1.0


def random_tessellation(rng: random.Random, splits: int) -> dict:
    """Finite plane triangulation grown from K4 by stellar subdivision.

    Each step puts a new vertex inside a uniformly chosen bounded face and
    joins it to the face's three corners.  The outer face of K4 is never
    split and is declared unbounded.  Lengths are random rationals with
    numerators and denominators in 1..9, so many denominators differ.
    """
    ends = {0: (0, 1), 1: (0, 2), 2: (0, 3), 3: (1, 2), 4: (2, 3), 5: (3, 1)}
    # clockwise rotations of K4 drawn with vertex 0 in the middle
    rot = {0: [0, 1, 2], 1: [3, 0, 5], 2: [4, 1, 3], 3: [5, 2, 4]}

    def succ(dart):
        # the interchange face convention: leave the head of the dart
        # along the clockwise successor of its edge
        e, h = dart
        r = rot[h]
        e2 = r[(r.index(e) + 1) % len(r)]
        a, b = ends[e2]
        return e2, (b if h == a else a)

    def face(dart):
        cycle = [dart]
        d = succ(dart)
        while d != dart:
            cycle.append(d)
            d = succ(d)
        return cycle

    outer = (4, 3)
    faces = [face(d) for d in ((0, 1), (1, 2), (2, 3))]
    for _ in range(splits):
        k = rng.randrange(len(faces))
        cycle = faces[k]
        x = len(rot)
        spokes = []
        for e, h in cycle:
            f = len(ends)
            ends[f] = (x, h)
            spokes.append(f)
            r = rot[h]
            r.insert(r.index(e) + 1, f)
        rot[x] = spokes[::-1]
        tris = [[(spokes[j], cycle[j][1]), cycle[(j + 1) % 3],
                 (spokes[(j + 1) % 3], x)] for j in range(3)]
        faces[k] = tris[0]
        faces.extend(tris[1:])
    lengths = {e: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for e in ends}
    return interchange.make_record(rot, ends, lengths,
                                   unbounded_face_reps=[outer])


def _pq(p, q, radius):
    return lambda rng: families.gen_pq_ball(families.PQParams(p=p, q=q), radius)


def _random(splits):
    return lambda rng: random_tessellation(rng, splits)


# name -> (generator taking a seeded Random, is a families generator)
INPUTS = {
    "alpha-scan": {
        "pq73r3": (_pq(7, 3, 3), True),
        "gk3": (lambda rng: families.gen_gk(families.GkParams(
            k=3, rows=3, cols=3, tree_depth=2)), True),
        "netree6": (lambda rng: families.gen_nonequilateral_tree(6, 3), True),
        "rand-small": (_random(14), False),
    },
    "starlike-closure": {
        "pq73r4": (_pq(7, 3, 4), True),
        "netree8": (lambda rng: families.gen_nonequilateral_tree(8, 3), True),
        "pq44r5": (_pq(4, 4, 5), True),
        "pq37r6": (_pq(3, 7, 6), True),
    },
    "build-curvature": {
        "pq73r7": (_pq(7, 3, 7), True),
        "pq44r40": (_pq(4, 4, 40), True),
        "rand-2k": (_random(700), False),
        "rand-3k": (_random(1000), False),
    },
}


def _validate(name: str, path: Path, finite: bool) -> None:
    g = build_graph(interchange.load_record(path))
    if finite:
        rep = validate_tessellation(g, "finite")
        euler = len(g.vertices) - len(g.edges) + len(g.tiles)
        if not rep.valid or not gauss_bonnet_check(g).holds or euler != 2:
            raise SystemExit(f"input {name}: random tessellation is invalid")
    elif not validate_tessellation(g, "truncation").valid:
        raise SystemExit(f"input {name}: truncation is invalid")


def setup_once(workload: str, seed: int, out: Path) -> float:
    """Generate, write and validate every input; returns the seconds spent
    in the families generators."""
    gen_s = 0.0
    for name, (make, is_family) in INPUTS[workload].items():
        rng = random.Random(f"{workload}/{name}/{seed}")
        g0 = time.perf_counter()
        record = make(rng)
        if is_family:
            gen_s += time.perf_counter() - g0
        path = out / f"{name}.json"
        interchange.save(record, path)
        _validate(name, path, finite=not is_family)
    return gen_s


def naive_subset_count(record: dict, max_edges: int) -> int:
    """Connected edge subsets of size <= max_edges, grown level by level.

    Deliberately simple and independent of the program's ESU scanner; only
    for graphs without frontier, where every edge is eligible.
    """
    at: dict[int, list[int]] = {}
    for item in record["edges"]:
        for v in item["ends"]:
            at.setdefault(v, []).append(item["id"])
    nbrs = {item["id"]: {f for v in item["ends"] for f in at[v]} - {item["id"]}
            for item in record["edges"]}
    level = {frozenset([e]) for e in nbrs}
    total = len(level)
    for _ in range(max_edges - 1):
        level = {s | {f} for s in level for e in s for f in nbrs[e] if f not in s}
        total += len(level)
    return total


def manifest(workload: str, out: Path) -> dict:
    files = {}
    for name, (_, is_family) in INPUTS[workload].items():
        path = out / f"{name}.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        entry = {"path": str(path), "vertices": len(record["vertices"]),
                 "edges": len(record["edges"]), "family": record.get("family")}
        if not is_family and workload == "alpha-scan":
            entry["subsets"] = naive_subset_count(record, RANDOM_ALPHA_EDGES)
        files[name] = entry
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    setup_s, setup_loops, gen_s = [], [], []
    probes = Probes()
    ref_s = time_reference()
    start = time.perf_counter()
    while len(setup_s) < MIN_REPS or \
            (time.perf_counter() - start < MIN_SECONDS and len(setup_s) < 50):
        t0 = time.perf_counter()
        with probes.running():
            g = setup_once(args.workload, args.seed, out)
        s = time.perf_counter() - t0 - probes.seconds
        after_s = time_reference()
        setup_s.append(s)
        setup_loops.append(in_loops(s, probes.seconds, probes.steps,
                                    ref_s, after_s))
        gen_s.append(g)
        ref_s = after_s
    print(json.dumps({"setup_s": setup_s, "setup_loops": setup_loops,
                      "families_gen_s": gen_s,
                      "files": manifest(args.workload, out)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
