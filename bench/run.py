"""isotess benchmark: one workload, one closed-loop client, in process.

    python3 bench/run.py --workload alpha-scan --seed 1 --seconds 30 --trace 0

Set-up runs in a child process (bench/inputs.py): it generates the
workload's input files from the seed, writes and validates them, several
times, each time between two reference loops and under probes like an
operation (below). ``setup_s`` is the median repetition in reference
loops, stated in seconds at the loop's nominal 0.05 s
(bench/reference.py); the plain seconds go to the detail file. This
process then imports isotess from ``src/`` and runs the workload's fixed
list of operations back to back (each starts when the previous one
returns), pass after pass, for ``--seconds``. The benchmark starts no
threads or pools, and the CLI runs with its default ``--workers``, so a
change that parallelises by default shows here. Every operation is
judged by its oracle; an operation fails when it raises, exits with an
unexpected code or fails its oracle.

With ``--trace 0`` the metrics are the end-to-end ones: the pass time in
reference loops, the peak resident memory of this process over the first
RSS_PASSES passes and the set-up time. A fixed reference loop (bench/reference.py) is timed before the
first operation of a pass and after every operation, and short probes of
the same loop run inside every operation; each operation's wall time,
less its probes, is divided by the mean time of one loop over the loops
on either side of it and its probes. ``wall_norm`` is the sum over the
operations of the median of that quotient over the passes. On a host
whose cores are shared with other tenants, the neighbours' load can
double the time of any loop for tens of seconds at a time, so plain
seconds spread more than a regression gate allows; the quotient cancels
most of that slowdown. The plain pass wall time (``wall_s``, the median
pass, probes taken out) goes to the detail file. With ``--trace 1`` half
the time runs untraced passes and half runs passes with span wrappers
installed (bench/spans.py); the metrics are the per-layer medians over
the traced passes, and span times include the probes (about 2%).
Quartiles, pass counts, report digests, the environment and the spans go
to ``.bench_out/``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from reference import LOOP_S, Probes, in_loops, time_reference
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Peak memory is read after this many passes: the heap keeps growing a
# little with every pass, and how many passes fit in a run depends on the
# host's speed, so a read at the end of the run would move with it.
RSS_PASSES = 2


@dataclass
class Pass:
    op_s: list[float]  # wall seconds of each operation, probes taken out
    probe_s: list[float]  # seconds of the probes inside each operation
    probe_steps: list[int]  # reference loop steps those probes ran
    ref_s: list[float]  # reference loop before the first and after each op

    def loops(self, i: int) -> float:
        """Operation ``i``'s wall time in reference loops."""
        return in_loops(self.op_s[i], self.probe_s[i], self.probe_steps[i],
                        self.ref_s[i], self.ref_s[i + 1])


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def pass_walls(passes: list[Pass]) -> list[float]:
    """Plain wall seconds of each pass."""
    return [sum(p.op_s) for p in passes]


def wall_norm(passes: list[Pass]) -> float:
    """Sum over the operations of the median time in reference loops."""
    loops = [[p.loops(i) for i in range(len(p.op_s))] for p in passes]
    return sum(statistics.median(op) for op in zip(*loops))


def peak_rss_mb() -> float:
    """High-water resident memory of this process (not of set-up)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def commit() -> str | None:
    """The checked-out commit, when the tree is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit(),
            "src_lines": lines, "src_sha256": digest.hexdigest()}


def setup(workload: str, seed: int, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    """Runs passes over a workload's operations and judges every output."""

    def __init__(self, isotess, ops, facts):
        self.isotess = isotess
        self.ops = ops
        self.facts = facts
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.passes = 0
        self.first_reports: list = []
        self.layer_rows: list[dict] = []  # per traced pass
        self.probes = Probes()
        self.peak_rss_mb: float | None = None  # after RSS_PASSES passes

    def execute(self, op) -> tuple[int, str]:
        if op.library is not None:
            return 0, op.library(self.isotess, self.facts)
        buf = io.StringIO()
        argv = [op.argv[0], self.facts[op.input]["path"], *op.argv[1:]]
        with contextlib.redirect_stdout(buf):
            code = self.isotess.cli.main(argv)
        return code, buf.getvalue()

    def run_pass(self, tracer=None) -> Pass:
        """One pass over the operations, each between two reference loops."""
        if tracer:
            first_span = len(tracer.spans)
            tracer.counts.clear()
        walls, probe_s, probe_steps = [], [], []
        refs = [time_reference()]
        outcomes = []
        for i, op in enumerate(self.ops):
            gc.collect()  # outside the timed region: no op pays for the last
            before = dict(tracer.counts) if tracer else None
            t0 = time.perf_counter()
            span = tracer.open("op", op=self.passes * len(self.ops) + i) \
                if tracer else None
            try:
                with self.probes.running():
                    code, text = self.execute(op)
                error = None
            except (Exception, SystemExit) as exc:  # judged below, run goes on
                code, text, error = None, "", f"raised {exc!r}"
            finally:
                if tracer:
                    tracer.close(span)
            walls.append(time.perf_counter() - t0 - self.probes.seconds)
            probe_s.append(self.probes.seconds)
            probe_steps.append(self.probes.steps)
            refs.append(time_reference())
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()} \
                if tracer else None
            outcomes.append((op, Outcome(code, text, counts), error))
        if tracer:
            self.layer_rows.append(spans.layer_metrics(
                tracer.spans[first_span:], first_span, tracer.counts))
        for op, outcome, error in outcomes:
            self.judge(op, outcome, error)
        if self.passes == 0:
            self.first_reports = outcomes
        self.passes += 1
        if self.passes == RSS_PASSES:
            self.peak_rss_mb = peak_rss_mb()
        return Pass(walls, probe_s, probe_steps, refs)

    def judge(self, op, outcome, error) -> None:
        self.attempted += 1
        problems = [error] if error else op.judge(outcome, self.facts)
        digest = hashlib.sha256(outcome.text.encode("utf-8")).hexdigest()
        if self.digests.setdefault(op.label, digest) != digest:
            problems.append("report differs from the first pass")
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.label}: {p}" for p in problems)

    def measure(self, budget_s: float, tracer=None) -> list[Pass]:
        """Whole passes until the next one would overrun the budget."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(tracer))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > budget_s:
                return passes

    def check_oracles(self) -> list[str]:
        """Every oracle must reject a corrupted copy of a real report."""
        out = []
        for op, outcome, error in self.first_reports:
            if error or op.judge(outcome, self.facts):
                continue  # already counted as a failed operation
            report = outcome.report()
            op.corrupt(report)
            bad = Outcome(outcome.exit_code, json.dumps(report), outcome.counts)
            if not op.judge(bad, self.facts):
                out.append(f"{op.label}: oracle accepted a corrupted report")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="isotess benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "isotess" / "__init__.py").is_file():
        sys.stderr.write(f"no isotess sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import isotess
    import isotess.cli
    if Path(isotess.__file__).resolve().parent != SRC / "isotess":
        sys.stderr.write(f"isotess imported from {isotess.__file__}, not {SRC}\n")
        return 2

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    problems = spans.check_self_times()

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        prepared = setup(args.workload, args.seed, work)
        runner = Runner(isotess, WORKLOADS[args.workload], prepared["files"])
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = runner.measure(budget)
        traced_passes = []
        problems += runner.check_oracles()
        stats = {"wall_norm": summary([wall_norm(passes)]),
                 "wall_s": summary(pass_walls(passes)),
                 "peak_rss_mb": summary([runner.peak_rss_mb or peak_rss_mb()]),
                 "setup_s": summary([n * LOOP_S for n in prepared["setup_loops"]])}
        if args.trace:
            tracer = spans.Tracer()
            with tracer.install(isotess):
                traced_passes = runner.measure(budget, tracer)
            for name in runner.layer_rows[0]:
                stats[name] = summary([row[name] for row in runner.layer_rows])
            stats["traced_wall_norm"] = summary([wall_norm(traced_passes)])
            stats["families.gen_s"] = summary(prepared["families_gen_s"])
            stats["trace.overhead_frac"] = summary(
                [wall_norm(traced_passes) / wall_norm(passes) - 1])
            times = os.times()
            stats["run.cpu_s"] = summary([times.user + times.system
                                          + times.children_user
                                          + times.children_system])
            spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps({
                "ops": [op.label for op in runner.ops],
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.spans}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += runner.problems
    failed = runner.failed
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "passes": runner.passes,
              "attempted": runner.attempted, "failed": failed,
              "error_rate": failed / runner.attempted,
              "problems": problems, "metrics": stats,
              "passes_s": [vars(p) for p in passes],
              "traced_passes_s": [vars(p) for p in traced_passes],
              "setup_rep_s": prepared["setup_s"],
              "report_sha256": runner.digests}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    for p in problems:
        sys.stderr.write(f"problem: {p}\n")

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = units["per_layer"] if args.trace else units["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted}
    sys.stderr.write(json.dumps({k: stats[k] for k in metrics}) + "\n")
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
