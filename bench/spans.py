"""Span tracing installed from outside the program.

`Tracer.install` replaces each layer's public entry point with a wrapper
that records a span (name, start, end, parent, operation) and the layer's
counters.  A name is patched in every module that looks it up at call
time: `isoperimetry` imports `complete_closure` by name, so the wrapper
goes on `isoperimetry.complete_closure`, not on `graphcore`.  Spans stay
in memory; run.py writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module, attribute) pairs where callers look the entry up
ENTRY_POINTS = {
    "interchange.load_record": [("interchange", "load_record")],
    "graphcore.build_graph": [("graphcore", "build_graph")],
    "graphcore.validate": [("cli", "validate_tessellation"),
                           ("curvature", "validate_tessellation")],
    "curvature.global_constants": [("cli", "global_constants"),
                                   ("isoperimetry", "global_constants"),
                                   ("curvature", "global_constants")],
    "curvature.gauss_bonnet": [("cli", "gauss_bonnet_check")],
    "curvature.degsum": [("curvature", "degsum_check")],
    "graphcore.classify": [("curvature", "classify_subgraph")],
    "isoperimetry.edge_scan": [("isoperimetry", "alpha_upper_bruteforce")],
    "isoperimetry.starlike": [("isoperimetry", "enumerate_starlike_complete")],
    "graphcore.closure": [("isoperimetry", "complete_closure")],
    "isoperimetry.lower_bounds": [("cli", "lower_bounds"),
                                  ("isoperimetry", "lower_bounds")],
    "isoperimetry.bracket": [("cli", "alpha_bracket")],
    "reports.emit": [("reports", "emit")],
}

# Each star-like candidate (one connected generator set) is measured by
# exactly one `subgraph_stats` call made from `isoperimetry`; it is counted
# without a span.
COUNTED_ONLY = {"isoperimetry.generator_sets": ("isoperimetry", "subgraph_stats")}


def _count(name: str, result, counts: Counter) -> None:
    if name == "curvature.degsum":
        counts["curvature.degsum_checked"] += 1
    elif name == "graphcore.classify":
        counts["graphcore.classify_calls"] += 1
    elif name == "graphcore.closure":
        counts["graphcore.closure_calls"] += 1
    elif name == "isoperimetry.edge_scan":
        counts["isoperimetry.edge_subsets"] += result.enumerated
    elif name == "isoperimetry.starlike":
        selections, skipped = result
        counts["isoperimetry.starlike_selections"] += len(selections)
        counts["isoperimetry.starlike_skipped"] += skipped
    elif name == "reports.emit":
        counts["reports.bytes"] += len(result.encode("utf-8"))


class Tracer:
    """Nested spans and counters of one process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str, op: int | None = None) -> int:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            _count(name, result, self.counts)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def install(self, package):
        """Patch every entry point of `package`; restore them on exit."""
        patches = []
        for name, sites in ENTRY_POINTS.items():
            for mod, attr in sites:
                module = getattr(package, mod)
                patches.append((module, attr, self._wrap(name, getattr(module, attr))))
        for name, (mod, attr) in COUNTED_ONLY.items():
            module = getattr(package, mod)
            patches.append((module, attr, self._counter(name, getattr(module, attr))))
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def self_times(spans: list[list], base: int = 0) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    ``spans`` is a slice of a tracer's spans that starts at index ``base``
    and holds whole trees; parents are indices into the full list.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent - base, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def check_self_times() -> list[str]:
    """Self-time arithmetic on a hand-built tree (exact binary fractions)."""
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],   # overlaps a: the union is counted once
        ["c", 8.0, 12.0, 0, 0],  # runs past the root: clipped to it
        ["d", 2.0, 3.0, 1, 0],
        ["e", 2.5, 2.75, 4, 0],
    ]
    want = [3.0, 2.0, 3.0, 4.0, 0.75, 0.25]
    problems = []
    got = self_times(spans)
    if got != want:
        problems.append(f"self times {got}, expected {want}")
    # the same tree as the second pass of a run, after 3 earlier spans
    later = [[n, s, e, p + 3 if p >= 0 else p, op] for n, s, e, p, op in spans]
    got = self_times(later, base=3)
    if got != want:
        problems.append(f"self times at offset 3: {got}, expected {want}")
    return problems


# span name -> (metric, "total" or "self" time)
TIME_METRICS = {
    "interchange.load_record": ("interchange.load_record_s", "total"),
    "graphcore.build_graph": ("graphcore.build_graph_s", "total"),
    "graphcore.validate": ("graphcore.validate_s", "total"),
    "curvature.global_constants": ("curvature.global_constants_s", "total"),
    "curvature.gauss_bonnet": ("curvature.gauss_bonnet_s", "total"),
    "curvature.degsum": ("curvature.degsum_s", "total"),
    "graphcore.classify": ("graphcore.classify_s", "total"),
    "isoperimetry.edge_scan": ("isoperimetry.edge_scan_s", "total"),
    "isoperimetry.starlike": ("isoperimetry.starlike_s", "total"),
    "graphcore.closure": ("graphcore.closure_s", "total"),
    "isoperimetry.lower_bounds": ("isoperimetry.lower_bounds_s", "self"),
    "isoperimetry.bracket": ("isoperimetry.bracket_s", "self"),
    "reports.emit": ("reports.emit_s", "total"),
    # the operation itself, a CLI call or the library sweep: argument
    # parsing, file reads, the input digest and anything no layer covers
    "op": ("cli.other_s", "self"),
}

COUNT_METRICS = (
    "curvature.degsum_checked", "graphcore.classify_calls",
    "isoperimetry.edge_subsets", "isoperimetry.generator_sets",
    "isoperimetry.starlike_selections", "isoperimetry.starlike_skipped",
    "graphcore.closure_calls", "reports.bytes",
)


def layer_metrics(spans: list[list], base: int, counts: Counter) -> dict[str, float]:
    """Per-layer times and counts of one pass, with the derived ratios.

    ``spans`` are the pass's spans, which start at index ``base`` of the
    tracer's list.
    """
    out = {metric: 0.0 for metric, _ in TIME_METRICS.values()}
    for span, own in zip(spans, self_times(spans, base)):
        metric, kind = TIME_METRICS[span[0]]
        out[metric] += own if kind == "self" else span[2] - span[1]
    for name in COUNT_METRICS:
        out[name] = counts[name]
    scan_s = out["isoperimetry.edge_scan_s"]
    out["isoperimetry.edge_subsets_per_s"] = \
        out["isoperimetry.edge_subsets"] / scan_s if scan_s else 0.0
    sets = out["isoperimetry.generator_sets"]
    out["isoperimetry.starlike_yield"] = \
        out["isoperimetry.starlike_selections"] / sets if sets else 0.0
    return out
