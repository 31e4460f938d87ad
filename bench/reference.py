"""A fixed reference loop that reads the host's current speed.

The host's cores are shared with other tenants, and their load can make a
pure Python loop take twice as long, or longer, for tens of seconds at a
time.  The loop below does the kind of work the program does (exact
fraction arithmetic, comparisons, dict and list updates) and never
touches isotess, so no change to the program moves its time.

run.py reads the host's speed in two ways around every operation: a full
loop of ``STEPS`` steps right before and right after it, and, while it
runs, a probe of ``PROBE_STEPS`` steps every ``PROBE_PERIOD_S`` seconds,
run from a SIGALRM handler between two bytecodes of the operation.  The
probes cover the same seconds as the operation, so a slow spell that
starts and ends inside a long operation still shows in the estimate.
The time spent in probes is taken out of the operation's wall time; the
operation's cost in reference loops is what remains divided by the time
one loop of ``STEPS`` steps took on average over the loops and probes.
Set-up (bench/inputs.py) is measured the same way.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

STEPS = 7000  # 40 to 60 ms on a shared 2 GHz Xeon vCPU
PROBE_STEPS = 150  # about 1 ms
PROBE_PERIOD_S = 0.05  # probes take about 2% of an operation's time
# Nominal seconds of one loop, to state set-up time in seconds: the
# median loop took 0.04 to 0.06 s on the host the benchmark was tuned on.
LOOP_S = 0.05


def reference_loop(steps: int = STEPS) -> tuple:
    total = Fraction(0)
    table: dict[int, int] = {}
    stack: list[int] = []
    for i in range(steps):
        q = Fraction(i % 13 + 1, i % 7 + 2)
        if q < total / (i + 1):
            stack.append(i)
        total += q
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + len(stack) % 5
    return total, sorted(table.values())[-3:]


def time_reference() -> float:
    """Wall seconds of one reference loop, after a full collection."""
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def in_loops(seconds: float, probe_s: float, probe_steps: int,
             before_s: float, after_s: float) -> float:
    """``seconds`` of work in reference loops, from the loops timed before
    and after it and the probes run inside it."""
    per_step = (probe_s + before_s + after_s) / (probe_steps + 2 * STEPS)
    return seconds / (per_step * STEPS)


class Probes:
    """Seconds and steps of the probes run in the last ``running`` block."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop(PROBE_STEPS)
        self.seconds += time.perf_counter() - t0
        self.steps += PROBE_STEPS

    @contextmanager
    def running(self):
        """Probe the host's speed while the body runs."""
        self.seconds = 0.0
        self.steps = 0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
