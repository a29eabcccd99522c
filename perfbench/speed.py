"""Machine-speed probe: rescales wall times to a fixed reference speed.

On a shared host the same Python code runs up to 1.7 times slower for
minutes at a time while other tenants load the physical cores; the slowdown
is in process CPU time too, not only in wall time, so no clock hides it.
The probe is a fixed pure-Python task in the style of the solvers (building
frozensets of or-ed integers, splitting rule text into dictionaries) that
imports nothing from aspcw, so a change to aspcw cannot change its time.
Probes run between operations; every operation's wall time is divided by
the machine's speed factor at that moment, the median of the nearby probe
times over PROBE_REFERENCE_S.  The result reads as seconds on a machine
where the probe takes PROBE_REFERENCE_S.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Median probe time on the 2-vCPU Xeon virtual machine where the benchmark
# was written; it only sets the scale of the reported seconds.
PROBE_REFERENCE_S = 0.0038
# A probe runs once at least this many seconds have passed since the last.
PROBE_EVERY_S = 0.4
# A probe is the fastest of this many back-to-back runs of the task; the
# first run after an operation often pays for cold caches and page faults.
PROBE_REPEATS = 3
# Probes on each side of an operation that set its speed factor.
PROBE_REACH = 2

_rng = random.Random(20160629)
_LEFT = [frozenset(_rng.randrange(1 << 27) for _ in range(6)) for _ in range(16)]
_RIGHT = [frozenset(_rng.randrange(1 << 27) for _ in range(6)) for _ in range(32)]
_RULES = "\n".join(
    f"a{i} :- " + ", ".join(f"a{_rng.randrange(64)}" for _ in range(8))
    for i in range(150))


def _task() -> int:
    out = set()
    for g1 in _LEFT:
        for g2 in _RIGHT:
            out.add(frozenset({s1 | s2 for s1 in g1 for s2 in g2}))
    heads: dict[str, list[str]] = {}
    for line in _RULES.splitlines():
        head, _, body = line.partition(":-")
        heads.setdefault(head.strip(), []).extend(
            atom.strip() for atom in body.split(","))
    return len(out) + len(heads)


def probe() -> float:
    """Seconds one run of the fixed task takes now: the fastest of
    PROBE_REPEATS, with the collector off so that objects other code left
    alive do not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _task()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Probe times taken between operations, and the factor for each."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = float("-inf")

    def maybe_probe(self) -> int:
        """Probes if PROBE_EVERY_S have passed; returns the index of the
        latest probe, which the next operation is attributed to."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.times.append(probe())
            self._last = time.perf_counter()
        return len(self.times) - 1

    def factor(self, index: int) -> float:
        """Slowdown against the reference around the probe `index`: the
        median of the probes within PROBE_REACH on either side of the
        operations that followed it."""
        near = self.times[max(0, index - PROBE_REACH + 1):index + PROBE_REACH + 1]
        return statistics.median(near) / PROBE_REFERENCE_S

    def run_factor(self) -> float:
        return statistics.median(self.times) / PROBE_REFERENCE_S
