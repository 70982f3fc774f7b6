"""Host speed, measured by a fixed interpreter kernel that does not use the library.

On a shared host the speed of the interpreter drifts by tens of percent over
seconds to minutes.  ``HostSpeed`` times a small dict-, tuple- and list-heavy
kernel at intervals through a run; a measured time multiplied by
``REFERENCE_S / kernel time`` is the time the same work would have taken on a
host that runs the kernel in ``REFERENCE_S``.  The kernel's work is fixed, so a
change to the library moves the measured time and not the kernel's.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

# Kernel time on a quiet 2-core x86-64 VM under CPython 3.11.
REFERENCE_S = 0.004
EVERY_S = 0.2
REPS = 3

_rng = random.Random("host-speed")
_ADJACENCY = {v: [_rng.randrange(2000) for _ in range(3)] for v in range(2000)}


def _kernel() -> int:
    """Depth-first walk over the edges of a fixed random graph of 2,000
    vertices: about 6,000 tuple-keyed dict entries, like the engine's tables."""
    seen: dict[tuple[int, int], int] = {}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in _ADJACENCY[v]:
            if (v, w) not in seen:
                seen[(v, w)] = len(seen)
                stack.append(w)
    return len(seen)


class HostSpeed:
    """The kernel's time, as the median of ``REPS`` runs, re-taken at most
    every ``EVERY_S`` seconds: about 6% of a busy loop's time."""

    def __init__(self) -> None:
        self.last_ns = 0
        self.latest_s = 0.0

    def sample(self, force: bool = False) -> float:
        """Latest kernel time in seconds, re-taken if ``EVERY_S`` has passed."""
        now = perf_counter_ns()
        if force or not self.latest_s or now - self.last_ns >= EVERY_S * 1e9:
            times = []
            for _ in range(REPS):
                start = perf_counter_ns()
                _kernel()
                times.append((perf_counter_ns() - start) / 1e9)
            self.latest_s = statistics.median(times)
            self.last_ns = perf_counter_ns()
        return self.latest_s


def scale(value: float, kernel_s: list[float]) -> float:
    """``value`` at the reference host speed, given kernel times taken alongside it."""
    return value * REFERENCE_S / statistics.median(kernel_s)
