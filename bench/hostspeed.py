"""Host speed, measured by a fixed kernel run between units.

On a shared host the same work can take 1.6 times longer from one
moment to the next (CPU time moves with wall time, so the host itself
runs slower), and the slow and fast spells last from milliseconds to
seconds.  The benchmark runs ``kernel`` at least every EVERY_S between
units, outside the unit timers, and scales each unit's time by REF_S
over the median kernel time within WINDOW_S of the unit.  Scaled times
read as if the host ran at the reference speed, at which one kernel
takes REF_S (about its time on an idle 2-core sandbox).  Raw times and
kernel times are kept in the result file.  Set-up time is not scaled:
it barely follows the kernel (slope 0.06 in log-log over 40 probes).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 1e-3      # kernel time at the reference host speed
EVERY_S = 0.02    # at most this long between kernels while units run
WINDOW_S = 0.1    # kernels this close to a unit measure its host speed

_GRID = np.linspace(0.0, 1.0, 2000)


def kernel() -> float:
    """Fixed work like a unit's: interpreter loops and small numpy calls."""
    acc = 0
    table = {}
    for i in range(3000):
        acc += i * i % 7
        table[i & 63] = acc
    total = 0.0
    for _ in range(40):
        total += float((np.sin(_GRID) * 2.0 + _GRID).sum())
        total += int(np.searchsorted(_GRID, 0.5))
    return total + acc


class HostSpeed:
    """Kernel times taken between units and the scale factors they imply."""

    def __init__(self):
        self.at = []       # midpoint of each kernel run, perf_counter seconds
        self.samples = []  # its duration
        self.last = -float("inf")

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.at.append(0.5 * (t0 + self.last))
        self.samples.append(self.last - t0)

    def tick(self):
        """Sample if one is due."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor to the reference speed for work done from t0 to t1:
        REF_S over the median kernel time within WINDOW_S of it, counting
        at least the last kernel before and the first after."""
        at = self.at
        lo = min(bisect.bisect_left(at, t0 - WINDOW_S), bisect.bisect_left(at, t0) - 1)
        hi = max(bisect.bisect_right(at, t1 + WINDOW_S), bisect.bisect_right(at, t1) + 1)
        return REF_S / statistics.median(self.samples[max(lo, 0):min(hi, len(at))])
