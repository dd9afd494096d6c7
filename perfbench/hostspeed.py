"""Host-speed reference: a fixed pure-Python kernel timed next to the work.

The machines the bounds were measured on change speed by a third for tens
of seconds at a time (see README.md, "Host drift"), which is longer than a
run, so raw seconds of identical work spread beyond any usable bound.  The
benchmark therefore times a small fixed kernel between operations and
reports compute-bound timings in *reference seconds*: raw seconds divided
by the current slowdown, the kernel's recent median time over
:data:`REFERENCE_KERNEL_S`.  The kernel is the benchmark's own code, so a
change to the program moves reference seconds exactly as it moves raw ones.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: Kernel time, in seconds, that counts as reference speed (about its median
#: on the 2 vCPU Xeon VM the bounds were measured on).  It only sets the
#: scale: a reference second is a raw second when the kernel takes this long.
REFERENCE_KERNEL_S = 0.0016

#: Kernel samples the current slowdown is the median of.
WINDOW = 5

_ROUNDS = 4000


def kernel():
    """Fixed interpreter-bound work: list indexing, dict stores, integer ops."""
    table = list(range(4096))
    seen = {}
    total = 0
    for i in range(_ROUNDS):
        j = (i * 2654435761) & 4095
        value = table[j]
        if value & 1:
            total += value
        else:
            seen[j] = total
        table[j] = (value * 31 + i) & 0xFFFF
    return total


class HostSpeed:
    """Rolling measure of the host's speed against the reference."""

    def __init__(self):
        self._recent = deque(maxlen=WINDOW)
        self.samples = 0
        self.factors = []  # slowdown after each sample, for the detail line

    def sample(self):
        """Time the kernel once; return the updated slowdown."""
        start = time.perf_counter()
        kernel()
        self._recent.append(time.perf_counter() - start)
        self.samples += 1
        factor = self.slowdown()
        self.factors.append(factor)
        return factor

    def slowdown(self):
        """Median recent kernel time over the reference (> 1: slower host)."""
        if not self._recent:
            self.sample()
        return statistics.median(self._recent) / REFERENCE_KERNEL_S

    def scale(self, seconds):
        """*seconds* of raw wall time in reference seconds, at the current speed."""
        return seconds / self.slowdown()

    def summary(self):
        """Median and range of the slowdowns seen, for the detail line."""
        if not self.factors:
            return {}
        return {
            "slowdown_p50": statistics.median(self.factors),
            "slowdown_min": min(self.factors),
            "slowdown_max": max(self.factors),
            "kernel_samples": self.samples,
        }
