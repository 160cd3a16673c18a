"""Host speed sampled between operations, to normalise round times.

The CPUs this benchmark runs on may be shared with other tenants.  On the
2-CPU sandbox it was tuned on, the same round ran 15-30% faster or
slower from one minute to the next, in CPU time as much as in wall time,
and the median round time of ten runs spread by up to 27% of its median.
A fixed loop that does not touch ``bpdp`` runs between operations and
measures that drift.  ``norm_wall_s`` and ``setup_s`` are medians scaled
by REFERENCE_S over the median loop time measured alongside them.

The loop mixes the two kinds of work the workloads do: Python-level set,
tuple and float operations, and numpy ufuncs on arrays of about a
thousand doubles.  It runs in bursts that take DUTY of the time since
the previous burst, so long operations get proportionally more samples
around them.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Optional

import numpy as np

# Median loop time when the benchmark was defined: normalised seconds are
# seconds on a host that runs the loop this fast.
REFERENCE_S = 0.0125
DUTY = 0.1
FIRST_BURST_S = 0.3
MIN_GAP_S = 0.25


def loop_seconds() -> float:
    """Time of one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    seen = set()
    acc = 0.0
    for i in range(15000):
        key = (i % 61, i % 59)
        if key not in seen:
            seen.add(key)
        acc += math.log1p(i)
    a = np.linspace(0.0, 1.0, 1500)
    b = np.linspace(1.0, 2.0, 1500)
    for _ in range(200):
        a = np.logaddexp(a, b[::-1]) - 1.0
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples of one run."""

    def __init__(self):
        self.samples: List[float] = []
        self._last: Optional[float] = None

    def sample(self) -> None:
        """A burst of loops, sized to the time since the last burst."""
        now = time.perf_counter()
        if self._last is None:
            self.burst(FIRST_BURST_S)
        elif now - self._last >= MIN_GAP_S:
            self.burst(DUTY * (now - self._last))

    def burst(self, seconds: float) -> None:
        """Loops for about ``seconds``, at least one."""
        end = time.perf_counter() + seconds
        while True:
            self.samples.append(loop_seconds())
            if time.perf_counter() >= end:
                break
        self._last = time.perf_counter()

    def median_loop_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from this run's seconds to reference-host seconds."""
        return REFERENCE_S / self.median_loop_s()
