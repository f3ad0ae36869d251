"""Machine speed, sampled inside the measured process.

On a shared machine the speed of this process's CPU drifts: pure-Python
work on identical inputs takes 40 to 75 percent longer for stretches of
tens of seconds, which no repeat count within a run averages out.  A
SIGALRM timer therefore runs a fixed pure-Python reference unit every
PERIOD_S of wall time, between the bytecodes of whatever the process is
doing.  A timed interval, less the units run inside it, is scaled by
REFERENCE_UNIT_S over the units' mean time around the interval: seconds
at the reference speed.  Interleaved this finely, the scaled time of a
pass over identical inputs stays within about 2 percent while the raw
time moves by 20 percent and more.  Raw times are reported beside it.
"""

import bisect
import json
import math
import signal
import time
from array import array

PERIOD_S = 0.025
WINDOW_S = 0.25            # samples this close to an interval describe its speed
MIN_SAMPLES = 4
REFERENCE_UNIT_S = 2.2e-4  # the unit between solver work, uncontended 2.1 GHz Xeon vCPU


def reference_unit():
    """Interpreter work of the kinds the solvers do: float math, dict and
    list updates, calls, and one small JSON encoding."""
    acc = 0.0
    d = {}
    for i in range(600):
        x = math.sqrt(i + 1.0) * 1.0001
        d[i & 63] = d.get(i & 63, 0.0) + x
        acc += x if i % 3 else -x
    return len(json.dumps([acc, list(d.values())]))


class SpeedProbe:
    """Context manager that samples the reference unit while it is open."""

    def __init__(self):
        self.times = array("d")
        self.costs = array("d")
        self.spent = 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_unit()
        cost = time.perf_counter() - t0
        self.times.append(t0)
        self.costs.append(cost)
        self.spent += cost

    def scale(self, t0, t1):
        """REFERENCE_UNIT_S over the mean unit time near [t0, t1]."""
        n = len(self.times)
        i = bisect.bisect_left(self.times, t0 - WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + WINDOW_S)
        while j - i < MIN_SAMPLES and (i > 0 or j < n):
            i, j = max(0, i - 1), min(n, j + 1)
        if j == i:
            raise RuntimeError("no speed samples were taken")
        return REFERENCE_UNIT_S * (j - i) / sum(self.costs[i:j])
