"""Host speed probe: corrects timings for the shared host's changing speed.

On a shared VM the whole machine runs a third slower or faster for
seconds to minutes at a time, as other tenants come and go; CPU time
tracks wall time, so the loss is speed, not waiting.  A feuler-free probe
of the same kind of work as feuler's (Fraction arithmetic, small dicts)
is timed next to each measurement, and every timing is reported as the
time it would have taken on a host where the probe takes NOMINAL_S:

    corrected = raw * NOMINAL_S * mean(1 / probe time)

The mean of reciprocals weights each probe by the share of time the host
ran at its speed, and a probe slowed by a one-off interruption counts for
little.  NOMINAL_S is a fixed scale, the probe's median on the 2-vCPU VM
the seed values were measured on; it cancels in any comparison of two
commits.  feuler's speed does not enter the probe: it calls no feuler
code and runs with the garbage collector off, so the size of feuler's
heap does not change its time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.0023
INTERVAL_S = 0.25  # between probes inside a worker: ~1% of its time
clock = time.perf_counter


def probe() -> float:
    """Seconds one fixed piece of pure-Python work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i * i + 1, i + 3)
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i * i
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def factor(probes) -> float:
    """NOMINAL_S * mean(1 / p): multiply a raw timing by it to correct it."""
    return NOMINAL_S * sum(1.0 / p for p in probes) / len(probes)


class Sampler:
    """Probes every INTERVAL_S while a worker runs, from a timer signal.

    The handler runs between bytecodes of the main thread, so the probes
    sample the host while feuler runs.  `spent` is the wall time the
    handler took, which the worker leaves out of its timings.  One probe
    more is made on entry and one on exit, outside the timed body.
    """

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = clock()
        self.probes.append(probe())
        self.spent += clock() - t0

    def __enter__(self):
        self.probes.append(probe())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.append(probe())
        return False
