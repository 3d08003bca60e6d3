"""Host-speed correction for the time metrics.

On the 2-vCPU virtual machine the baseline was measured on, each vCPU
ran 1.1 to 1.9 times slower than its quiet speed, in bursts of seconds
and in regimes lasting minutes, independently of the other (a fixed
Python loop measured it).  That swing is larger than any regression
bound worth setting, so raw seconds cannot tell a change in the program
from a change in the host.

A probe, a fixed loop of interpreter work and tiny numpy calls that
calls into nothing of the program, runs from a SIGALRM handler every
``INTERVAL_S``, on the CPU and at the moment the program runs.  It runs
three times per tick; the first run pays for the caches the program
left cold and is discarded, the two warm runs time the core.  An
interval of measured time is reported as ``sum(dt * REFERENCE_S /
probe)``: the seconds the interval would have taken on a host where the
warm probe takes ``REFERENCE_S``, about its time on a quiet host.  The
handler's own time is taken out first.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.04
REFERENCE_S = 90e-6

_V = np.array([0.3, 0.7])
_W = np.array([1.1, -0.2])


def _probe():
    """Interpreter work and tiny numpy calls, the mix the program runs."""
    s = 0.0
    for i in range(40):
        z = _V * _W + i
        s += float(np.hypot(z[0], z[1])) + math.sqrt(i + 1.0)
    return s


class HostSpeed:
    def __init__(self):
        self.ticks = []         # (perf_counter, warm probe seconds)
        self.spent = 0.0        # seconds spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        _probe()
        _probe()
        t2 = time.perf_counter()
        self.ticks.append((t1, (t2 - t1) / 2.0))
        self.spent += t2 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def mark(self):
        """A point in time for ``scaled``."""
        return time.perf_counter(), len(self.ticks), self.spent

    def scaled(self, a, b, raw=None):
        """Seconds at reference speed for the interval between marks
        ``a`` and ``b``, or for ``raw`` seconds measured in it.  An
        interval too short to hold a tick takes the speed of the whole
        record."""
        if raw is None:
            raw = (b[0] - a[0]) - (b[2] - a[2])
        probes = [p for _, p in self.ticks[a[1]:b[1]]] or \
            [p for _, p in self.ticks]
        return raw * sum(REFERENCE_S / p for p in probes) / len(probes)
