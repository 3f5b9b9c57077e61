"""Op times scaled to a reference CPU speed.

On a shared host the speed of one CPU drifts: on a 2-vCPU Intel Xeon VM a
fixed pure-Python loop was measured taking 17 to 28 ms within one 90-second
span, and a fixed op 4.0 to 5.9 s.  Process CPU time drifts alike, so it does not help.  While a timed
region runs, a SIGALRM handler times a small fixed calibration kernel every
``PERIOD_S`` seconds (between bytecodes of the main thread).  The region's
own time is its wall time minus the time spent in the handler; its
normalised time is the own time scaled by ``REF_KERNEL_S`` over the mean
kernel time, i.e. the time it would have taken at the speed at which the
kernel takes ``REF_KERNEL_S``.  The kernel is this file's own code, so a
change to the program does not move it.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# Kernel time at the reference speed; about its time on an idle 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4).
REF_KERNEL_S = 1.0e-3
KERNEL_STEPS = 100

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(32, 3))
_X /= np.linalg.norm(_X, axis=1)[:, None]
_Z = _X[:8].copy()


def kernel() -> float:
    """Small-array numpy calls and scalar Python, like the library's inner loops."""
    acc = 0.0
    for k in range(KERNEL_STEPS):
        d = np.arccos(np.clip(_X @ _Z[k % 8], -1.0, 1.0))
        acc += float(np.minimum(d, 0.5 * math.pi - d).max()) + math.atan2(acc % 1.0, 1.0 + k)
    return acc


def kernel_seconds(samples: int = 5) -> float:
    """Median kernel time measured now, back to back."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass(frozen=True)
class Timing:
    wall_s: float
    own_s: float
    kernel_s: float

    @property
    def norm_s(self) -> float:
        return self.own_s * REF_KERNEL_S / self.kernel_s

    @property
    def speed(self) -> float:
        """CPU speed during the region, relative to the reference."""
        return REF_KERNEL_S / self.kernel_s


def timed(fn, *args):
    """Call ``fn(*args)`` while sampling the kernel; returns ``(result, Timing)``."""
    samples: list[float] = []
    busy = False

    def tick(signum, frame):
        nonlocal busy
        if busy:
            return
        busy = True
        t0 = perf_counter()
        kernel()
        samples.append(perf_counter() - t0)
        busy = False

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    own = wall - sum(samples)
    if len(samples) < 3:
        # the region was too short for the timer: sample right after it
        samples.append(kernel_seconds())
    return result, Timing(wall, own, statistics.fmean(samples))
