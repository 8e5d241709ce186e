"""Machine-speed calibration for timing on a shared host.

On a small shared machine the speed of one core drifts by up to a factor
of two over tens of seconds, whatever the measured program does, so raw
wall-clock figures from two runs cannot be compared.  The benchmark times
this fixed pure-Python kernel right before each request and scales every
measured time by ``REFERENCE_S`` over the kernel time measured around it.
A calibrated time is the time the request would have taken on a host where
the kernel takes ``REFERENCE_S``; the kernel is part of the benchmark, so a
change to qastates cannot move it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# About the median kernel time on a 2-vCPU Intel Xeon host.
REFERENCE_S = 100e-6
# Timings of the kernel per measurement; the fastest one counts.
REPEATS = 3
# Requests on either side whose kernel times form a request's local speed.
WINDOW = 8


def _kernel() -> float:
    perm = tuple(range(24))
    step = perm[1:] + perm[:1]
    seen = {}
    for i in range(40):
        perm = tuple(perm[step[k]] for k in range(24))
        seen[perm] = i
    total = 0.0
    for i in range(1, 300):
        total += math.sqrt(i) / i
    return total + len(seen)


def kernel_seconds() -> float:
    """Fastest of ``REPEATS`` timings of the calibration kernel."""
    best = math.inf
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def calibrated(times: list[float], kernel_times: list[float]) -> list[float]:
    """Scale each time by the local kernel speed, taken over a window of
    neighbouring requests in the order they ran."""
    if len(times) != len(kernel_times):
        raise ValueError("one kernel timing is needed per measured time")
    out = []
    for i, t in enumerate(times):
        local = statistics.median(kernel_times[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(t * REFERENCE_S / local)
    return out
