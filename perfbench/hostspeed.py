"""Host-speed calibration for timings taken on a shared, noisy machine.

On the 2-core VM this benchmark was built on, the speed of the same
single-threaded code drifts by up to 2x within seconds as neighbours load
the host. A fixed probe shaped like quantroll's hot path (a Python loop
over small numpy calls) is timed right before and right after each timed
step; dividing the step's time by the probe's slowdown against
REFERENCE_S gives the time the step would take on the reference host.
The probe is benchmark code, so a change to quantroll cannot move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the reference host (2-core VM, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0175
PROBES = 3


def probe() -> float:
    a = np.arange(28.0)
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        order = np.argsort(a, kind="stable")
        acc += float(np.cumsum(a[order])[-1]) + (i * i) % 7
    return time.perf_counter() - start


def slowdown() -> float:
    """How much slower than the reference host this host runs right now."""
    return statistics.median(probe() for _ in range(PROBES)) / REFERENCE_S


def timed(fn, *args, **kwargs):
    """(raw seconds, host slowdown around the call, result) of one call."""
    before = slowdown()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    return seconds, (before + slowdown()) / 2, result
