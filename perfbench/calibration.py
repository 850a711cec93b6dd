"""Calibration against the host's speed of the moment.

On a shared host other tenants slow the CPU down by up to half, in spells
from a fraction of a second to minutes.  The benchmark therefore times a
fixed computation of its own next to the work it measures, and reports the
work's time over the calibration's time, converted to ms by the
calibration's time on an idle host.  The calibration never calls
`toricfilt`, so a change to the program moves only the numerator.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import corpus

REFERENCE = [corpus.invertible(random.Random(f"reference/{k}"), 4, -3, 3) for k in range(2)]
# reference_s() on an idle 2-vCPU Xeon VM
REFERENCE_S = 0.0007


def reference_s() -> float:
    """Time of exact Gauss-Jordan inversion of two fixed 4x4 matrices, the
    kind of work toricfilt's linalg does, so that a slow spell slows both
    alike."""
    t0 = perf_counter()
    for m in REFERENCE:
        corpus.inverse(m)
    return perf_counter() - t0


def calibrated_s(action) -> float:
    """Seconds `action()` takes at the idle host's speed: its time over the
    calibration's time before and after it, times REFERENCE_S."""
    before = statistics.median(reference_s() for _ in range(3))
    t0 = perf_counter()
    action()
    elapsed = perf_counter() - t0
    after = statistics.median(reference_s() for _ in range(3))
    return elapsed * 2 / (before + after) * REFERENCE_S
