"""
Machine-speed calibration for the benchmark's times.

On a shared machine the speed of one core drifts: the same diffpoly call
took between 0.51 s and 1.08 s within 90 s on the 2-core VM the baseline
was measured on, and whole 30 s runs drifted by up to 1.7x.  The
benchmark therefore times a fixed kernel before and after every timed
call and rescales the call's wall time to the speed at which the kernel
takes ``KERNEL_REF_S``.  The kernel does what diffpoly's hot path does,
exact ``Fraction`` row operations of small simplex tableaus, on 6-digit
and on 18-digit rationals, and uses no diffpoly code, so a change to the
library moves the rescaled time in full.  Raw wall times are reported
next to the rescaled ones.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time at the parent commit on the baseline machine; a
# constant, so rescaled times compare across runs and commits.
KERNEL_REF_S = 0.0077
REPEATS = 3


def _kernel() -> None:
    rnd = random.Random(0)
    for digits in (6, 18):
        rows = [[Fraction(rnd.randrange(1, 10**digits), rnd.randrange(1, 10**digits))
                 for _ in range(24)] for _ in range(6)]
        for k in range(3):
            pivot = rows[k][k]
            rows[k] = [v / pivot for v in rows[k]]
            for r in range(6):
                if r != k:
                    f = rows[r][k]
                    rows[r] = [a - f * p for a, p in zip(rows[r], rows[k])]


def kernel_s() -> float:
    """Median wall time of REPEATS runs of the kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """`wall_s` rescaled to the speed at which the kernel takes KERNEL_REF_S."""
    return wall_s * KERNEL_REF_S * 2 / (kernel_before + kernel_after)
