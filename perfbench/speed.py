"""Machine-speed reference for the latency metrics.

The benchmark runs on shared machines whose speed drifts.  On a 2 vCPU VM
a fixed loop took anywhere from 3.1 to 4.9 ms within 90 s, with CPU time
equal to wall time: the process was slowed, not descheduled.  Unscaled
latencies of runs a minute apart differed by 20-30 %, more than any useful
regression bound, and the speed changed within seconds.

So a short fixed kernel is timed right before and right after every timed
call, outside the timed region, and each latency is reported at reference
speed:

    reported = measured * REF_KERNEL_MS / (mean of the two kernel times)

The kernel uses only the standard library and none of the program, so a
change to locaut cannot move it.  It multiplies and adds Fractions picked at
random from a 40 000-entry pool: exact big-int arithmetic like locaut's Q(i)
scalars, over a working set of about 5 MB, because a small cache-resident
loop slowed less than the workloads did.  On that VM, scaling by kernels
adjacent to each call cut the spread of the median filiform-demo latency
over eight 12 s runs from 28 % (unscaled) and 7 % (scaled by one kernel
median per run) to 4 %.
"""

from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's typical time on the 2 vCPU machine the bounds were set on.
REF_KERNEL_MS = 0.3

_POOL_SIZE = 40_000
_OPS = 64
_pool = None


def _get_pool():
    global _pool
    if _pool is None:
        rng = random.Random(5)
        values = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(_POOL_SIZE)]
        pairs = [(rng.randrange(_POOL_SIZE), rng.randrange(_POOL_SIZE)) for _ in range(_OPS)]
        _pool = values, pairs
        gc.freeze()  # keep the pool out of the program's garbage collections
    return _pool


def kernel_ms() -> float:
    values, pairs = _get_pool()
    t0 = perf_counter()
    acc = Fraction(0)
    for i, j in pairs:
        # restart the sum before its denominator outgrows the operands
        acc = values[i] * values[j] + acc if acc.denominator < 10**30 else values[i]
    return (perf_counter() - t0) * 1e3


def median_kernel_ms(samples: int = 5) -> float:
    return statistics.median(kernel_ms() for _ in range(samples))


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that takes a latency measured between two kernel timings to
    reference speed."""
    return REF_KERNEL_MS * 2 / (before_ms + after_ms)
