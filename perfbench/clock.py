"""Wall time scaled to a reference machine speed.

The reference machine (a 2-vCPU VM shared with other tenants) changes speed
by a factor of up to two within a minute: a fixed pure-Python kernel took
between 9 and 21 ms over two minutes, and raw job times swung with it.  The
quartile spread of one job's time over 100 s was 36-38 %; scaled as below it
was 9-11 %.  The benchmark
therefore runs the kernel next to every timed interval and reports

    scaled = raw * KERNEL_REF_S / (mean kernel time before and after)

that is, seconds on a machine where the kernel takes ``KERNEL_REF_S``.  The
kernel is standard-library code of the benchmark, so no change to the
program moves it; a program that gets slower gets slower in scaled time by
the same factor.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

KERNEL_REF_S = 0.004
KERNEL_REPEATS = 3


def _kernel() -> int:
    # Fraction arithmetic and tuple-keyed dict updates: what the program's
    # exact algebra spends its time on, so the kernel slows down with it.
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1000):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, i % 13 + 1) * Fraction(i % 5 + 1, 7)
    return len(acc)


def kernel_seconds() -> float:
    """Median time of the kernel over a few repeats, with the garbage
    collector held off so that heap size does not enter."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        gc.enable()


def scale(raw: float, kernel_before: float, kernel_after: float) -> float:
    """``raw`` seconds expressed at the reference kernel speed."""
    return raw * KERNEL_REF_S * 2 / (kernel_before + kernel_after)
