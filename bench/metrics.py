"""Order statistics and host-speed calibration shared by the run, the
worker and the steadiness check."""

from __future__ import annotations

import statistics
from time import perf_counter

#: The host this benchmark runs on is shared, and its speed drifts by tens of
#: percent over minutes.  Every run therefore also times a fixed pure-Python
#: loop, spread over the run, and scales its times to a host on which that
#: loop takes CALIBRATION_REF_S (about this loop's median on a 2-core x86-64
#: container): reported time = measured time * CALIBRATION_REF_S / median loop time.
CALIBRATION_REF_S = 0.010
_CALIBRATION_ITERS = 100_000
#: Seconds of work between two calibration loops in a run.
CALIBRATION_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now."""
    start = perf_counter()
    x = 0
    for i in range(_CALIBRATION_ITERS):
        x += i * i % 7
    return perf_counter() - start


def host_scale(loop_times: list[float]) -> float:
    """Factor that converts this host's seconds to reference seconds."""
    return CALIBRATION_REF_S / statistics.median(loop_times)

#: Percentiles op_tail_ms may report, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile must have at least this many samples beyond it.
BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``% of
    the samples at or below it."""
    return sorted(values)[percentile_rank(len(values), pct) - 1]


def tail(values: list[float], target: float) -> tuple[float, float]:
    """(percentile, value) of the op-time tail.

    Uses ``target`` if at least :data:`BEYOND` samples lie beyond it, else
    the highest rung of :data:`LADDER` below ``target`` that has them, else
    the median.
    """
    n = len(values)
    for pct in (target,) + tuple(p for p in LADDER if p < target):
        if n - percentile_rank(n, pct) >= BEYOND:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def percentile_rank(n: int, pct: float) -> int:
    """1-based rank of the nearest-rank ``pct`` percentile among ``n`` samples."""
    return int(max(1, -(-n * pct // 100)))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, interquartile range over the
    median), with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")
