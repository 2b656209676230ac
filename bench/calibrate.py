"""The frozen calibration kernel behind ``host_cost``.

This host's clock speed drifts by 10-20 % over seconds, so raw seconds do
not compare between two invocations.  Every timed round is therefore
divided by the time of a fixed pure-Python kernel run immediately before
and after it.  The kernel mixes what the simulator's hot paths do —
function calls, dict/list/str operations, small sorts — and is **never
edited after the PR that adds it**: changing it rescales every
``host_cost`` ever recorded.  ``KERNEL_CHECKSUM`` pins its result.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: Loop length: 45-75 ms on the 2-core box the benchmark was defined on.
KERNEL_ITERATIONS = 160_000
#: The kernel's return value; a different value means the kernel was edited.
KERNEL_CHECKSUM = 3802160

#: A kernel faster than this is below the timer noise the ratio can absorb.
MIN_KERNEL_S = 0.020
#: If the kernel runs right before and right after a round typically differ
#: by more than this share, the kernel does not track the host across a
#: round and ``host_cost`` means nothing.  (The spread over a whole
#: invocation is no criterion: this host drifts by 30-50 % within a minute,
#: which is exactly what dividing by the kernel absorbs.  Consecutive runs
#: differ by 6 % at the median and never by more than 27 % over 100
#: invocations.)
MAX_KERNEL_DISAGREEMENT = 0.40


class CalibrationError(RuntimeError):
    """The kernel cannot vouch for the timer; no ``host_cost`` is reported."""


def _step(i: int, table: dict, queue: list) -> int:
    key = "k%d" % (i & 1023)
    table[key] = table.get(key, 0) + i
    queue.append((i * 7919) & 0xFFFF)
    if len(queue) > 64:
        queue.sort()
        del queue[:32]
    return len(key)


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    table: dict = {}
    queue: list = []
    acc = 0
    for i in range(iterations):
        acc += _step(i, table, queue)
    return acc + len(table) + sum(queue)


def time_kernel() -> float:
    """Seconds one kernel run takes right now."""
    start = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - start
    if result != KERNEL_CHECKSUM:
        raise CalibrationError(
            f"calibration kernel returned {result}, expected {KERNEL_CHECKSUM}: "
            "the frozen kernel was edited"
        )
    return elapsed


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, the spread measure the benchmark contract uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def midmean(values: List[float]) -> float:
    """Mean of the middle half of the samples: as robust to bursts as the
    median, and steadier from run to run on this host's noise."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def check_kernel_samples(pairs: List[Tuple[float, float]]) -> None:
    """Refuse to vouch for ``host_cost`` on a broken timer or a wild host.

    ``pairs`` are the kernel times taken right before and right after each
    timed round."""
    median = statistics.median(after for _, after in pairs)
    if median < MIN_KERNEL_S:
        raise CalibrationError(
            f"calibration kernel median {median * 1e3:.2f} ms < "
            f"{MIN_KERNEL_S * 1e3:.0f} ms: timer resolution would dominate host_cost"
        )
    disagreement = statistics.median(abs(a - b) / ((a + b) / 2.0) for a, b in pairs)
    if disagreement > MAX_KERNEL_DISAGREEMENT:
        raise CalibrationError(
            f"calibration kernel runs before and after a round differ by "
            f"{disagreement:.0%} at the median (> {MAX_KERNEL_DISAGREEMENT:.0%}) over "
            f"{len(pairs)} rounds: host too unsteady"
        )
