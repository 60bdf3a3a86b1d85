"""The reference loop: a fixed piece of pure-Python work that measures the host's current speed.

The host the benchmark was written on (2 vCPUs of a shared Xeon) changes
speed by more than ten percent within seconds, so raw times of the same
work drift between runs.  Timing this loop next to the work, in the same
process, and dividing by it cancels most of that drift.
"""

from __future__ import annotations

import time

ITERATIONS = 100_000
# Roughly the loop's time on that host (it ranged from 12 to 25 ms over a
# few hours); it converts reference units back to seconds.
NOMINAL_S = 0.015


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(ITERATIONS):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start
