"""The machine's current speed, from a fixed piece of interpreter work.

On a shared machine the speed of one core drifts by up to 1.7x over
seconds to minutes, with other tenants' load.  The drift slows all
interpreter work alike: over 100 s on the reference machine the latency of
one hanoi solve swung between 35 and 64 ms (5-second medians) while its
ratio to ``kernel()`` stayed within 1%.  So every timed operation is
bracketed by two kernel runs, and its time is scaled by
``REFERENCE_MS / kernel time`` (see ``speeds``): the milliseconds it would
take at the reference machine's undisturbed speed.  The kernel does not touch the
program, so a change to the program moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

# kernel() on the reference machine (Intel Xeon, 2 vCPUs, CPython 3.11.7)
# when undisturbed: the median of its runs in quiet stretches.
REFERENCE_MS = 2.0


def kernel() -> float:
    """Run the fixed work once; return its wall time in milliseconds.

    Tuple, frozenset and dict churn like the planner's, on ints only, so
    string hash randomization cannot change the work.  The cyclic garbage
    collector is paused meanwhile: its cost grows with the program's heap,
    which is not the machine's speed.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts: dict = {}
        for i in range(4000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            atoms = frozenset((key, i % 7))
            if atoms in counts:
                counts[atoms] += 1
        return (perf_counter() - start) * 1000.0
    finally:
        if paused:
            gc.enable()


def speeds(kernels: list[tuple[float, float]], reach: int = 2) -> list[float]:
    """Scale per operation, from the (before, after) kernel runs of
    consecutive operations: REFERENCE_MS over the median of the runs around
    the operation and its ``reach`` neighbours on each side, so that one
    disturbed kernel run cannot skew an operation."""
    scales = []
    for i in range(len(kernels)):
        window = kernels[max(i - reach, 0) : i + reach + 1]
        scales.append(REFERENCE_MS / median(ms for pair in window for ms in pair))
    return scales
