"""Repeat-and-take-the-best timing for benchmark workloads.

``time.perf_counter`` only — monotonic timing is DET003-clean, and the
measured durations land in the benchmark document's per-metric samples,
never in a deterministic results document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = ["RateMeasurement", "measure_rate", "measure_seconds"]


@dataclass(frozen=True)
class RateMeasurement:
    """Units-per-second samples of one benchmark workload."""

    #: Best (highest) rate across the repeats — the reported value.
    best: float
    #: Per-repeat rates, in execution order.
    samples: Tuple[float, ...]
    #: Per-repeat wall time in seconds, in execution order.
    seconds: Tuple[float, ...]


def measure_rate(make_workload: Callable[[], Callable[[], object]], units: float, repeats: int) -> RateMeasurement:
    """Time ``repeats`` fresh executions of a workload processing ``units`` items.

    ``make_workload`` builds the workload from scratch each repeat (so no
    run warms caches for the next beyond what the interpreter itself
    keeps), and only the returned thunk is timed — setup stays outside
    the clock.  The best rate is reported: for a deterministic workload
    the minimum wall time is the least-noisy estimate of the true cost.
    """
    repeats = max(1, repeats)
    rates = []
    seconds = []
    for _ in range(repeats):
        workload = make_workload()
        started = time.perf_counter()
        workload()
        elapsed = time.perf_counter() - started
        elapsed = max(elapsed, 1e-9)
        seconds.append(elapsed)
        rates.append(units / elapsed)
    return RateMeasurement(best=max(rates), samples=tuple(rates), seconds=tuple(seconds))


def measure_seconds(workload: Callable[[], object]) -> float:
    """Wall-clock seconds of one workload execution (for macro benchmarks)."""
    started = time.perf_counter()
    workload()
    return max(time.perf_counter() - started, 1e-9)
