"""The program's one sanctioned home for the wall clock.

DET003 bans wall clocks from library code because a timestamp that leaks
into a results document breaks byte-identity across runs.  A few places
need real time all the same, and every one of them reads it here:

* :mod:`repro.dist.claims` — lease ages and the ``acquired_at`` stamp of
  the work-stealing board (heartbeats are file mtimes);
* :mod:`repro.core.store` — the ``older_than`` cutoff of the store's TTL
  garbage collection;
* :mod:`repro.obs.recorder` — the wall half of a flight record, stripped
  by :func:`repro.obs.recorder.strip_wall` before any comparison;
* :mod:`repro.perf.environment` — the run timestamp of a benchmark
  document, removed by :func:`repro.perf.document.strip_measurements`.

None of these values reaches a deterministic document.  This file is the
only entry in ``WallClockRule.allowlist`` (:mod:`repro.analysis.rules.det`);
monotonic timing (``time.perf_counter``) stays legal everywhere.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

__all__ = ["now", "utc_timestamp"]


def now() -> float:
    """Seconds since the epoch, comparable with file mtimes."""
    return time.time()


def utc_timestamp() -> str:
    """The current UTC time as ``YYYY-MM-DDTHH:MM:SSZ``."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
