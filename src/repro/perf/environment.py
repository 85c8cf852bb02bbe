"""Execution-environment capture for benchmark documents.

Benchmark *numbers* are measurement, not simulation, so the run
timestamp (from :mod:`repro.wallclock`) belongs in the document's
environment block — which :func:`repro.perf.document.strip_measurements`
removes before any byte-level determinism comparison.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict

from repro.wallclock import utc_timestamp

__all__ = ["capture_environment"]


def capture_environment() -> Dict[str, object]:
    """Describe the machine and interpreter a benchmark run executed on.

    Everything here is run-specific context for a human reading the
    document; none of it participates in regression comparison.
    """
    return {
        "timestamp_utc": utc_timestamp(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "executable": os.path.basename(sys.executable),
    }
