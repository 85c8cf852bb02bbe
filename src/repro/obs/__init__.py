"""``repro.obs`` — the observability layer: tracing, metrics, flight records.

Two clock domains with opposite determinism contracts:

* **sim** spans and simulation-driven metrics are pure functions of the
  cell identity — byte-identical across ``--jobs N``, seed order and
  shard+merge, golden-testable like the results documents;
* **wall** spans and harness metrics are run-specific profiling,
  stripped by :func:`~repro.obs.recorder.strip_wall` before any
  byte-identity comparison.

Hot paths pay one attribute test when tracing is off
(:data:`~repro.obs.tracer.NULL_TRACER` is the default active tracer).
The trace CLI lives in :mod:`repro.obs.cli`, imported only by the
``cloudbench trace`` dispatch.
"""

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import (
    FLIGHT_RECORD_KIND,
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    campaign_trace_document,
    cell_flight_record,
    harness_record,
    strip_wall,
)
from repro.obs.export import chrome_trace, write_trace
from repro.obs.logconfig import configure_logging
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activate,
    current_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "activate",
    "FLIGHT_RECORD_KIND",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "cell_flight_record",
    "harness_record",
    "campaign_trace_document",
    "strip_wall",
    "chrome_trace",
    "write_trace",
    "configure_logging",
]
