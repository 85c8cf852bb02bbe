"""Performance harness: deterministic benchmarks for the simulation engine.

``cloudbench bench`` runs micro-benchmarks over the packet pipeline
(sniffer capture, trace queries, TCP transfers, the event queue) and one
macro-benchmark (the default campaign grid), then emits a canonical,
schema-versioned JSON document — ``BENCH_netsim.json`` — whose committed
copy is the performance baseline the CI gate compares against.

The *workloads* are deterministic (pure functions of their parameters);
only the measured rates and the environment block vary between runs, so
two runs differ exactly where a benchmark should: in the numbers.
"""

from repro.perf.benchmarks import BenchmarkResult, default_benchmarks, quick_benchmarks, run_benchmarks
from repro.perf.compare import ComparisonReport, MetricDelta, compare_documents
from repro.perf.document import (
    BENCH_SCHEMA_VERSION,
    build_document,
    load_document,
    strip_measurements,
    write_document,
)
from repro.perf.environment import capture_environment

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchmarkResult",
    "ComparisonReport",
    "MetricDelta",
    "build_document",
    "capture_environment",
    "compare_documents",
    "default_benchmarks",
    "load_document",
    "quick_benchmarks",
    "run_benchmarks",
    "strip_measurements",
    "write_document",
]
