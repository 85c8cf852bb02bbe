"""Per-layer metrics of the traced run, and what each one should move.

Layers are the program's modules: ``filegen``, ``sync`` (chunk, compress,
delta, dedup, encrypt), ``services``, ``testbed``, ``netsim``,
``capture``, ``geo``, ``load`` and ``core`` (campaign stages, store,
report).  Every per-layer metric in ``BENCHMARK.json`` has an entry in
:data:`EXPECTATIONS` naming the end-to-end metric a cut in that layer should
move, and the workloads where it should move; ``run.py --self-check``
enforces that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

STAGES = ("capabilities", "idle", "datacenters", "syn_series", "delta", "compression", "performance", "load")

#: Self-time metrics of the traced cold run, and the span names each sums.
#: ``trace.unattributed_s`` is the traced campaign wall minus their sum: the
#: time spent outside every wrapped entry point (experiment and harness glue).
SELF_TIME_METRICS = {
    "filegen.self_s": ("filegen.text", "filegen.binary", "filegen.fake_jpeg", "filegen.image"),
    "sync.compress.self_s": ("sync.compress",),
    "sync.delta.self_s": ("sync.delta",),
    "sync.chunk.self_s": ("sync.chunk",),
    "sync.dedup.self_s": ("sync.dedup",),
    "sync.encrypt.self_s": ("sync.encrypt",),
    "services.self_s": ("services",),
    "testbed.self_s": ("testbed",),
    "netsim.self_s": ("netsim",),
    "capture.self_s": ("capture",),
    "geo.self_s": ("geo",),
    "load.self_s": ("load",),
    "store.save_s": ("store.save",),
    "store.probe_s": ("store.load",),
    "report.document_s": ("report",),
}

#: Spans nest inside the traced wall, so the self times may exceed it by
#: float rounding only: ``trace.unattributed_s`` must be at least minus this.
TRACED_WALL_TOLERANCE_S = 1e-3

#: Prefix -> (end-to-end metrics a cut in that layer should move, the
#: workloads where they should move).  "failed" is the result's failed
#: count; "none" marks the benchmark's own self-checks.  The longest
#: matching prefix applies.
PAPER, NETSIM, BOTH = ("paper-grid",), ("netsim-load",), ("paper-grid", "netsim-load")
EXPECTATIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "filegen": (("campaign_wall_s", "campaign_cpu_s"), PAPER),
    "sync.compress": (("campaign_wall_s",), BOTH),
    "sync.delta": (("campaign_wall_s",), PAPER),
    "sync.chunk": (("campaign_wall_s",), BOTH),
    "sync.dedup": (("campaign_wall_s",), BOTH),
    "sync.encrypt": (("campaign_wall_s",), BOTH),
    "services": (("campaign_wall_s",), NETSIM),
    "testbed": (("campaign_wall_s",), NETSIM),
    "netsim": (("campaign_wall_s",), NETSIM),
    "capture": (("campaign_wall_s",), NETSIM),
    "geo": (("campaign_wall_s",), NETSIM),
    "load": (("campaign_wall_s", "peak_rss_mb"), NETSIM),
    "store": (("campaign_wall_s",), BOTH),
    "report": (("campaign_wall_s",), BOTH),
    "setup": (("setup_s",), BOTH),
    "trace": (("none",), BOTH),
    "campaign": (("failed",), BOTH),
    # paper-grid plans every stage; netsim-load plans all but three.
    **{
        f"stage.{stage}": (
            ("campaign_wall_s", "failed"),
            PAPER if stage in ("capabilities", "delta", "compression") else BOTH,
        )
        for stage in STAGES
    },
}


def expectation(metric: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The (moves, workloads) entry for ``metric``; ``KeyError`` if none."""
    matches = [prefix for prefix in EXPECTATIONS if metric == prefix or metric.startswith(prefix + ".")]
    if not matches:
        raise KeyError(metric)
    return EXPECTATIONS[max(matches, key=len)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(untraced: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics from an untraced and a traced worker record (``worker.py``)."""
    counts = traced["counts"]
    warm_counts = traced["warm_counts"]
    spans = traced["self_s"]
    metrics: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(spans.get(name, 0.0) for name in names)

    def count(name: str) -> float:
        return counts.get(name, 0)

    for name in (
        "filegen.calls", "filegen.bytes",
        "sync.compress.calls", "sync.compress.zlib_calls", "sync.compress.bytes_in", "sync.compress.bytes_out",
        "sync.delta.signature_calls", "sync.delta.delta_calls", "sync.delta.bytes", "sync.delta.literal_bytes",
        "sync.chunk.calls", "sync.chunk.bytes", "sync.chunk.chunks",
        "sync.dedup.lookups", "sync.dedup.hits",
        "sync.encrypt.calls", "sync.encrypt.bytes",
        "services.sync_calls", "services.files",
        "testbed.uploads",
        "netsim.connections", "netsim.http_requests", "netsim.packets", "netsim.flow_segments",
        "netsim.wire_bytes", "netsim.events_fired",
        "capture.queries", "capture.analysis_calls",
        "geo.discover_calls", "geo.dns_queries",
        "load.cells", "load.sessions",
        "store.saves", "store.save_bytes",
    ):
        metrics[name] = count(name)
    for kind in ("text", "binary", "fake_jpeg", "image"):
        metrics[f"filegen.{kind}.bytes"] = count(f"filegen.{kind}.bytes")
        metrics[f"filegen.{kind}.self_s"] = spans.get(f"filegen.{kind}", 0.0)
    metrics["filegen.mb_per_s"] = _ratio(count("filegen.bytes") / 1e6, metrics["filegen.self_s"])
    metrics["sync.compress.useful_ratio"] = _ratio(count("sync.compress.kept"), count("sync.compress.zlib_calls"))
    metrics["sync.compress.mb_per_s"] = _ratio(count("sync.compress.bytes_in") / 1e6, metrics["sync.compress.self_s"])
    metrics["sync.dedup.hit_ratio"] = _ratio(count("sync.dedup.hits"), count("sync.dedup.lookups"))
    metrics["netsim.host_ns_per_packet"] = _ratio(metrics["netsim.self_s"] * 1e9, count("netsim.packets"))
    metrics["load.sessions_per_s"] = _ratio(count("load.sessions"), metrics["load.self_s"])

    # Store reads are measured on the warm resume, where every cell is a hit.
    metrics["store.loads"] = warm_counts.get("store.loads", 0)
    metrics["store.hits"] = warm_counts.get("store.hits", 0)
    metrics["store.load_s"] = traced["warm_self_s"].get("store.load", 0.0)
    metrics["store.hit_ratio"] = _ratio(metrics["store.hits"], metrics["store.loads"])

    # Per-stage walls come from the untraced run's per-cell wall_seconds.
    for stage in STAGES:
        cells = [cell for cell in untraced["cells"] if cell[0] == stage]
        metrics[f"stage.{stage}.wall_s"] = sum(cell[1] for cell in cells)
        metrics[f"stage.{stage}.cells"] = len(cells)
        metrics[f"stage.{stage}.failed"] = sum(1 for cell in cells if cell[2])
    metrics["campaign.cell_failure_ratio"] = _ratio(
        sum(1 for cell in untraced["cells"] if cell[2]), len(untraced["cells"])
    )

    metrics["setup.import_s"] = untraced["import_s"]
    metrics["setup.plan_s"] = untraced["plan_s"]
    metrics["report.document_bytes"] = untraced["document_bytes"]
    metrics["trace.unattributed_s"] = traced["wall_s"] - sum(metrics[name] for name in SELF_TIME_METRICS)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return metrics


def metric_names() -> List[str]:
    """Every per-layer metric name :func:`per_layer_metrics` reports, sorted."""
    sample = {
        "counts": {}, "warm_counts": {}, "self_s": {}, "warm_self_s": {},
        "wall_s": 1.0, "cells": [], "import_s": 0.0, "plan_s": 0.0, "document_bytes": 0,
    }
    return sorted(per_layer_metrics(sample, sample))
