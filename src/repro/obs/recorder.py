"""Flight recorder documents: serializing tracers into canonical dicts.

Two document kinds, both canonical JSON (sorted keys) when written:

* ``cloudbench-flight-record`` — one cell's trace.  The deterministic
  half (``sim`` spans, ``metrics``) is a pure function of the cell
  identity; the ``wall`` half (harness timings, wall context, failure
  detail) is run-specific and stripped by :func:`strip_wall` before any
  byte-identity comparison.
* ``cloudbench-trace`` — a whole campaign: the flight records of every
  cell in plan order plus an optional run-specific ``harness`` section
  (parent-process wall spans and store/claim metrics).

:func:`strip_wall` is the trace analogue of
``repro.perf.document.strip_measurements``: what survives it must be
byte-identical across ``--jobs N``, seed order and shard+merge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.wallclock import utc_timestamp

__all__ = [
    "FLIGHT_RECORD_KIND",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "cell_flight_record",
    "harness_record",
    "campaign_trace_document",
    "strip_wall",
]

FLIGHT_RECORD_KIND = "cloudbench-flight-record"
TRACE_KIND = "cloudbench-trace"
TRACE_SCHEMA_VERSION = 1


def cell_flight_record(tracer, cell, *, failure: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Serialize one cell's tracer into a flight record document.

    ``cell`` is a :class:`repro.core.campaign.CampaignCell` (duck-typed to
    avoid an import cycle: obs must stay importable from every layer).
    """
    wall: Dict[str, object] = {
        "context": {"timestamp_utc": utc_timestamp()},
        "spans": [span.to_dict() for span in tracer.wall_spans],
    }
    if failure is not None:
        wall["failure"] = failure
    return {
        "kind": FLIGHT_RECORD_KIND,
        "schema": TRACE_SCHEMA_VERSION,
        "cell": {
            "stage": cell.stage,
            "service": cell.service,
            "unit": cell.unit,
            "seed": cell.seed,
            "key": cell.key,
        },
        "sim": {
            "tracks": list(tracer.tracks),
            "spans": [span.to_dict() for span in tracer.sim_spans],
        },
        "metrics": tracer.metrics.snapshot() if tracer.metrics is not None else {},
        "wall": wall,
    }


def harness_record(tracer) -> Dict[str, object]:
    """Serialize a parent-process tracer (all run-specific, always stripped)."""
    return {
        "context": {"timestamp_utc": utc_timestamp()},
        "spans": [span.to_dict() for span in tracer.wall_spans],
        "metrics": tracer.metrics.snapshot() if tracer.metrics is not None else {},
    }


def campaign_trace_document(
    records: Sequence[Dict[str, object]], *, harness: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Assemble the campaign-level trace document (cells in plan order)."""
    document: Dict[str, object] = {
        "kind": TRACE_KIND,
        "schema": TRACE_SCHEMA_VERSION,
        "cells": list(records),
    }
    if harness is not None:
        document["harness"] = harness
    return document


def strip_wall(document: Dict[str, object]) -> Dict[str, object]:
    """The document with every run-specific part removed.

    Flight records lose their ``wall`` half; trace documents lose the
    ``harness`` section and strip each cell.  What remains — sim spans,
    tracks, deterministic metrics — must agree byte-for-byte between any
    two runs of the same plan, whatever the jobs count or shard topology.
    """
    kind = document.get("kind")
    if kind == TRACE_KIND:
        cells = document.get("cells")
        stripped_cells: List[Dict[str, object]] = []
        if isinstance(cells, list):
            stripped_cells = [strip_wall(cell) for cell in cells]
        return {
            "kind": kind,
            "schema": document.get("schema"),
            "cells": stripped_cells,
        }
    stripped = {key: value for key, value in document.items() if key != "wall"}
    return stripped
