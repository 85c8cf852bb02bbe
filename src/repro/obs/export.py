"""Trace exporters: canonical JSON and Chrome trace-event (Perfetto).

Canonical JSON (:func:`repro.specio.canonical_text`) is the diffable
form — sorted keys like the benchmark document, because a trace is a
key-value report with no golden-pinned field order.  The Chrome
trace-event form targets ``https://ui.perfetto.dev`` /
``chrome://tracing``: each cell becomes a process (pid = plan index +
1), each simulator track a thread, with the wall domain on thread 0; the
optional harness section becomes pid 0.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.recorder import FLIGHT_RECORD_KIND, TRACE_KIND
from repro.specio import canonical_text

__all__ = ["chrome_trace", "write_trace"]

#: Chrome trace-event timestamps are microseconds.
_MICROS = 1_000_000.0


def write_trace(path: str, document: Dict[str, object]) -> str:
    """Write a trace document as canonical JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_text(document))
    return path


def _meta_event(pid: int, tid: int, name: str, value: str) -> Dict[str, object]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": name, "args": {"name": value}}


def _complete_event(span: Dict[str, object], *, pid: int, tid: int, cat: str) -> Dict[str, object]:
    event: Dict[str, object] = {
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "cat": cat,
        "name": span.get("name", ""),
        "ts": float(span.get("start", 0.0)) * _MICROS,
        "dur": (float(span.get("end", 0.0)) - float(span.get("start", 0.0))) * _MICROS,
    }
    attrs = span.get("attrs")
    if attrs:
        event["args"] = attrs
    return event


def _cell_events(record: Dict[str, object], pid: int) -> List[Dict[str, object]]:
    cell = record.get("cell", {})
    label = cell.get("key") if isinstance(cell, dict) else None
    events: List[Dict[str, object]] = [_meta_event(pid, 0, "process_name", str(label or f"cell-{pid}"))]
    events.append(_meta_event(pid, 0, "thread_name", "wall"))
    sim = record.get("sim", {})
    tracks = sim.get("tracks", []) if isinstance(sim, dict) else []
    for index, track in enumerate(tracks):
        events.append(_meta_event(pid, index + 1, "thread_name", str(track)))
    for span in sim.get("spans", []) if isinstance(sim, dict) else []:
        events.append(_complete_event(span, pid=pid, tid=int(span.get("track", 0)) + 1, cat="sim"))
    wall = record.get("wall", {})
    for span in wall.get("spans", []) if isinstance(wall, dict) else []:
        events.append(_complete_event(span, pid=pid, tid=0, cat="wall"))
    return events


def chrome_trace(document: Dict[str, object]) -> Dict[str, object]:
    """Convert a trace or flight-record document to Chrome trace-event form."""
    kind = document.get("kind")
    if kind == FLIGHT_RECORD_KIND:
        records = [document]
        harness = None
    elif kind == TRACE_KIND:
        records = [cell for cell in document.get("cells", []) if isinstance(cell, dict)]
        harness = document.get("harness")
    else:
        records = []
        harness = None
    events: List[Dict[str, object]] = []
    if isinstance(harness, dict):
        events.append(_meta_event(0, 0, "process_name", "harness"))
        for span in harness.get("spans", []):
            events.append(_complete_event(span, pid=0, tid=0, cat="harness"))
    for index, record in enumerate(records):
        events.extend(_cell_events(record, index + 1))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
