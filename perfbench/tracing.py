"""Span recording around calls into each layer's public functions.

The program itself is not instrumented: :func:`install` replaces the public
entry points of every layer with wrappers defined here.  Each wrapper
records one span (name, start, end, parent, cell key, phase) in memory and
adds its call's work counts (bytes, chunks, hits, ...) to the phase's
counters.  A layer's self time is its spans' durations minus the time
their child spans cover; calls are synchronous and single-threaded at
``--jobs 1``, so child spans nest strictly inside their parent.

The netsim packet, flow-segment, wire-byte and event counts already exist
as :mod:`repro.obs` counters.  They are read by activating a recording
:class:`~repro.obs.tracer.Tracer` (one per cell) while each
:class:`~repro.netsim.simulator.NetworkSimulator` is constructed, since the
simulator captures the active tracer once, at construction.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import zlib
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Self-time checks allow this much float rounding per span, in seconds.
NESTING_TOLERANCE_S = 1e-6

#: obs counter -> per-layer metric, harvested from each cell's tracer.
OBS_COUNTERS = {
    "netsim.packets": "netsim.packets",
    "netsim.flow_segments": "netsim.flow_segments",
    "netsim.wire_bytes": "netsim.wire_bytes",
    "netsim.events.fired": "netsim.events_fired",
}

Count = Callable[[collections.Counter, tuple, object], None]


class SpanRecorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, cell key, phase]``
        self.spans: List[list] = []
        self.counts: Dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        self.phase = "cold"
        self.cell: Optional[str] = None
        self.cell_tracer = None
        self._stack: List[int] = []

    def wrap(self, name: str, function: Callable, count: Optional[Count] = None) -> Callable:
        """``function`` recording one ``name`` span (and its counts) per call."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack
            index = len(recorder.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder.cell, recorder.phase]
            recorder.spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(recorder.counts[recorder.phase], args, result)
            return result

        return traced

    def self_times(self, phase: str) -> Dict[str, float]:
        """Summed self time per span name over ``phase``.

        Raises ``ValueError`` when a span's children cover more than the span
        itself, which would mean overlapping spans and double-counted time.
        """
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _cell, _phase in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = collections.defaultdict(float)
        for index, (name, start, end, _parent, _cell, span_phase) in enumerate(self.spans):
            own = (end - start) - covered[index]
            if own < -NESTING_TOLERANCE_S:
                raise ValueError(f"span {name} #{index}: children cover {-own:.6f} s more than the span")
            if span_phase == phase:
                totals[name] += own
        return dict(totals)

    def write(self, path: str) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "cell", "phase"], "spans": self.spans},
                handle,
                sort_keys=True,
            )


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``.

    Module-level functions are often imported by name (``from x import f``),
    so patching the defining module alone would miss those call sites.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(recorder: SpanRecorder, cls: type, method: str, name: str, count: Optional[Count] = None) -> None:
    setattr(cls, method, recorder.wrap(name, getattr(cls, method), count))


def _patch_function(recorder: SpanRecorder, module, attr: str, name: str, count: Optional[Count] = None) -> None:
    original = getattr(module, attr)
    _rebind(original, recorder.wrap(name, original, count))


def _counting(fields: Dict[str, Callable[[tuple, object], float]]) -> Count:
    """A counter update adding ``fields[metric](args, result)`` to each metric."""

    def count(counts: collections.Counter, args: tuple, result: object) -> None:
        for metric, value in fields.items():
            counts[metric] += value(args, result)

    return count


def _one(args: tuple, result: object) -> int:
    return 1


def _arg_len(position: int) -> Callable[[tuple, object], int]:
    return lambda args, result: len(args[position])


def _file_size(args: tuple, result: object) -> int:
    return os.path.getsize(result)


class _CountingZlib:
    """Stand-in for the ``zlib`` module inside :mod:`repro.sync.compression`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def compress(self, data, *args):
        self._recorder.counts[self._recorder.phase]["sync.compress.zlib_calls"] += 1
        return zlib.compress(data, *args)

    def __getattr__(self, name: str):
        return getattr(zlib, name)


def _generator_count(kind: str) -> Count:
    def count(counts: collections.Counter, args: tuple, result) -> None:
        counts["filegen.calls"] += 1
        counts["filegen.bytes"] += result.size
        counts[f"filegen.{kind}.bytes"] += result.size

    return count


def _literal_bytes(args: tuple, delta) -> int:
    return sum(len(op.data) for op in delta.ops if op.kind.value == "literal")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points to report to ``recorder``."""
    from repro.capture import analysis
    from repro.capture.trace import PacketTrace
    from repro.core import campaign, report, store
    from repro.filegen.binary import RandomBinaryGenerator
    from repro.filegen.jpeg import FakeJPEGGenerator, RandomImageGenerator
    from repro.filegen.text import RandomTextGenerator
    from repro.geo.discovery import DataCenterDiscovery
    from repro.geo.dns import OpenResolver
    from repro.load import population
    from repro.netsim.simulator import NetworkSimulator
    from repro.netsim.tcp import TCPConnection
    from repro.obs.tracer import Tracer, activate
    from repro.services.backend import StorageBackend
    from repro.services.base import CloudStorageClient
    from repro.sync import compression
    from repro.sync.chunking import FixedChunker, NoChunker, VariableChunker
    from repro.sync.delta import DeltaCodec
    from repro.sync.encryption import ConvergentEncryptor
    from repro.testbed.controller import TestbedController

    # filegen: the four content generators.
    for cls, kind in (
        (RandomTextGenerator, "text"),
        (RandomBinaryGenerator, "binary"),
        (FakeJPEGGenerator, "fake_jpeg"),
        (RandomImageGenerator, "image"),
    ):
        _patch_method(recorder, cls, "generate", f"filegen.{kind}", _generator_count(kind))

    # sync: compression (plus every zlib call it makes), delta, chunking,
    # dedup lookups and convergent encryption.
    _patch_method(
        recorder,
        compression.Compressor,
        "process",
        "sync.compress",
        _counting(
            {
                "sync.compress.calls": _one,
                "sync.compress.bytes_in": _arg_len(1),
                "sync.compress.bytes_out": lambda args, result: result.transmitted_size,
                "sync.compress.kept": lambda args, result: int(result.compressed),
            }
        ),
    )
    _patch_method(recorder, compression.Compressor, "compress", "sync.compress", _counting({"sync.compress.calls": _one}))
    compression.zlib = _CountingZlib(recorder)
    _patch_method(recorder, DeltaCodec, "compute_signature", "sync.delta", _counting({"sync.delta.signature_calls": _one}))
    _patch_method(
        recorder,
        DeltaCodec,
        "compute_delta",
        "sync.delta",
        _counting(
            {
                "sync.delta.delta_calls": _one,
                "sync.delta.bytes": _arg_len(1),
                "sync.delta.literal_bytes": _literal_bytes,
            }
        ),
    )
    for cls in (NoChunker, FixedChunker, VariableChunker):
        _patch_method(
            recorder,
            cls,
            "chunk",
            "sync.chunk",
            _counting(
                {
                    "sync.chunk.calls": _one,
                    "sync.chunk.bytes": _arg_len(1),
                    "sync.chunk.chunks": lambda args, result: len(result),
                }
            ),
        )
    _patch_method(
        recorder,
        StorageBackend,
        "has_chunk",
        "sync.dedup",
        _counting({"sync.dedup.lookups": _one, "sync.dedup.hits": lambda args, result: int(bool(result))}),
    )
    _patch_method(
        recorder,
        ConvergentEncryptor,
        "encrypt",
        "sync.encrypt",
        _counting({"sync.encrypt.calls": _one, "sync.encrypt.bytes": _arg_len(1)}),
    )

    # services and testbed.
    _patch_method(
        recorder,
        CloudStorageClient,
        "sync_files",
        "services",
        _counting({"services.sync_calls": _one, "services.files": _arg_len(1)}),
    )
    _patch_method(recorder, TestbedController, "sync_upload", "testbed", _counting({"testbed.uploads": _one}))

    # netsim: connection set-up, request/response exchanges and the
    # background-event loop.
    _patch_method(recorder, NetworkSimulator, "open_connection", "netsim", _counting({"netsim.connections": _one}))
    _patch_method(recorder, TCPConnection, "request", "netsim", _counting({"netsim.http_requests": _one}))
    _patch_method(recorder, NetworkSimulator, "run_until", "netsim")
    simulator_init = NetworkSimulator.__init__

    @functools.wraps(simulator_init)
    def init_under_cell_tracer(self, *args, **kwargs):
        if recorder.cell_tracer is None:
            simulator_init(self, *args, **kwargs)
            return
        with activate(recorder.cell_tracer):
            simulator_init(self, *args, **kwargs)

    NetworkSimulator.__init__ = init_under_cell_tracer

    # capture: trace queries and the analysis functions built on them.
    for method in ("between", "after", "to_hosts", "for_connection", "filter", "payload_packets", "outgoing", "incoming"):
        _patch_method(recorder, PacketTrace, method, "capture", _counting({"capture.queries": _one}))
    for attr in analysis.__all__:
        _patch_function(recorder, analysis, attr, "capture", _counting({"capture.analysis_calls": _one}))

    # geo: front-end discovery and the DNS queries it fans out.
    _patch_method(recorder, DataCenterDiscovery, "discover", "geo", _counting({"geo.discover_calls": _one}))
    _patch_method(recorder, OpenResolver, "query", "geo", _counting({"geo.dns_queries": _one}))

    # load: the fluid population engine.
    _patch_function(
        recorder,
        population,
        "simulate_population",
        "load",
        _counting({"load.cells": _one, "load.sessions": lambda args, result: result.sessions}),
    )

    # core: the result store and the results document.
    _patch_method(
        recorder,
        store.ResultStore,
        "save",
        "store.save",
        _counting({"store.saves": _one, "store.save_bytes": _file_size}),
    )
    _patch_method(
        recorder,
        store.ResultStore,
        "load",
        "store.load",
        _counting({"store.loads": _one, "store.hits": lambda args, result: int(result is not None)}),
    )
    _patch_function(recorder, campaign, "results_document", "report")
    _patch_function(recorder, report, "write_json", "report")

    # Cell context: spans carry the cell key, and each cell's simulators
    # report to a fresh recording tracer whose counters are harvested here.
    run_cell = campaign.run_cell

    @functools.wraps(run_cell)
    def run_cell_in_context(cell, *args, **kwargs):
        recorder.cell = cell.key
        recorder.cell_tracer = Tracer(label=cell.key)
        try:
            return run_cell(cell, *args, **kwargs)
        finally:
            counters = recorder.cell_tracer.metrics.snapshot().get("counters", {})
            for counter, metric in OBS_COUNTERS.items():
                recorder.counts[recorder.phase][metric] += counters.get(counter, 0)
            recorder.cell = None
            recorder.cell_tracer = None

    campaign.run_cell = run_cell_in_context
