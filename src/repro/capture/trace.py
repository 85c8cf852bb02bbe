"""Packet traces: ordered collections of captured packets with filtering.

The trace is stored *columnar* (struct-of-arrays): one list per packet
field, kept in capture order and lazily re-ordered by timestamp when a
time-sensitive accessor needs it.  ``packets``, ``__iter__`` and
``__getitem__`` materialize :class:`~repro.netsim.packet.Packet` views on
demand (and cache them), while filters and aggregates work directly on the
columns:

* ``between``/``after`` bisect the sorted timestamp column instead of
  scanning every packet;
* ``for_connection``/``to_hosts`` use lazily built per-connection and
  per-hostname index maps;
* byte/payload totals are column sums that never build a ``Packet``.

Control packets (handshakes, FINs, ACK aggregates) arrive one at a time
via :meth:`PacketTrace.append`.

Flow segments
-------------

Every data burst arrives via :meth:`PacketTrace.extend_flow` as one
:class:`~repro.netsim.packet.FlowSegment`.  A segment occupies a *single
row* of the columns — its timestamp is its first record's, its
payload/header cells hold the exact aggregate totals of its records — plus
an entry in the parallel ``_seg`` column.  Row-preserving filters
(``to_hosts``, ``for_connection``, ``outgoing`` …) and byte aggregates
therefore work without expanding bursts; window filters
(``between``/``after``) narrow straddling segments with
:meth:`FlowSegment.subrange` and keep them as segments too.

Per-packet accessors (``packets``, iteration, ``filter``,
``sorted_columns``) call :meth:`PacketTrace._materialize`, which expands
every segment with the canonical burst loop and re-sorts by ``(timestamp,
capture ordinal)``.  Each row carries a capture ordinal; a segment row
reserves one ordinal per record, so the materialized order is the one a
per-record capture would have produced — bit-exact timestamps, sizes and
addresses (see ``tests/test_properties.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from repro.netsim.packet import FlowSegment, Packet, PacketDirection

__all__ = ["PacketTrace", "TraceColumns"]


class TraceColumns(NamedTuple):
    """Read-only struct-of-arrays view of a trace, sorted by timestamp.

    The analysis fast paths iterate these parallel lists instead of
    materialized :class:`Packet` objects.  Callers must not mutate them.
    """

    timestamps: List[float]
    sources: List[str]
    destinations: List[str]
    source_ports: List[int]
    destination_ports: List[int]
    directions: List[PacketDirection]
    flags: List[object]
    payload_lens: List[int]
    headers_lens: List[int]
    protocols: List[str]
    connection_ids: List[int]
    hostnames: List[str]
    notes: List[str]


def _first_record_at_or_after(segment: FlowSegment, timestamp: float) -> int:
    """Smallest record index of ``segment`` whose timestamp is ``>= timestamp``."""
    lo, hi = segment.first_record, segment.last_record
    while lo < hi:
        mid = (lo + hi) // 2
        if segment.record_timestamp(mid) < timestamp:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _first_record_after(segment: FlowSegment, timestamp: float) -> int:
    """Smallest record index of ``segment`` whose timestamp is ``> timestamp``."""
    lo, hi = segment.first_record, segment.last_record
    while lo < hi:
        mid = (lo + hi) // 2
        if segment.record_timestamp(mid) <= timestamp:
            lo = mid + 1
        else:
            hi = mid
    return lo


class PacketTrace:
    """An append-only, time-ordered view over captured packets.

    Packets are appended by the sniffer in emission order; because background
    events and asynchronous FIN packets may be stamped slightly out of order,
    accessors sort lazily by timestamp when needed.  The sort is stable:
    packets sharing a timestamp keep their capture order, exactly like the
    row-oriented implementation this replaces.  Capture order is tracked
    explicitly per row as an *ordinal* so that lazily expanded flow segments
    sort into exactly the position their packets would have occupied had
    each been captured on its own.
    """

    __slots__ = (
        "_ts",
        "_src",
        "_dst",
        "_sport",
        "_dport",
        "_dir",
        "_flags",
        "_payload",
        "_headers",
        "_proto",
        "_conn",
        "_host",
        "_note",
        "_seg",
        "_ord",
        "_segn",
        "_seg_extra",
        "_next_ord",
        "_sorted",
        "_views",
        "_conn_index",
        "_host_index",
    )

    def __init__(self, packets: Optional[Iterable[Packet]] = None) -> None:
        self._ts: List[float] = []
        self._src: List[str] = []
        self._dst: List[str] = []
        self._sport: List[int] = []
        self._dport: List[int] = []
        self._dir: List[PacketDirection] = []
        self._flags: List[object] = []
        self._payload: List[int] = []
        self._headers: List[int] = []
        self._proto: List[str] = []
        self._conn: List[int] = []
        self._host: List[str] = []
        self._note: List[str] = []
        #: Parallel column of flow segments (``None`` for packet rows).
        self._seg: List[Optional[FlowSegment]] = []
        #: Capture ordinal of each row; segment rows reserve one ordinal per
        #: record so expansion can restore the per-record capture order.
        self._ord: List[int] = []
        self._segn = 0
        self._seg_extra = 0
        self._next_ord = 0
        self._sorted = True
        self._views: Optional[List[Packet]] = None
        self._conn_index: Optional[Dict[int, List[int]]] = None
        self._host_index: Optional[Dict[str, List[int]]] = None
        if packets is not None:
            self.extend(packets)

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def append(self, packet: Packet) -> None:
        """Add one packet to the trace."""
        if self._sorted and self._ts and packet.timestamp < self._ts[-1]:
            self._sorted = False
        self._ts.append(packet.timestamp)
        self._src.append(packet.src)
        self._dst.append(packet.dst)
        self._sport.append(packet.src_port)
        self._dport.append(packet.dst_port)
        self._dir.append(packet.direction)
        self._flags.append(packet.flags)
        self._payload.append(packet.payload_len)
        self._headers.append(packet.headers_len)
        self._proto.append(packet.protocol)
        self._conn.append(packet.connection_id)
        self._host.append(packet.hostname)
        self._note.append(packet.note)
        self._seg.append(None)
        self._ord.append(self._next_ord)
        self._next_ord += 1
        self._views = None
        self._conn_index = None
        self._host_index = None

    def extend(self, packets: Iterable[Packet]) -> None:
        """Add several packets to the trace."""
        for packet in packets:
            self.append(packet)

    def extend_flow(self, segment: FlowSegment) -> None:
        """Append one data burst as a single trace row.

        The row's timestamp is the segment's first record's; the
        payload/header cells hold the exact aggregate byte totals of its
        records, so byte sums over the columns stay exact without expansion.
        The segment reserves one capture ordinal per record, preserving the
        per-record capture order for later expansion.
        """
        count = segment.record_count
        if count == 0:
            return
        self._append_segment_row(segment, self._next_ord)
        self._next_ord += count
        ts = self._ts
        if self._sorted and len(ts) > 1 and ts[-1] < ts[-2]:
            self._sorted = False
        self._views = None
        self._conn_index = None
        self._host_index = None

    def _append_segment_row(self, segment: FlowSegment, ordinal: int) -> None:
        """Append ``segment`` as one row: its 13 columns, the segment and ``ordinal``."""
        self._ts.append(segment.first_timestamp)
        self._src.append(segment.src)
        self._dst.append(segment.dst)
        self._sport.append(segment.src_port)
        self._dport.append(segment.dst_port)
        self._dir.append(segment.direction)
        self._flags.append(segment.flags)
        self._payload.append(segment.payload_bytes)
        self._headers.append(segment.header_bytes)
        self._proto.append(segment.protocol)
        self._conn.append(segment.connection_id)
        self._host.append(segment.hostname)
        self._note.append(segment.note)
        self._seg.append(segment)
        self._ord.append(ordinal)
        self._segn += 1
        self._seg_extra += segment.record_count - 1

    def __len__(self) -> int:
        """Logical packet count (segments count every record)."""
        return len(self._ts) + self._seg_extra

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, index):
        return self.packets[index]

    @property
    def packets(self) -> Sequence[Packet]:
        """Packets sorted by capture timestamp (lazily materialized views)."""
        if self._views is None:
            self._materialize()
            self._ensure_sorted()
            self._views = [
                Packet(
                    timestamp=timestamp,
                    src=src,
                    dst=dst,
                    src_port=sport,
                    dst_port=dport,
                    direction=direction,
                    flags=flags,
                    payload_len=payload,
                    headers_len=headers,
                    protocol=protocol,
                    connection_id=connection_id,
                    hostname=hostname,
                    note=note,
                )
                for (
                    timestamp,
                    src,
                    dst,
                    sport,
                    dport,
                    direction,
                    flags,
                    payload,
                    headers,
                    protocol,
                    connection_id,
                    hostname,
                    note,
                ) in zip(
                    self._ts,
                    self._src,
                    self._dst,
                    self._sport,
                    self._dport,
                    self._dir,
                    self._flags,
                    self._payload,
                    self._headers,
                    self._proto,
                    self._conn,
                    self._host,
                    self._note,
                )
            ]
        return self._views

    def is_empty(self) -> bool:
        """True when no packets were captured."""
        return not self._ts

    # ------------------------------------------------------------------ #
    # Columnar internals
    # ------------------------------------------------------------------ #
    def _materialize(self) -> None:
        """Expand every flow segment into plain packet rows, in capture order.

        Expansion reruns the canonical burst loop per segment (bit-identical
        floats and byte counts) and sorts all rows by ``(timestamp, capture
        ordinal)`` — exactly the stable-by-timestamp order of a per-record
        capture.
        """
        if self._segn == 0:
            return
        ts: List[float] = []
        src: List[str] = []
        dst: List[str] = []
        sport: List[int] = []
        dport: List[int] = []
        dirs: List[PacketDirection] = []
        flags: List[object] = []
        payload: List[int] = []
        headers: List[int] = []
        proto: List[str] = []
        conn: List[int] = []
        host: List[str] = []
        note: List[str] = []
        ords: List[int] = []
        for pos, segment in enumerate(self._seg):
            if segment is None:
                ts.append(self._ts[pos])
                src.append(self._src[pos])
                dst.append(self._dst[pos])
                sport.append(self._sport[pos])
                dport.append(self._dport[pos])
                dirs.append(self._dir[pos])
                flags.append(self._flags[pos])
                payload.append(self._payload[pos])
                headers.append(self._headers[pos])
                proto.append(self._proto[pos])
                conn.append(self._conn[pos])
                host.append(self._host[pos])
                note.append(self._note[pos])
                ords.append(self._ord[pos])
            else:
                seg_ts, seg_payload, seg_headers = segment.expand_columns()
                count = len(seg_ts)
                ts.extend(seg_ts)
                payload.extend(seg_payload)
                headers.extend(seg_headers)
                src.extend(repeat(segment.src, count))
                dst.extend(repeat(segment.dst, count))
                sport.extend(repeat(segment.src_port, count))
                dport.extend(repeat(segment.dst_port, count))
                dirs.extend(repeat(segment.direction, count))
                flags.extend(repeat(segment.flags, count))
                proto.extend(repeat(segment.protocol, count))
                conn.extend(repeat(segment.connection_id, count))
                host.extend(repeat(segment.hostname, count))
                note.extend(repeat(segment.note, count))
                base = self._ord[pos]
                ords.extend(range(base, base + count))
        order = sorted(range(len(ts)), key=lambda i: (ts[i], ords[i]))
        self._ts = [ts[i] for i in order]
        self._src = [src[i] for i in order]
        self._dst = [dst[i] for i in order]
        self._sport = [sport[i] for i in order]
        self._dport = [dport[i] for i in order]
        self._dir = [dirs[i] for i in order]
        self._flags = [flags[i] for i in order]
        self._payload = [payload[i] for i in order]
        self._headers = [headers[i] for i in order]
        self._proto = [proto[i] for i in order]
        self._conn = [conn[i] for i in order]
        self._host = [host[i] for i in order]
        self._note = [note[i] for i in order]
        self._seg = [None] * len(order)
        self._ord = [ords[i] for i in order]
        self._segn = 0
        self._seg_extra = 0
        self._sorted = True
        self._views = None
        self._conn_index = None
        self._host_index = None

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        ts = self._ts
        ordinals = self._ord
        order = sorted(range(len(ts)), key=lambda i: (ts[i], ordinals[i]))
        self._ts = [ts[i] for i in order]
        self._src = [self._src[i] for i in order]
        self._dst = [self._dst[i] for i in order]
        self._sport = [self._sport[i] for i in order]
        self._dport = [self._dport[i] for i in order]
        self._dir = [self._dir[i] for i in order]
        self._flags = [self._flags[i] for i in order]
        self._payload = [self._payload[i] for i in order]
        self._headers = [self._headers[i] for i in order]
        self._proto = [self._proto[i] for i in order]
        self._conn = [self._conn[i] for i in order]
        self._host = [self._host[i] for i in order]
        self._note = [self._note[i] for i in order]
        self._seg = [self._seg[i] for i in order]
        self._ord = [ordinals[i] for i in order]
        self._sorted = True
        self._views = None
        self._conn_index = None
        self._host_index = None

    def sorted_columns(self) -> TraceColumns:
        """The trace as parallel per-packet columns, sorted by timestamp.

        Forces flow-segment expansion: every burst record becomes its own
        row, in capture order.
        """
        self._materialize()
        self._ensure_sorted()
        return TraceColumns(
            self._ts,
            self._src,
            self._dst,
            self._sport,
            self._dport,
            self._dir,
            self._flags,
            self._payload,
            self._headers,
            self._proto,
            self._conn,
            self._host,
            self._note,
        )

    def segment_columns(self) -> TraceColumns:
        """The trace rows as columns *without* expanding flow segments.

        Segments appear as one row each: the timestamp is the first
        record's and the payload/header cells are the exact aggregate
        totals of the range.  Aggregate analyses (flag counts, per-host byte
        sums, SYN series) read these columns so they never expand a burst.
        Per-packet fields of a segment row describe the range, not an
        individual packet — use
        :meth:`sorted_columns` when record granularity matters.
        """
        self._ensure_sorted()
        return TraceColumns(
            self._ts,
            self._src,
            self._dst,
            self._sport,
            self._dport,
            self._dir,
            self._flags,
            self._payload,
            self._headers,
            self._proto,
            self._conn,
            self._host,
            self._note,
        )

    def _blank(self) -> "PacketTrace":
        """A new empty trace sharing this trace's ordinal horizon."""
        trace = PacketTrace.__new__(PacketTrace)
        trace._ts = []
        trace._src = []
        trace._dst = []
        trace._sport = []
        trace._dport = []
        trace._dir = []
        trace._flags = []
        trace._payload = []
        trace._headers = []
        trace._proto = []
        trace._conn = []
        trace._host = []
        trace._note = []
        trace._seg = []
        trace._ord = []
        trace._segn = 0
        trace._seg_extra = 0
        trace._next_ord = self._next_ord
        trace._sorted = True
        trace._views = None
        trace._conn_index = None
        trace._host_index = None
        return trace

    def _slice(self, lo: int, hi: int) -> "PacketTrace":
        """A new trace from a contiguous range of the sorted columns."""
        trace = PacketTrace.__new__(PacketTrace)
        trace._ts = self._ts[lo:hi]
        trace._src = self._src[lo:hi]
        trace._dst = self._dst[lo:hi]
        trace._sport = self._sport[lo:hi]
        trace._dport = self._dport[lo:hi]
        trace._dir = self._dir[lo:hi]
        trace._flags = self._flags[lo:hi]
        trace._payload = self._payload[lo:hi]
        trace._headers = self._headers[lo:hi]
        trace._proto = self._proto[lo:hi]
        trace._conn = self._conn[lo:hi]
        trace._host = self._host[lo:hi]
        trace._note = self._note[lo:hi]
        trace._seg = self._seg[lo:hi]
        trace._ord = self._ord[lo:hi]
        trace._segn = 0
        trace._seg_extra = 0
        if self._segn:
            for segment in trace._seg:
                if segment is not None:
                    trace._segn += 1
                    trace._seg_extra += segment.record_count - 1
        trace._next_ord = self._next_ord
        trace._sorted = True
        trace._views = None
        trace._conn_index = None
        trace._host_index = None
        return trace

    def _select(self, indices: Sequence[int]) -> "PacketTrace":
        """A new trace from ascending positions of the sorted columns."""
        count = len(indices)
        if count == 0:
            return self._slice(0, 0)
        lo = indices[0]
        hi = indices[count - 1]
        if hi - lo + 1 == count:
            # Ascending with no gaps: a contiguous run (e.g. a connection
            # whose packets were not interleaved) — slice at C speed.
            return self._slice(lo, hi + 1)
        trace = PacketTrace.__new__(PacketTrace)
        trace._ts = list(map(self._ts.__getitem__, indices))
        trace._src = list(map(self._src.__getitem__, indices))
        trace._dst = list(map(self._dst.__getitem__, indices))
        trace._sport = list(map(self._sport.__getitem__, indices))
        trace._dport = list(map(self._dport.__getitem__, indices))
        trace._dir = list(map(self._dir.__getitem__, indices))
        trace._flags = list(map(self._flags.__getitem__, indices))
        trace._payload = list(map(self._payload.__getitem__, indices))
        trace._headers = list(map(self._headers.__getitem__, indices))
        trace._proto = list(map(self._proto.__getitem__, indices))
        trace._conn = list(map(self._conn.__getitem__, indices))
        trace._host = list(map(self._host.__getitem__, indices))
        trace._note = list(map(self._note.__getitem__, indices))
        trace._seg = list(map(self._seg.__getitem__, indices))
        trace._ord = list(map(self._ord.__getitem__, indices))
        trace._segn = 0
        trace._seg_extra = 0
        if self._segn:
            for segment in trace._seg:
                if segment is not None:
                    trace._segn += 1
                    trace._seg_extra += segment.record_count - 1
        trace._next_ord = self._next_ord
        trace._sorted = True
        trace._views = None
        trace._conn_index = None
        trace._host_index = None
        return trace

    def _connection_index(self) -> Dict[int, List[int]]:
        if self._conn_index is None:
            self._ensure_sorted()
            index: Dict[int, List[int]] = {}
            for position, connection_id in enumerate(self._conn):
                bucket = index.get(connection_id)
                if bucket is None:
                    index[connection_id] = [position]
                else:
                    bucket.append(position)
            self._conn_index = index
        return self._conn_index

    def _hostname_index(self) -> Dict[str, List[int]]:
        if self._host_index is None:
            self._ensure_sorted()
            index: Dict[str, List[int]] = {}
            for position, hostname in enumerate(self._host):
                bucket = index.get(hostname)
                if bucket is None:
                    index[hostname] = [position]
                else:
                    bucket.append(position)
            self._host_index = index
        return self._host_index

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def filter(self, predicate: Callable[[Packet], bool]) -> "PacketTrace":
        """Return a new trace containing the packets matching ``predicate``."""
        self._materialize()
        self._ensure_sorted()
        return self._select([index for index, packet in enumerate(self.packets) if predicate(packet)])

    def _copy_row(self, trace: "PacketTrace", pos: int) -> None:
        """Append row ``pos`` of this trace to ``trace`` unchanged."""
        trace._ts.append(self._ts[pos])
        trace._src.append(self._src[pos])
        trace._dst.append(self._dst[pos])
        trace._sport.append(self._sport[pos])
        trace._dport.append(self._dport[pos])
        trace._dir.append(self._dir[pos])
        trace._flags.append(self._flags[pos])
        trace._payload.append(self._payload[pos])
        trace._headers.append(self._headers[pos])
        trace._proto.append(self._proto[pos])
        trace._conn.append(self._conn[pos])
        trace._host.append(self._host[pos])
        trace._note.append(self._note[pos])
        segment = self._seg[pos]
        trace._seg.append(segment)
        trace._ord.append(self._ord[pos])
        if segment is not None:
            trace._segn += 1
            trace._seg_extra += segment.record_count - 1

    def _window(self, start: float, end: float) -> "PacketTrace":
        """Rows whose packets fall in ``[start, end]``, segments preserved.

        A segment row's column timestamp is its *first* record's, so plain
        bisection misses segments that start before the window but extend
        into it; those straddlers (and in-window segments reaching past the
        end) are narrowed with :meth:`FlowSegment.subrange` — still one row,
        with ordinals shifted so later expansion keeps the capture order.
        """
        self._ensure_sorted()
        lo = bisect_left(self._ts, start)
        hi = bisect_right(self._ts, end)
        if self._segn == 0:
            return self._slice(lo, hi)
        trace = self._blank()
        straddled = False
        for pos in range(lo):
            segment = self._seg[pos]
            if segment is None or segment.last_timestamp < start:
                continue
            first = _first_record_at_or_after(segment, start)
            last = _first_record_after(segment, end)
            if last <= first:
                continue
            shift = first - segment.first_record
            trace._append_segment_row(segment.subrange(first, last), self._ord[pos] + shift)
            straddled = True
        for pos in range(lo, hi):
            segment = self._seg[pos]
            if segment is None or segment.last_timestamp <= end:
                self._copy_row(trace, pos)
                continue
            last = _first_record_after(segment, end)
            if last <= segment.first_record:
                continue
            trace._append_segment_row(segment.subrange(segment.first_record, last), self._ord[pos])
        trace._sorted = not straddled
        return trace

    def between(self, start: float, end: float) -> "PacketTrace":
        """Packets with ``start <= timestamp <= end``."""
        return self._window(start, end)

    def after(self, timestamp: float) -> "PacketTrace":
        """Packets captured at or after ``timestamp``."""
        if self._segn == 0:
            self._ensure_sorted()
            return self._slice(bisect_left(self._ts, timestamp), len(self._ts))
        return self._window(timestamp, math.inf)

    def to_hosts(self, hostnames: Iterable[str]) -> "PacketTrace":
        """Packets exchanged with any of the given server DNS names."""
        index = self._hostname_index()
        wanted = set(hostnames)
        buckets = [index[hostname] for hostname in wanted if hostname in index]
        if not buckets:
            return self._slice(0, 0)
        if len(buckets) == 1:
            return self._select(buckets[0])
        merged: List[int] = []
        for bucket in buckets:
            merged.extend(bucket)
        merged.sort()
        return self._select(merged)

    def for_connection(self, connection_id: int) -> "PacketTrace":
        """Packets belonging to one simulated connection."""
        positions = self._connection_index().get(connection_id)
        if positions is None:
            return self._slice(0, 0)
        return self._select(positions)

    def payload_packets(self) -> "PacketTrace":
        """Packets carrying application payload."""
        self._ensure_sorted()
        return self._select([index for index, payload in enumerate(self._payload) if payload > 0])

    def outgoing(self) -> "PacketTrace":
        """Packets leaving the test computer."""
        self._ensure_sorted()
        out = PacketDirection.OUT
        return self._select([index for index, direction in enumerate(self._dir) if direction is out])

    def incoming(self) -> "PacketTrace":
        """Packets entering the test computer."""
        self._ensure_sorted()
        out = PacketDirection.OUT
        return self._select([index for index, direction in enumerate(self._dir) if direction is not out])

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_bytes(self) -> int:
        """Total bytes on the wire (headers + payload), both directions."""
        return sum(self._headers) + sum(self._payload)

    def payload_bytes(self) -> int:
        """Total application payload bytes, both directions."""
        return sum(self._payload)

    def uploaded_payload_bytes(self) -> int:
        """Application payload bytes leaving the test computer."""
        out = PacketDirection.OUT
        return sum(payload for payload, direction in zip(self._payload, self._dir) if direction is out)

    def downloaded_payload_bytes(self) -> int:
        """Application payload bytes entering the test computer."""
        out = PacketDirection.OUT
        return sum(payload for payload, direction in zip(self._payload, self._dir) if direction is not out)

    def first_timestamp(self) -> Optional[float]:
        """Timestamp of the first packet, or ``None`` for an empty trace."""
        if not self._ts:
            return None
        return self._ts[0] if self._sorted else min(self._ts)

    def last_timestamp(self) -> Optional[float]:
        """Timestamp of the last packet, or ``None`` for an empty trace."""
        if not self._ts:
            return None
        last = self._ts[-1] if self._sorted else max(self._ts)
        if self._segn:
            for segment in self._seg:
                if segment is not None:
                    end = segment.last_timestamp
                    if end > last:
                        last = end
        return last

    def duration(self) -> float:
        """Elapsed time between the first and last packet (0 for empty traces)."""
        if not self._ts:
            return 0.0
        last = self.last_timestamp()
        first = self.first_timestamp()
        assert last is not None and first is not None
        return last - first

    def hostnames(self) -> List[str]:
        """Sorted list of distinct server DNS names appearing in the trace."""
        return sorted({hostname for hostname in self._host if hostname})

    def connection_ids(self) -> List[int]:
        """Sorted list of distinct connection identifiers in the trace."""
        return sorted(set(self._conn))
