"""Wire records produced by the simulator and consumed by the sniffer.

Two record types cross the capture point:

* :class:`Packet` — one control packet: a SYN, SYN-ACK, FIN or handshake
  ACK, or the aggregated ACK record that runs against each data burst;
* :class:`FlowSegment` — one whole data burst.  A burst's packet records
  differ only in timestamp and byte counts, and both are pure functions of
  the burst parameters, so the segment carries those parameters plus exact
  byte totals and expands to its records only when a per-packet query asks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = [
    "PacketDirection",
    "TCPFlags",
    "Packet",
    "FlowSegment",
    "MSS",
    "TCP_IP_HEADER_BYTES",
    "MAX_BURST_RECORDS",
    "burst_record_plan",
    "burst_range_totals",
]

#: Maximum segment size used by the simulated TCP stacks (Ethernet MTU 1500
#: minus 40 bytes of TCP/IP headers).
MSS = 1460

#: Combined IPv4 + TCP header size without options, charged to every packet.
TCP_IP_HEADER_BYTES = 40

#: Cap on the number of data-packet records per transfer burst; larger
#: transfers coalesce several MSS segments into one record while keeping
#: byte accounting exact.
MAX_BURST_RECORDS = 2048


def burst_record_plan(nbytes: int) -> Tuple[int, int]:
    """``(segments, records)`` of the canonical data burst for ``nbytes``.

    ``segments`` is the number of MSS-sized TCP segments the transfer needs;
    ``records`` is how many packet records the burst emits (segments, capped
    at :data:`MAX_BURST_RECORDS` with several segments folded per record).
    """
    segments = -(-nbytes // MSS)
    return segments, min(segments, MAX_BURST_RECORDS)


def burst_range_totals(nbytes: int, segments: int, records: int, first: int, last: int) -> Tuple[int, int, int]:
    """Closed-form ``(seg_count, payload_bytes, header_bytes)`` of burst records ``[first, last)``.

    The canonical burst loop (see :meth:`FlowSegment.expand_columns`) walks record
    boundaries ``int(round((index + 1) * segments / records))``; those
    telescope, so any contiguous record range's totals follow without the
    loop.  The per-record payload is ``seg_count * MSS`` except for the final
    record, which carries whatever remains of ``nbytes`` — results are
    bit-identical to summing the loop's emissions.
    """
    segs_per_record = segments / records
    b_first = int(round(first * segs_per_record))
    b_last = int(round(last * segs_per_record))
    seg_count = b_last - b_first
    if last >= records:
        payload = nbytes - b_first * MSS
    else:
        payload = seg_count * MSS
    return seg_count, payload, TCP_IP_HEADER_BYTES * seg_count


class PacketDirection(str, enum.Enum):
    """Direction of a packet relative to the test computer."""

    OUT = "out"  # test computer -> cloud
    IN = "in"    # cloud -> test computer


class TCPFlags(enum.Flag):
    """Subset of TCP flags the analysis cares about."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    PSH = enum.auto()
    RST = enum.auto()


@dataclass
class Packet:
    """One simulated packet as seen at the test computer's network interface.

    Attributes
    ----------
    timestamp:
        Simulated capture time in seconds.
    src / dst:
        IP addresses (strings) of the two ends.
    src_port / dst_port:
        TCP ports.
    direction:
        Whether the packet leaves (``OUT``) or enters (``IN``) the test computer.
    flags:
        TCP flags; handshake packets carry ``SYN``.
    payload_len:
        Application payload bytes carried (TLS records count as payload here,
        matching what a real capture sees above TCP).
    headers_len:
        Link/IP/TCP header bytes charged to the packet.
    protocol:
        ``"TCP"`` always; kept for trace realism/filters.
    connection_id:
        Identifier of the simulated connection this packet belongs to.
    hostname:
        Server DNS name the connection was opened to (what the paper obtains
        from DNS/SNI inspection); used to classify control vs. storage flows.
    note:
        Free-form annotation (e.g. ``"tls-handshake"``, ``"http-request"``).
    """

    timestamp: float
    src: str
    dst: str
    src_port: int
    dst_port: int
    direction: PacketDirection
    flags: TCPFlags = TCPFlags.NONE
    payload_len: int = 0
    headers_len: int = TCP_IP_HEADER_BYTES
    protocol: str = "TCP"
    connection_id: int = 0
    hostname: str = ""
    note: str = field(default="", repr=False)

    @property
    def wire_len(self) -> int:
        """Total bytes on the wire (headers + payload)."""
        return self.headers_len + self.payload_len

    @property
    def is_syn(self) -> bool:
        """True for SYN or SYN/ACK packets."""
        return bool(self.flags & TCPFlags.SYN)

    @property
    def has_payload(self) -> bool:
        """True if the packet carries application payload."""
        return self.payload_len > 0


@dataclass(frozen=True)
class FlowSegment:
    """One data burst, or a contiguous record range of one, as a single record.

    ``TCPConnection._emit_data`` ships every data burst as one segment over
    records ``[0, records)``, so its totals are ``nbytes`` of payload and
    ``TCP_IP_HEADER_BYTES`` per MSS segment of headers.  Consumers that only
    need aggregates (byte sums, first/last timestamps, per-host volumes)
    read the segment directly; per-packet consumers call
    :meth:`expand_columns`, which runs the canonical burst loop.

    ``first_record``/``last_record`` delimit the half-open record range the
    segment covers; trace window filters narrow segments with
    :meth:`subrange` instead of materializing packets.
    """

    #: Burst start time and time span (``max(end - start, 0)``).
    start: float
    span: float
    #: Payload bytes, MSS segments and packet records of the *whole* burst.
    nbytes: int
    segments: int
    records: int
    #: Half-open record range ``[first_record, last_record)`` this segment covers.
    first_record: int
    last_record: int
    #: Exact aggregate byte totals of the covered range.
    payload_bytes: int
    header_bytes: int
    src: str
    dst: str
    src_port: int
    dst_port: int
    direction: PacketDirection
    flags: TCPFlags = TCPFlags.NONE
    protocol: str = "TCP"
    connection_id: int = 0
    hostname: str = ""
    note: str = ""

    @property
    def record_count(self) -> int:
        """Number of packet records this segment stands for."""
        return self.last_record - self.first_record

    def record_timestamp(self, index: int) -> float:
        """Capture timestamp of burst record ``index`` (the loop's expression)."""
        return self.start + self.span * (index + 1) / self.records

    @property
    def first_timestamp(self) -> float:
        """Timestamp of the segment's first record."""
        return self.record_timestamp(self.first_record)

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the segment's last record."""
        return self.record_timestamp(self.last_record - 1)

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire (headers + payload) across the range."""
        return self.payload_bytes + self.header_bytes

    def subrange(self, first: int, last: int) -> "FlowSegment":
        """The sub-segment covering records ``[first, last)`` of the burst."""
        _, payload, headers = burst_range_totals(self.nbytes, self.segments, self.records, first, last)
        return FlowSegment(
            start=self.start,
            span=self.span,
            nbytes=self.nbytes,
            segments=self.segments,
            records=self.records,
            first_record=first,
            last_record=last,
            payload_bytes=payload,
            header_bytes=headers,
            src=self.src,
            dst=self.dst,
            src_port=self.src_port,
            dst_port=self.dst_port,
            direction=self.direction,
            flags=self.flags,
            protocol=self.protocol,
            connection_id=self.connection_id,
            hostname=self.hostname,
            note=self.note,
        )

    def expand_columns(self) -> Tuple[List[float], List[int], List[int]]:
        """Materialize ``(timestamps, payload_lens, headers_lens)`` of the range.

        This is the canonical burst loop: it defines a burst's packet
        records.  Record ``index`` is stamped at ``start + span * (index +
        1) / records`` and carries its share of whole MSS segments; the last
        record carries what remains of ``nbytes``.  The loop walks the burst
        from record 0 (boundaries depend on every earlier record) and keeps
        the records in range.
        """
        segs_per_record = self.segments / self.records
        remaining = self.nbytes
        boundary = 0
        first, last = self.first_record, self.last_record
        start, span, records = self.start, self.span, self.records
        timestamps: List[float] = []
        payloads: List[int] = []
        headers: List[int] = []
        for index in range(last):
            next_boundary = int(round((index + 1) * segs_per_record))
            seg_count = max(next_boundary - boundary, 1)
            boundary = next_boundary
            payload = min(remaining, seg_count * MSS)
            if payload <= 0:
                break
            remaining -= payload
            if first <= index < last:
                timestamps.append(start + span * (index + 1) / records)
                payloads.append(payload)
                headers.append(TCP_IP_HEADER_BYTES * seg_count)
        return timestamps, payloads, headers
