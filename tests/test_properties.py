"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.capture import analysis
from repro.capture.trace import PacketTrace
from repro.netsim.link import NetworkPath
from repro.netsim.packet import Packet, PacketDirection, TCPFlags
from repro.sync.bundling import BundleBuilder, BundleEntry
from repro.sync.chunking import FixedChunker, VariableChunker
from repro.sync.compression import CompressionPolicy, Compressor
from repro.sync.delta import DeltaCodec
from repro.sync.dedup import DedupIndex
from repro.units import mbps

# Keep generated payloads small: these properties are structural, not
# performance related.
payloads = st.binary(min_size=0, max_size=20_000)
small_payloads = st.binary(min_size=0, max_size=4_000)


class TestChunkingProperties:
    @given(data=payloads, chunk_size=st.integers(min_value=1, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_fixed_chunks_cover_input_exactly(self, data, chunk_size):
        chunks = FixedChunker(chunk_size).chunk(data)
        assert sum(chunk.length for chunk in chunks) == len(data)
        assert b"".join(data[c.offset:c.offset + c.length] for c in chunks) == data
        assert all(chunk.length <= chunk_size for chunk in chunks)

    @given(data=payloads)
    @settings(max_examples=30, deadline=None)
    def test_variable_chunks_cover_input_exactly(self, data):
        chunker = VariableChunker(min_size=512, average_size=2048, max_size=8192, page_size=256)
        chunks = chunker.chunk(data)
        assert sum(chunk.length for chunk in chunks) == len(data)
        offsets = [chunk.offset for chunk in chunks]
        assert offsets == sorted(offsets)

    @given(data=payloads, chunk_size=st.integers(min_value=64, max_value=4_096))
    @settings(max_examples=40, deadline=None)
    def test_chunk_digests_are_stable(self, data, chunk_size):
        first = FixedChunker(chunk_size).chunk(data)
        second = FixedChunker(chunk_size).chunk(data)
        assert [c.digest for c in first] == [c.digest for c in second]


class TestDeltaProperties:
    @given(old=small_payloads, new=small_payloads, block_size=st.integers(min_value=16, max_value=512))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_apply_delta_reconstructs_new_revision(self, old, new, block_size):
        codec = DeltaCodec(block_size=block_size)
        delta = codec.compute_delta(new, codec.compute_signature(old))
        assert codec.apply_delta(old, delta) == new

    @given(old=small_payloads, insertion=st.binary(min_size=0, max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_delta_literal_bytes_never_exceed_new_size(self, old, insertion):
        codec = DeltaCodec(block_size=64)
        new = old + insertion
        delta = codec.compute_delta(new, codec.compute_signature(old))
        assert delta.literal_bytes <= len(new)


class TestCompressionProperties:
    @given(data=payloads, policy=st.sampled_from(list(CompressionPolicy)))
    @settings(max_examples=60, deadline=None)
    def test_transmitted_size_never_exceeds_original(self, data, policy):
        result = Compressor(policy).process(data)
        assert 0 <= result.transmitted_size <= len(data)
        assert result.ratio <= 1.0


class TestDedupProperties:
    @given(digests=st.lists(st.text(alphabet="abcdef0123456789", min_size=4, max_size=8), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_known_set_grows_monotonically(self, digests):
        index = DedupIndex()
        seen = set()
        for digest in digests:
            index.add(digest)
            seen.add(digest)
            assert len(index) == len(seen)
            assert all(d in index for d in seen)


class TestBundlingProperties:
    @given(sizes=st.lists(st.integers(min_value=0, max_value=50_000), max_size=60),
           limit=st.integers(min_value=1_000, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_bundles_preserve_total_payload_and_order(self, sizes, limit):
        builder = BundleBuilder(max_bundle_bytes=limit)
        bundles = builder.pack_sizes(sizes)
        assert sum(bundle.payload_size for bundle in bundles) == sum(sizes)
        flattened = [entry.payload_size for bundle in bundles for entry in bundle.entries]
        assert flattened == list(sizes)
        for bundle in bundles:
            assert len(bundle) >= 1
            assert bundle.payload_size <= max(limit, max(sizes or [0]))


class TestNetworkProperties:
    @given(nbytes=st.integers(min_value=1, max_value=5_000_000),
           rtt=st.floats(min_value=0.001, max_value=0.3),
           rate=st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_transfer_duration_at_least_serialization(self, nbytes, rtt, rate):
        from repro.netsim.simulator import NetworkSimulator
        from repro.netsim.endpoint import Endpoint

        path = NetworkPath(rtt=rtt, uplink_bps=mbps(rate), downlink_bps=mbps(rate))
        simulator = NetworkSimulator()
        connection = simulator.open_connection(Endpoint("h.example", "192.0.2.5"), path)
        duration = connection.transfer_duration(nbytes)
        serialization = nbytes * 8 / mbps(rate)
        assert duration >= serialization * 0.999
        # The ramp-up can never cost more than one RTT per doubling of the window.
        assert duration <= serialization + rtt * 40

    @given(payload_sizes=st.lists(st.integers(min_value=1, max_value=3_000), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_trace_byte_accounting_is_consistent(self, payload_sizes):
        packets = [
            Packet(
                timestamp=float(index),
                src="a", dst="b", src_port=1, dst_port=2,
                direction=PacketDirection.OUT if index % 2 == 0 else PacketDirection.IN,
                flags=TCPFlags.ACK,
                payload_len=size,
                hostname="h.example",
            )
            for index, size in enumerate(payload_sizes)
        ]
        trace = PacketTrace(packets)
        assert trace.payload_bytes() == sum(payload_sizes)
        assert trace.total_bytes() == sum(payload_sizes) + 40 * len(payload_sizes)
        assert trace.uploaded_payload_bytes() + trace.downloaded_payload_bytes() == trace.payload_bytes()
        series = analysis.cumulative_bytes_series(trace, interval=5.0)
        assert series[-1][1] == trace.total_bytes()


def _reference_slow_start_penalty(nbytes: int, rate: float, rtt: float) -> float:
    """The seed engine's byte-tracking loop, kept verbatim as the oracle.

    The closed-form :func:`repro.netsim.tcp.slow_start_penalty` must match
    this loop *bit for bit* (not approximately): the golden campaign
    documents pin output bytes, so even one ulp of drift would break the
    byte-identity contract.
    """
    from repro.netsim.tcp import INITIAL_CWND_BYTES

    if rtt <= 0 or nbytes <= 0:
        return 0.0
    bdp = rate * rtt / 8.0
    cwnd = float(INITIAL_CWND_BYTES)
    delivered = 0.0
    penalty = 0.0
    while True:
        burst = min(cwnd, nbytes - delivered)
        delivered += burst
        if delivered >= nbytes or cwnd >= bdp:
            break
        penalty += max(0.0, rtt - burst * 8.0 / rate)
        cwnd *= 2.0
    return penalty


class TestSlowStartClosedForm:
    @given(
        nbytes=st.integers(min_value=1, max_value=50_000_000),
        rtt=st.floats(min_value=0.0001, max_value=2.0),
        rate=st.floats(min_value=0.05, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_iterative_reference_exactly(self, nbytes, rtt, rate):
        from repro.netsim.tcp import slow_start_penalty

        rate_bps = mbps(rate)
        assert slow_start_penalty(nbytes, rate_bps, rtt) == _reference_slow_start_penalty(nbytes, rate_bps, rtt)

    def test_matches_reference_across_parameter_grid(self):
        from repro.netsim.tcp import INITIAL_CWND_BYTES, slow_start_penalty

        sizes = [1, 100, INITIAL_CWND_BYTES - 1, INITIAL_CWND_BYTES, INITIAL_CWND_BYTES + 1,
                 10_000, 100_000, 1_000_000, 25_000_000]
        rtts = [0.0, 0.001, 0.02, 0.1, 0.5]
        rates = [mbps(0.1), mbps(1), mbps(8), mbps(50), mbps(100), mbps(1000)]
        for nbytes in sizes:
            for rtt in rtts:
                for rate in rates:
                    assert slow_start_penalty(nbytes, rate, rtt) == _reference_slow_start_penalty(nbytes, rate, rtt), (
                        nbytes, rtt, rate,
                    )

    def test_zero_and_negative_inputs(self):
        from repro.netsim.tcp import slow_start_penalty

        assert slow_start_penalty(0, mbps(10), 0.02) == 0.0
        assert slow_start_penalty(-5, mbps(10), 0.02) == 0.0
        assert slow_start_penalty(10_000, mbps(10), 0.0) == 0.0


#: Record cap of the per-record burst loop below (``MAX_BURST_RECORDS``).
_ORACLE_MAX_RECORDS = 2048


def _eager_emit_data(self, start, end, nbytes, direction, *, note):
    """Per-record burst emission, kept verbatim as the oracle.

    The simulator ships every data burst as one
    :class:`~repro.netsim.packet.FlowSegment`.  This is the loop it ran
    before: one :class:`Packet` per record, built eagerly.  A trace captured
    with segments must expand to exactly these records — timestamps as
    exact floats, byte counts, addresses and capture order — because the
    golden documents pin every figure computed from the capture.
    """
    import math

    from repro.netsim.packet import MSS, TCP_IP_HEADER_BYTES

    if nbytes <= 0:
        return
    segments = math.ceil(nbytes / MSS)
    records = min(segments, _ORACLE_MAX_RECORDS)
    segs_per_record = segments / records
    span = max(end - start, 0.0)
    src, dst, sport, dport = self._addresses(direction)
    remaining = nbytes
    timestamps = []
    payloads = []
    headers = []
    boundary = 0
    for index in range(records):
        next_boundary = int(round((index + 1) * segs_per_record))
        seg_count = max(next_boundary - boundary, 1)
        boundary = next_boundary
        payload = min(remaining, seg_count * MSS)
        if payload <= 0:
            break
        remaining -= payload
        timestamps.append(start + span * (index + 1) / records)
        payloads.append(payload)
        headers.append(TCP_IP_HEADER_BYTES * seg_count)
    for timestamp, payload, header in zip(timestamps, payloads, headers):
        self._sim.emit(
            Packet(
                timestamp=timestamp,
                src=src,
                dst=dst,
                src_port=sport,
                dst_port=dport,
                direction=direction,
                flags=TCPFlags.ACK | TCPFlags.PSH,
                payload_len=payload,
                headers_len=header,
                connection_id=self.connection_id,
                hostname=self.remote.hostname,
                note=note,
            )
        )


def _oracle_emission():
    """Context manager: connections emit bursts with the per-record oracle."""
    from unittest import mock

    from repro.netsim.tcp import TCPConnection

    return mock.patch.object(TCPConnection, "_emit_data", _eager_emit_data)


class TestFlowSegmentOracle:
    """A trace captured as flow segments expands to the per-record oracle.

    Every comparison is exact: ``sorted_columns()`` equality covers each
    field of each record, float timestamps included (``==``, no tolerance).
    """

    #: Burst sizes in bytes, by record count: 1 record (a byte, a full MSS),
    #: 2-23 records, 24+ records, exactly 2048 records, and more than 2048
    #: segments folded into 2048 records (evenly and unevenly).
    BURST_SIZES = (
        1,
        1460,
        1461,
        2 * 1460,
        7 * 1460 - 300,
        23 * 1460,
        24 * 1460,
        24 * 1460 + 1,
        100 * 1460 - 1,
        2047 * 1460 + 5,
        2048 * 1460,
        2048 * 1460 + 1,
        2049 * 1460,
        3 * 2048 * 1460 - 7,
        5_000_000,
    )

    @staticmethod
    def _capture(oracle, workload, *, rtt=0.02, up_mbps=50.0, down_mbps=100.0, tls=None):
        """Run ``workload(connection)`` on a fresh simulator; return the trace."""
        import contextlib

        from repro.capture.sniffer import Sniffer
        from repro.netsim.endpoint import Endpoint
        from repro.netsim.simulator import NetworkSimulator

        path = NetworkPath(rtt=rtt, uplink_bps=mbps(up_mbps), downlink_bps=mbps(down_mbps))
        with _oracle_emission() if oracle else contextlib.nullcontext():
            simulator = NetworkSimulator()
            sniffer = Sniffer(simulator)
            connection = simulator.open_connection(Endpoint("h.example", "192.0.2.5", 443), path, tls=tls)
            workload(connection)
            connection.close()
        return sniffer.trace

    def _pair(self, workload, **kwargs):
        return self._capture(False, workload, **kwargs), self._capture(True, workload, **kwargs)

    @staticmethod
    def _requests(transfers):
        def workload(connection):
            for up_bytes, down_bytes in transfers:
                connection.request(up_bytes, down_bytes, note="prop")

        return workload

    def test_burst_sizes_are_field_identical(self):
        from repro.netsim.packet import burst_record_plan

        plans = [burst_record_plan(nbytes) for nbytes in self.BURST_SIZES]
        records = {count for _, count in plans}
        assert 1 in records and 2048 in records
        assert any(2 <= count <= 23 for count in records)
        assert any(24 <= count < 2048 for count in records)
        assert any(segments > 2048 for segments, _ in plans)
        for nbytes in self.BURST_SIZES:
            for upstream in (True, False):

                def workload(connection, nbytes=nbytes, upstream=upstream):
                    connection.send(nbytes, upstream=upstream)

                captured, oracle = self._pair(workload)
                assert len(captured) == len(oracle), nbytes
                assert captured.sorted_columns() == oracle.sorted_columns(), nbytes

    @given(
        transfers=st.lists(
            st.tuples(st.integers(min_value=1, max_value=2_000_000), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_transfers_are_field_identical(self, transfers):
        def workload(connection):
            for nbytes, upstream in transfers:
                connection.send(nbytes, upstream=upstream)

        captured, oracle = self._pair(workload)
        assert len(captured) == len(oracle)
        assert list(captured.packets) == list(oracle.packets)

    transfer_lists = st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3_000_000),
            st.integers(min_value=1, max_value=500_000),
        ),
        min_size=1,
        max_size=6,
    )

    @given(
        transfers=transfer_lists,
        rtt=st.floats(min_value=0.001, max_value=0.3),
        up_mbps=st.floats(min_value=0.5, max_value=100.0),
        down_mbps=st.floats(min_value=0.5, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_requests_are_field_identical(self, transfers, rtt, up_mbps, down_mbps):
        captured, oracle = self._pair(self._requests(transfers), rtt=rtt, up_mbps=up_mbps, down_mbps=down_mbps)
        assert len(captured) == len(oracle)
        assert captured.sorted_columns() == oracle.sorted_columns()

    def test_zero_span_bursts_are_field_identical(self):
        from repro.netsim.packet import PacketDirection as Direction
        from repro.netsim.tls import TLSParameters

        # The single-RTT TLS handshake emits its client-finished flight with
        # start == end; the direct calls add multi-record zero-span bursts.
        def workload(connection):
            now = connection._sim.now
            for nbytes in (1, 5 * 1460, 300 * 1460 + 11, 2049 * 1460):
                connection._emit_data(now, now, nbytes, Direction.OUT, note="zero-span")
            connection.send(40_000)

        tls = TLSParameters().resumed()
        captured, oracle = self._pair(workload, tls=tls)
        assert captured.sorted_columns() == oracle.sorted_columns()
        columns = captured.sorted_columns()
        finished = [ts for ts, note in zip(columns.timestamps, columns.notes) if note == "tls-client-finished"]
        assert len(set(finished)) == 1
        zero_span = [ts for ts, note in zip(columns.timestamps, columns.notes) if note == "zero-span"]
        assert len(zero_span) == 1 + 5 + 301 + 2048 and len(set(zero_span)) == 1

    @given(
        transfers=transfer_lists,
        rtt=st.floats(min_value=0.001, max_value=0.2),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_windowed_views_are_field_identical(self, transfers, rtt, cut):
        captured, oracle = self._pair(self._requests(transfers), rtt=rtt)
        first = oracle.first_timestamp() or 0.0
        last = oracle.last_timestamp() or 0.0
        # Window edges land mid-burst: between/after narrow the segment rows.
        edge = first + (last - first) * cut
        for window_captured, window_oracle in (
            (captured.between(edge, last), oracle.between(edge, last)),
            (captured.between(first, edge), oracle.between(first, edge)),
            (captured.after(edge), oracle.after(edge)),
        ):
            assert len(window_captured) == len(window_oracle)
            assert window_captured.sorted_columns() == window_oracle.sorted_columns()

    def test_window_edges_inside_one_burst(self):
        def workload(connection):
            connection.send(2_000_000)

        captured, oracle = self._pair(workload)
        timestamps = oracle.sorted_columns().timestamps
        inside = [timestamps[4], timestamps[len(timestamps) // 2], timestamps[-3]]
        for lo in inside:
            for hi in inside:
                if hi < lo:
                    continue
                assert captured.between(lo, hi).sorted_columns() == oracle.between(lo, hi).sorted_columns()
            assert captured.after(lo).sorted_columns() == oracle.after(lo).sorted_columns()

    @given(transfers=transfer_lists)
    @settings(max_examples=15, deadline=None)
    def test_aggregates_agree_without_expansion(self, transfers):
        captured, oracle = self._pair(self._requests(transfers))
        # Each burst is one row until a per-packet query expands it.
        rows = len(captured.segment_columns().timestamps)
        assert rows == len(oracle) - sum(
            segment.record_count - 1 for segment in captured._seg if segment is not None
        )
        assert captured.total_bytes() == oracle.total_bytes()
        assert captured.payload_bytes() == oracle.payload_bytes()
        assert captured.uploaded_payload_bytes() == oracle.uploaded_payload_bytes()
        assert captured.downloaded_payload_bytes() == oracle.downloaded_payload_bytes()
        assert captured.first_timestamp() == oracle.first_timestamp()
        assert captured.last_timestamp() == oracle.last_timestamp()
        assert analysis.count_tcp_syns(captured) == analysis.count_tcp_syns(oracle)
        assert analysis.syn_time_series(captured) == analysis.syn_time_series(oracle)
        assert analysis.classify_hosts(captured) == analysis.classify_hosts(oracle)
        assert len(captured.segment_columns().timestamps) == rows
        assert analysis.burst_payload_sizes(captured) == analysis.burst_payload_sizes(oracle)

    def test_send_aggregates_agree_without_expansion(self):
        def workload(connection):
            for nbytes, upstream in ((350_000, True), (1_200, False), (80_000, True)):
                connection.send(nbytes, upstream=upstream)

        captured, oracle = self._pair(workload)
        rows = len(captured.segment_columns().timestamps)
        # Three bursts, one row each, plus the handshake and teardown packets.
        assert rows < len(oracle)
        assert captured.total_bytes() == oracle.total_bytes()
        assert captured.payload_bytes() == oracle.payload_bytes()
        assert captured.uploaded_payload_bytes() == oracle.uploaded_payload_bytes()
        assert captured.downloaded_payload_bytes() == oracle.downloaded_payload_bytes()
        assert analysis.count_tcp_syns(captured) == analysis.count_tcp_syns(oracle)
        assert len(captured.segment_columns().timestamps) == rows
        assert analysis.burst_payload_sizes(captured) == analysis.burst_payload_sizes(oracle)

    def test_tracer_counts_match_oracle(self):
        from repro.obs.tracer import Tracer, activate

        workload = self._requests([(350_000, 1_200), (1, 80_000), (2049 * 1460, 3 * 1460)])
        counters = {}
        traces = {}
        for oracle in (False, True):
            tracer = Tracer()
            with activate(tracer):
                traces[oracle] = self._capture(oracle, workload)
            counters[oracle] = {
                name: tracer.metrics.counter(name).value
                for name in ("netsim.packets", "netsim.wire_bytes", "netsim.flow_segments")
            }
        assert counters[False]["netsim.packets"] == len(traces[True]) == counters[True]["netsim.packets"]
        assert counters[False]["netsim.wire_bytes"] == traces[True].total_bytes() == counters[True]["netsim.wire_bytes"]
        # One segment per data burst: the request and response of each of
        # the three exchanges.
        assert counters[False]["netsim.flow_segments"] == 6
        assert counters[True]["netsim.flow_segments"] == 0

    def test_campaign_trace_and_results_match_oracle(self):
        from repro.core.campaign import CampaignConfig, CampaignRunner
        from repro.obs.recorder import strip_wall
        from repro.specio import canonical_text

        def run():
            campaign = CampaignRunner(
                ["dropbox", "googledrive"],
                ["syn_series", "performance"],
                seed=42,
                jobs=1,
                config=CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50),
                trace=True,
            ).run()
            trace = strip_wall(campaign.trace)
            bursts = [cell["metrics"]["counters"].pop("netsim.flow_segments", 0) for cell in trace["cells"]]
            return campaign.results_json_dict(), trace, sum(bursts)

        captured_results, captured_trace, captured_bursts = run()
        with _oracle_emission():
            oracle_results, oracle_trace, oracle_bursts = run()
        assert captured_bursts > 0 and oracle_bursts == 0
        assert canonical_text(captured_results) == canonical_text(oracle_results)
        # Spans and every other counter (netsim.packets and netsim.wire_bytes
        # included) are properties of the simulation, not of how a burst is
        # stored.
        assert canonical_text(captured_trace) == canonical_text(oracle_trace)
