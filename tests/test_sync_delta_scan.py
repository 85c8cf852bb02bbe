"""The span-bounded rolling scan of the delta codec, against whole-array oracles.

``DeltaCodec.compute_delta`` scans the new revision in fixed spans of
window starts (``delta._SCAN_SPAN``).  The oracles below are the
whole-revision formulations the span kernel replaced: they materialise
checksum arrays as long as the input, which is what the memory-bound test
at the end rules out for the codec itself.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List, Tuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sync import delta as delta_module
from repro.sync.delta import Delta, DeltaCodec, DeltaOp, DeltaOpKind, FileSignature, _span_weak_checksums, _strong_hash

SPAN = delta_module._SCAN_SPAN
KIB = 1024


def oracle_rolling_weak_checksums(data: np.ndarray, block_size: int) -> np.ndarray:
    """Weak checksum of every ``block_size`` window of ``data``, all at once."""
    length = data.size
    window = block_size
    count = length - window + 1
    if count <= 0:
        return np.empty(0, dtype=np.uint32)
    values = data.astype(np.uint32)
    zero = np.zeros(1, dtype=np.uint32)
    prefix = np.concatenate((zero, np.cumsum(values, dtype=np.uint32)))
    weighted = np.concatenate(
        (zero, np.cumsum(values * np.arange(length, dtype=np.uint32), dtype=np.uint32))
    )
    window_sums = prefix[window:window + count] - prefix[:count]
    window_weighted = weighted[window:window + count] - weighted[:count]
    ends = np.arange(window, window + count, dtype=np.uint32)
    b = (ends * window_sums - window_weighted) % np.uint32(1 << 16)
    a = window_sums % np.uint32(1 << 16)
    return (b << np.uint32(16)) | a


def oracle_compute_delta(new: bytes, signature: FileSignature) -> Delta:
    """The whole-array ``compute_delta``: full-length checksums, isin membership."""
    block_size = signature.block_size
    delta = Delta(block_size=block_size, old_size=signature.file_size, new_size=len(new))
    if not new:
        return delta
    if len(signature) == 0 or len(new) < block_size:
        delta.ops.append(DeltaOp(kind=DeltaOpKind.LITERAL, data=new))
        return delta
    strong_by_weak: Dict[int, List[Tuple[int, str]]] = {}
    for index, (weak, strong) in enumerate(zip(signature.weak, signature.strong)):
        strong_by_weak.setdefault(weak, []).append((index, strong))
    weak_all = oracle_rolling_weak_checksums(np.frombuffer(new, dtype=np.uint8), block_size)
    known = np.array(sorted(strong_by_weak), dtype=np.uint32)
    candidate_positions = np.nonzero(np.isin(weak_all, known))[0]

    def match_at(position: int):
        strong = _strong_hash(new[position:position + block_size])
        for index, candidate_strong in strong_by_weak.get(int(weak_all[position]), ()):
            if candidate_strong == strong:
                return index
        return None

    ops: List[DeltaOp] = []
    literal_start = 0
    position = 0
    max_full_window = len(new) - block_size
    while position <= max_full_window:
        match_index = match_at(position)
        if match_index is not None:
            if position > literal_start:
                ops.append(DeltaOp(kind=DeltaOpKind.LITERAL, data=new[literal_start:position]))
            ops.append(DeltaOp(kind=DeltaOpKind.COPY, block_index=match_index))
            position += block_size
            literal_start = position
            continue
        later = candidate_positions[np.searchsorted(candidate_positions, position + 1):]
        position = int(later[0]) if later.size else max_full_window + 1
    tail_len = signature.file_size % block_size
    end = len(new)
    if tail_len and literal_start <= end - tail_len and _strong_hash(new[end - tail_len:]) == signature.strong[-1]:
        end -= tail_len
    if end > literal_start:
        ops.append(DeltaOp(kind=DeltaOpKind.LITERAL, data=new[literal_start:end]))
    if end < len(new):
        ops.append(DeltaOp(kind=DeltaOpKind.COPY, block_index=len(signature) - 1))
    delta.ops = ops
    return delta


def content(kind: str, size: int, seed: int) -> bytes:
    """Deterministic test content: random bytes, all zeros or periodic text."""
    if kind == "random":
        return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    if kind == "zeros":
        return bytes(size)
    phrase = b"the quick brown fox jumps over the lazy dog %d\n" % (seed % 97)
    return (phrase * (size // len(phrase) + 1))[:size]


def ops_of(delta: Delta) -> List[Tuple[str, int, bytes]]:
    return [(op.kind.value, op.block_index, op.data) for op in delta.ops]


def edit(kind: str, old: bytes, at: int, extra: bytes) -> bytes:
    """The new revision after one insert, append, truncate or no edit."""
    if kind == "insert":
        return old[:at] + extra + old[at:]
    if kind == "append":
        return old + extra
    if kind == "truncate":
        return old[:at]
    return old


class TestSpanKernel:
    @given(
        kind=st.sampled_from(["random", "zeros", "text"]),
        block_size=st.sampled_from([1 * KIB, 7 * KIB, 16 * KIB]),
        seed=st.integers(min_value=0, max_value=2**16),
        boundary=st.integers(min_value=1, max_value=2),
        before=st.integers(min_value=0, max_value=3 * KIB),
        after=st.integers(min_value=1, max_value=3 * KIB),
    )
    @settings(max_examples=25, deadline=None)
    def test_span_straddling_a_span_multiple_matches_oracle(self, kind, block_size, seed, boundary, before, after):
        start = boundary * SPAN - before
        stop = boundary * SPAN + after
        data = np.frombuffer(content(kind, stop + block_size - 1 + seed % 5, seed), dtype=np.uint8)
        expected = oracle_rolling_weak_checksums(data, block_size)[start:stop]
        got = _span_weak_checksums(data, block_size, start, stop)
        assert got.dtype == np.uint32
        assert np.array_equal(got, expected)

    @given(
        kind=st.sampled_from(["random", "zeros", "text"]),
        block_size=st.sampled_from([1 * KIB, 7 * KIB, 16 * KIB]),
        seed=st.integers(min_value=0, max_value=2**16),
        extra=st.integers(min_value=0, max_value=SPAN + 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_consecutive_spans_tile_the_whole_array(self, kind, block_size, seed, extra):
        data = np.frombuffer(content(kind, block_size + extra, seed), dtype=np.uint8)
        starts = data.size - block_size + 1
        spans = range(0, starts, SPAN)
        tiled = np.concatenate([_span_weak_checksums(data, block_size, k, min(k + SPAN, starts)) for k in spans])
        assert np.array_equal(tiled, oracle_rolling_weak_checksums(data, block_size))

    def test_window_of_the_whole_input(self):
        data = np.frombuffer(content("random", 16 * KIB, 3), dtype=np.uint8)
        got = _span_weak_checksums(data, 16 * KIB, 0, 1)
        assert got.tolist() == oracle_rolling_weak_checksums(data, 16 * KIB).tolist()
        assert int(got[0]) == delta_module._weak_checksum(data.tobytes())


class TestComputeDeltaMatchesOracle:
    @pytest.mark.parametrize("edit_kind", ["insert", "append", "truncate", "identical"])
    @pytest.mark.parametrize("kind", ["random", "text"])
    def test_multi_span_chunk(self, edit_kind, kind):
        old = content(kind, 4 * 1024 * 1024 - 5_000, 11)
        new = edit(edit_kind, old, 1_234_567, content("random", 100_000, 12))
        codec = DeltaCodec()
        signature = codec.compute_signature(old)
        got = codec.compute_delta(new, signature)
        assert ops_of(got) == ops_of(oracle_compute_delta(new, signature))
        assert codec.apply_delta(old, got) == new

    @given(
        edit_kind=st.sampled_from(["insert", "append", "truncate", "identical"]),
        kind=st.sampled_from(["random", "zeros", "text"]),
        block_size=st.sampled_from([512, 1 * KIB, 7 * KIB]),
        size=st.integers(min_value=0, max_value=60_000),
        extra_size=st.integers(min_value=1, max_value=9_000),
        at=st.floats(min_value=0.0, max_value=1.0),
        span=st.sampled_from([1, 777, 4 * KIB]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_spans_match_oracle(self, edit_kind, kind, block_size, size, extra_size, at, span, seed):
        old = content(kind, size, seed)
        new = edit(edit_kind, old, int(at * size), content("random", extra_size, seed + 1))
        codec = DeltaCodec(block_size=block_size)
        signature = codec.compute_signature(old)
        # Tiny spans put every kind of edit across many span boundaries.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(delta_module, "_SCAN_SPAN", span)
            got = codec.compute_delta(new, signature)
        assert ops_of(got) == ops_of(oracle_compute_delta(new, signature))
        assert codec.apply_delta(old, got) == new

    def test_tail_block_copy(self):
        old = content("random", 10 * 16 * KIB + 999, 21)
        new = old[:50_000] + content("random", 3_000, 22) + old[50_000:]
        codec = DeltaCodec()
        signature = codec.compute_signature(old)
        got = codec.compute_delta(new, signature)
        assert got.ops[-1] == DeltaOp(kind=DeltaOpKind.COPY, block_index=len(signature) - 1)
        assert ops_of(got) == ops_of(oracle_compute_delta(new, signature))


def test_compute_delta_peak_memory_is_bounded_by_the_span():
    """A 4 MB chunk with a 100 kB insert: the whole-array scan peaked at ~150 MB."""
    old = content("random", 4 * 1024 * 1024, 31)
    new = old[:1_000_000] + content("random", 100_000, 32) + old[1_000_000:-100_000]
    codec = DeltaCodec()
    signature = codec.compute_signature(old)
    tracemalloc.start()
    try:
        delta = codec.compute_delta(new, signature)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta.literal_bytes < 200_000
    assert peak < 32 * 1024 * 1024
