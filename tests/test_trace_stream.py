"""Chunked v2 trace format: writer/reader, hardening, streamed runs.

Covers the PLPTRACE v2 layer end to end: ``TraceWriter`` emission vs
``save_binary``, v1<->v2 round-trips, the O(1) ``TraceReader.summary``,
chunk iteration parity with ``MemoryTrace.chunks``, the reader's
``from_bytes``-grade hardening against truncated/corrupt files, and the
bounded-memory ``run_stream`` differential against the materialized
``run`` on every scheme and all three engines.
"""

import struct
from types import SimpleNamespace

import pytest

from repro.core.schemes import UpdateScheme
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.workloads.synthetic import kvstore_trace
from repro.workloads.trace import (
    KIND_LOAD,
    KIND_SFENCE,
    KIND_STORE,
    MemoryTrace,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)


def small_trace(num_ops: int = 400) -> MemoryTrace:
    """Deterministic mixed trace with sfences and both persist flags."""
    trace = kvstore_trace(num_ops)
    trace.append_op(KIND_STORE, 0x7FFF_0040, 3, 0)
    trace.append_op(KIND_LOAD, 0x1000_2040, 1, 1)
    trace.append_op(KIND_SFENCE)
    return trace


@pytest.fixture(scope="module")
def trace():
    return small_trace()


# ----------------------------------------------------------------------
# writer / round-trips
# ----------------------------------------------------------------------


def test_writer_matches_save_binary(trace, tmp_path):
    via_save = tmp_path / "save.plptrace"
    via_writer = tmp_path / "writer.plptrace"
    trace.save_binary(via_save, version=2, segment_ops=64)
    with TraceWriter(via_writer, name=trace.name, segment_ops=64) as writer:
        for code, address, gap, flag in zip(
            trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags
        ):
            writer.append_op(code, address, gap, flag)
    assert via_save.read_bytes() == via_writer.read_bytes()


def test_writer_extend_packed_matches_append_op(trace, tmp_path):
    one = tmp_path / "one.plptrace"
    two = tmp_path / "two.plptrace"
    with TraceWriter(one, name=trace.name, segment_ops=50) as writer:
        writer.extend_packed(
            trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags
        )
    with TraceWriter(two, name=trace.name, segment_ops=50) as writer:
        for record in zip(
            trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags
        ):
            writer.append_op(*record)
    assert one.read_bytes() == two.read_bytes()


def test_v1_v2_roundtrip(trace, tmp_path):
    v1 = tmp_path / "v1.plptrace"
    v2 = tmp_path / "v2.plptrace"
    trace.save_binary(v1, version=1)
    loaded_v1 = MemoryTrace.load_binary(v1)
    loaded_v1.save_binary(v2, version=2, segment_ops=37)
    loaded_v2 = MemoryTrace.load_binary(v2)
    assert loaded_v2 == trace
    assert loaded_v2.name == trace.name
    loaded_v2.save_binary(v1, version=1)
    assert MemoryTrace.load_binary(v1) == trace


def test_reader_read_all_both_versions(trace, tmp_path):
    for version, segment_ops in ((1, None), (2, 53)):
        path = tmp_path / f"v{version}.plptrace"
        kwargs = {} if segment_ops is None else {"segment_ops": segment_ops}
        trace.save_binary(path, version=version, **kwargs)
        with TraceReader(path) as reader:
            assert reader.read_all() == trace


# ----------------------------------------------------------------------
# O(1) summary
# ----------------------------------------------------------------------


def test_summary_matches_trace_statistics(trace, tmp_path):
    from repro.workloads.trace import OpKind

    path = tmp_path / "t.plptrace"
    trace.save_binary(path, version=2, segment_ops=61)
    with TraceReader(path) as reader:
        summary = reader.summary()
    assert summary.name == trace.name
    assert summary.version == 2
    assert summary.record_count == len(trace)
    assert summary.instruction_count == trace.instruction_count
    assert summary.loads == trace.count(OpKind.LOAD)
    assert summary.stores == trace.count(OpKind.STORE)
    assert summary.persistent_stores == trace.count(OpKind.STORE, persistent_only=True)
    assert summary.sfences == trace.count(OpKind.SFENCE)
    assert summary.stores_per_kilo_instruction() == pytest.approx(
        trace.stores_per_kilo_instruction()
    )


def test_summary_reads_no_column_data(trace, tmp_path):
    """The v2 summary must come from the header + index alone."""
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, version=2, segment_ops=61)
    with TraceReader(path) as reader:
        golden = reader.summary()
        first = reader.segments[0]
    # Corrupt a byte in the middle of the first segment's column data;
    # the summary must not notice (it never touches the columns).
    raw = bytearray(path.read_bytes())
    raw[first.offset + 5] ^= 0xFF
    path.write_bytes(bytes(raw))
    with TraceReader(path) as reader:
        summary = reader.summary()
    assert summary.record_count == golden.record_count
    assert summary.stores == golden.stores


def test_summary_v1_streams_columns(trace, tmp_path):
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, version=1)
    with TraceReader(path) as reader:
        summary = reader.summary()
    assert summary.version == 1
    assert summary.record_count == len(trace)
    assert summary.instruction_count == trace.instruction_count


# ----------------------------------------------------------------------
# chunk iteration
# ----------------------------------------------------------------------


def _concat_chunks(chunks):
    kinds = bytearray()
    addrs = []
    gaps = []
    flags = bytearray()
    starts = []
    for chunk in chunks:
        starts.append(chunk.start)
        kinds.extend(chunk.kind_codes)
        addrs.extend(chunk.addresses)
        gaps.extend(chunk.gaps)
        flags.extend(chunk.persistent_flags)
    return starts, kinds, addrs, gaps, flags


@pytest.mark.parametrize("version,segment_ops", [(1, 41), (2, 41)])
def test_reader_chunks_match_memory_chunks(trace, tmp_path, version, segment_ops):
    path = tmp_path / "t.plptrace"
    kwargs = {"segment_ops": segment_ops} if version == 2 else {}
    trace.save_binary(path, version=version, **kwargs)
    with TraceReader(path) as reader:
        file_chunks = _concat_chunks(reader.chunks())
    mem_chunks = _concat_chunks(trace.chunks(segment_ops=reader.segment_ops))
    assert file_chunks[0] == mem_chunks[0]  # starts
    assert bytes(file_chunks[1]) == bytes(memoryview(trace.kind_codes))
    assert file_chunks[2] == list(trace.addresses)
    assert file_chunks[3] == list(trace.gaps)
    assert bytes(file_chunks[4]) == bytes(memoryview(trace.persistent_flags))


def test_reader_chunks_subrange(trace, tmp_path):
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, version=2, segment_ops=29)
    lo, hi = 33, len(trace) - 17
    with TraceReader(path) as reader:
        _starts, _kinds, addrs, _gaps, _flags = _concat_chunks(
            reader.chunks(lo, hi)
        )
    assert addrs == list(trace.addresses[lo:hi])


# ----------------------------------------------------------------------
# hardening: reader parity with from_bytes
# ----------------------------------------------------------------------


def _v2_bytes(trace, segment_ops=32) -> bytes:
    return trace.to_bytes(version=2, segment_ops=segment_ops)


def test_reader_truncated_segment_raises(trace, tmp_path):
    blob = _v2_bytes(trace)
    # Cut the file inside the last segment's columns (before the index).
    with TraceReader.from_bytes(blob) as reader:
        last = reader.segments[-1]
    cut = last.offset + 3
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        TraceReader.from_bytes(blob[:cut])
    path = tmp_path / "cut.plptrace"
    path.write_bytes(blob[:cut])
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        TraceReader(path)


def test_reader_corrupt_index_offset_raises(trace):
    blob = bytearray(_v2_bytes(trace))
    with TraceReader.from_bytes(bytes(blob)) as reader:
        first = reader.segments[0]
    # The index is a run of _SEGMENT_ENTRY structs at the tail; corrupt
    # the first entry's offset field so it no longer matches the layout.
    index_offset = len(blob) - (len(reader.segments)) * struct.calcsize("<QIIIIIQ")
    struct.pack_into("<Q", blob, index_offset, first.offset + 7)
    with pytest.raises(TraceFormatError, match="corrupt index"):
        TraceReader.from_bytes(bytes(blob))


def test_reader_mid_column_cut_raises(trace):
    blob = _v2_bytes(trace)
    # Remove bytes from the middle (inside segment 0's address column)
    # while keeping the tail, so the index offsets no longer line up.
    with TraceReader.from_bytes(blob) as reader:
        first = reader.segments[0]
    cut_at = first.offset + first.count + 4  # inside the address column
    mangled = blob[:cut_at] + blob[cut_at + 8 :]
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        TraceReader.from_bytes(mangled)


def test_reader_bad_magic_and_version(trace):
    blob = _v2_bytes(trace)
    with pytest.raises(TraceFormatError, match="magic"):
        TraceReader.from_bytes(b"NOTAPLPT" + blob[8:])
    bad_version = blob[:8] + struct.pack("<H", 9) + blob[10:]
    with pytest.raises(TraceFormatError, match="version"):
        TraceReader.from_bytes(bad_version)


def test_reader_empty_segment_rejected(trace):
    blob = bytearray(_v2_bytes(trace))
    with TraceReader.from_bytes(bytes(blob)) as reader:
        nsegs = len(reader.segments)
    index_offset = len(blob) - nsegs * struct.calcsize("<QIIIIIQ")
    # Zero the first entry's count field (after the 8-byte offset).
    struct.pack_into("<I", blob, index_offset + 8, 0)
    with pytest.raises(TraceFormatError, match="corrupt index"):
        TraceReader.from_bytes(bytes(blob))


# ----------------------------------------------------------------------
# streamed simulation differential
# ----------------------------------------------------------------------


def _assert_stream_matches_run(trace, tmp_path, config, segment_ops):
    """``run_stream`` over the in-memory trace and over a v2 file with
    an awkward segment size both equal the materialized ``run``."""
    ref = TraceSimulator(config).run(trace, 0.2)
    assert TraceSimulator(config).run_stream(trace, 0.2) == ref
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, version=2, segment_ops=segment_ops)
    with TraceReader(path) as reader:
        assert TraceSimulator(config).run_stream(reader, 0.2) == ref


@pytest.mark.parametrize("scheme", list(UpdateScheme))
def test_run_stream_matches_run_batched(trace, tmp_path, scheme):
    _assert_stream_matches_run(trace, tmp_path, SystemConfig(scheme=scheme), 67)


@pytest.mark.parametrize("scheme", list(UpdateScheme))
def test_run_stream_matches_run_skip_ahead(trace, tmp_path, scheme):
    config = SystemConfig(scheme=scheme, engine="skip_ahead")
    _assert_stream_matches_run(trace, tmp_path, config, 73)


@pytest.mark.parametrize("scheme", list(UpdateScheme))
def test_run_stream_matches_run_stepped(trace, tmp_path, scheme):
    config = SystemConfig(scheme=scheme, engine="stepped")
    _assert_stream_matches_run(trace, tmp_path, config, 59)


def test_run_stream_zero_warmup(trace):
    config = SystemConfig(scheme=UpdateScheme.SP)
    ref = TraceSimulator(config).run(trace, 0.0)
    with TraceReader.from_bytes(_v2_bytes(trace, segment_ops=31)) as reader:
        assert TraceSimulator(config).run_stream(reader, 0.0) == ref


@pytest.mark.parametrize("engine", ["batched", "skip_ahead"])
def test_run_stream_rejects_short_source(trace, engine):
    """The op count a source's header promises is checked against the
    ops its chunks actually yield, on both engine families."""
    short = SimpleNamespace(
        summary=lambda: SimpleNamespace(name=trace.name, record_count=len(trace) + 1),
        chunks=lambda: trace.chunks(50),
    )
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.O3, engine=engine))
    with pytest.raises(RuntimeError, match="header promised"):
        sim.run_stream(short, 0.2)


def test_run_stream_rejects_bad_warmup(trace):
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
    with pytest.raises(ValueError):
        sim.run_stream(trace, 1.0)
