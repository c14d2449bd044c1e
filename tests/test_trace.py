"""Tests for trace records and (de)serialization."""

import pytest

from repro.workloads.trace import (
    KIND_LOAD,
    KIND_SFENCE,
    KIND_STORE,
    TRACE_MAGIC,
    MemoryTrace,
    OpKind,
    TraceFormatError,
    TraceRecord,
)


def test_record_block_and_page_arithmetic():
    r = TraceRecord(OpKind.STORE, address=0x1040, gap=3)
    assert r.block == 0x41
    assert r.page == 0x1


def test_instruction_count_includes_gaps_and_ops():
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.LOAD, 0, gap=9),
            TraceRecord(OpKind.STORE, 64, gap=9),
            TraceRecord(OpKind.SFENCE),
        ]
    )
    assert trace.instruction_count == 3 + 18


def test_counts_and_persistent_filter():
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.STORE, 0, persistent=True),
            TraceRecord(OpKind.STORE, 64, persistent=False),
            TraceRecord(OpKind.LOAD, 0),
        ]
    )
    assert trace.count(OpKind.STORE) == 2
    assert trace.count(OpKind.STORE, persistent_only=True) == 1
    assert trace.count(OpKind.LOAD) == 1


def test_stores_per_kilo_instruction():
    records = [TraceRecord(OpKind.STORE, i * 64, gap=9) for i in range(100)]
    trace = MemoryTrace(records)
    assert trace.stores_per_kilo_instruction() == pytest.approx(100.0)


def test_touched_blocks():
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.STORE, 0),
            TraceRecord(OpKind.STORE, 32),  # same block
            TraceRecord(OpKind.LOAD, 128),
        ]
    )
    assert trace.touched_blocks() == 2


def test_save_load_roundtrip(tmp_path):
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.STORE, 0x1000, gap=7, persistent=True),
            TraceRecord(OpKind.LOAD, 0x2040, gap=0, persistent=False),
            TraceRecord(OpKind.SFENCE),
        ],
        name="demo",
    )
    path = tmp_path / "demo.trace"
    trace.save(path)
    loaded = MemoryTrace.load(path)
    assert loaded == trace
    assert loaded.name == "demo"
    # A malformed record line raises TraceFormatError naming its line:
    # unknown kind, missing field, negative and non-hex address.
    for bad in ("X 40 1 1", "S 40 1", "S -40 1 1", "S zz 1 1"):
        path.write_text(f"# trace demo\nS 1000 7 1\n{bad}\n", encoding="ascii")
        with pytest.raises(TraceFormatError, match="line 3"):
            MemoryTrace.load(path)


def test_empty_trace():
    trace = MemoryTrace()
    assert len(trace) == 0
    assert trace.instruction_count == 0
    assert trace.stores_per_kilo_instruction() == 0.0


# ----------------------------------------------------------------------
# columnar storage
# ----------------------------------------------------------------------


SAMPLE = [
    TraceRecord(OpKind.STORE, 0x1000, gap=7, persistent=True),
    TraceRecord(OpKind.LOAD, 0x2040, gap=0, persistent=False),
    TraceRecord(OpKind.SFENCE),
    TraceRecord(OpKind.STORE, 0xFFFF_FFFF_0040, gap=3, persistent=False),
]


def test_columns_parallel_and_packed():
    trace = MemoryTrace(SAMPLE)
    assert list(trace.kind_codes) == [KIND_STORE, KIND_LOAD, KIND_SFENCE, KIND_STORE]
    assert list(trace.addresses) == [r.address for r in SAMPLE]
    assert list(trace.gaps) == [r.gap for r in SAMPLE]
    assert list(trace.persistent_flags) == [int(r.persistent) for r in SAMPLE]
    assert trace.kind_codes.itemsize == 1
    assert trace.addresses.itemsize == 8
    assert list(trace) == SAMPLE


def test_append_op_matches_append():
    via_records = MemoryTrace(SAMPLE)
    via_ops = MemoryTrace()
    for r in SAMPLE:
        via_ops.append_op(r.kind.code, r.address, r.gap, int(r.persistent))
    assert via_ops == via_records


def test_trace_record_is_immutable():
    record = TraceRecord(OpKind.STORE, 0x40)
    with pytest.raises(AttributeError):
        record.address = 0x80


# ----------------------------------------------------------------------
# cached summary statistics
# ----------------------------------------------------------------------


def test_statistics_cache_invalidated_on_append():
    trace = MemoryTrace([TraceRecord(OpKind.STORE, 0, gap=9)])
    assert trace.instruction_count == 10
    assert trace.count(OpKind.STORE) == 1
    assert trace.touched_blocks() == 1
    trace.append(TraceRecord(OpKind.STORE, 128, gap=4, persistent=False))
    assert trace.instruction_count == 15
    assert trace.count(OpKind.STORE) == 2
    assert trace.count(OpKind.STORE, persistent_only=True) == 1
    assert trace.touched_blocks() == 2


def test_repeated_statistics_are_cached():
    trace = MemoryTrace(SAMPLE)
    assert trace.instruction_count == trace.instruction_count
    assert "instructions" in trace._stat_cache
    assert ("count", OpKind.STORE, False) not in trace._stat_cache
    trace.count(OpKind.STORE)
    assert ("count", OpKind.STORE, False) in trace._stat_cache


# ----------------------------------------------------------------------
# text header (regression: load used to discard the header name)
# ----------------------------------------------------------------------


def test_load_parses_header_name_not_file_stem(tmp_path):
    trace = MemoryTrace(SAMPLE, name="real-name")
    path = tmp_path / "different-stem.trace"
    trace.save(path)
    loaded = MemoryTrace.load(path)
    assert loaded.name == "real-name"


def test_load_without_header_falls_back_to_stem(tmp_path):
    path = tmp_path / "stem-name.trace"
    path.write_text("S 1000 7 1\n", encoding="ascii")
    loaded = MemoryTrace.load(path)
    assert loaded.name == "stem-name"
    assert list(loaded) == [TraceRecord(OpKind.STORE, 0x1000, gap=7)]


# ----------------------------------------------------------------------
# binary format round trips
# ----------------------------------------------------------------------


def _assert_traces_identical(a: MemoryTrace, b: MemoryTrace) -> None:
    assert a == b
    for mine, theirs in zip(a, b):
        assert mine.kind is theirs.kind
        assert mine.address == theirs.address
        assert mine.gap == theirs.gap
        assert mine.persistent == theirs.persistent


def test_binary_roundtrip_every_field(tmp_path):
    trace = MemoryTrace(SAMPLE, name="binary-demo")
    path = tmp_path / "demo.bin"
    trace.save_binary(path)
    _assert_traces_identical(MemoryTrace.load_binary(path), trace)


def test_bytes_roundtrip(tmp_path):
    trace = MemoryTrace(SAMPLE, name="bytes-demo")
    _assert_traces_identical(MemoryTrace.from_bytes(trace.to_bytes()), trace)


def test_text_binary_text_roundtrip(tmp_path):
    trace = MemoryTrace(SAMPLE, name="cross-format")
    text_path = tmp_path / "t.trace"
    bin_path = tmp_path / "t.bin"
    trace.save(text_path)
    from_text = MemoryTrace.load(text_path)
    from_text.save_binary(bin_path)
    from_binary = MemoryTrace.load_binary(bin_path)
    _assert_traces_identical(from_binary, trace)


def test_binary_roundtrip_empty_trace(tmp_path):
    trace = MemoryTrace(name="empty")
    path = tmp_path / "empty.bin"
    trace.save_binary(path)
    loaded = MemoryTrace.load_binary(path)
    assert len(loaded) == 0
    assert loaded.name == "empty"


def test_binary_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRCE" + b"\0" * 32)
    with pytest.raises(TraceFormatError, match="magic"):
        MemoryTrace.load_binary(path)


def test_binary_truncated_payload_raises(tmp_path):
    trace = MemoryTrace(SAMPLE, name="trunc")
    path = tmp_path / "trunc.bin"
    trace.save_binary(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TraceFormatError, match="truncated"):
        MemoryTrace.load_binary(path)
    with pytest.raises(TraceFormatError):
        MemoryTrace.from_bytes(blob[:-5])


def test_bytes_roundtrip_zero_op_trace():
    trace = MemoryTrace(name="zero-ops")
    restored = MemoryTrace.from_bytes(trace.to_bytes())
    assert len(restored) == 0
    assert restored.name == "zero-ops"


def test_from_bytes_truncated_inside_name_raises():
    """A payload cut inside the name must raise TraceFormatError, not
    decode garbage or leak a UnicodeDecodeError."""
    trace = MemoryTrace(SAMPLE, name="a-rather-long-trace-name")
    blob = trace.to_bytes()
    with pytest.raises(TraceFormatError, match="name"):
        MemoryTrace.from_bytes(blob[:45])  # header (40 B) + partial name


def test_from_bytes_non_utf8_name_raises():
    trace = MemoryTrace(SAMPLE, name="ascii")
    blob = bytearray(trace.to_bytes())
    blob[40:45] = b"\xff\xfe\xff\xfe\xff"  # clobber the 5-byte name
    with pytest.raises(TraceFormatError, match="UTF-8"):
        MemoryTrace.from_bytes(bytes(blob))


def test_from_bytes_cut_mid_column_raises():
    """Truncation landing mid-item (in a column or in the segment
    index) is a format error."""
    trace = MemoryTrace(SAMPLE, name="midcol")
    blob = trace.to_bytes()
    with pytest.raises(TraceFormatError, match="header implies"):
        MemoryTrace.from_bytes(blob[:-3])  # inside the index entry
    # Inside the flag column, just before the one-entry (36 B) index.
    with pytest.raises(TraceFormatError, match="header implies"):
        MemoryTrace.from_bytes(blob[: len(blob) - 36 - 3])


def test_from_bytes_oversized_payload_raises():
    trace = MemoryTrace(SAMPLE, name="extra")
    with pytest.raises(TraceFormatError, match="header implies"):
        MemoryTrace.from_bytes(trace.to_bytes() + b"\x00" * 7)


def test_load_binary_non_utf8_name_raises(tmp_path):
    trace = MemoryTrace(SAMPLE, name="ascii")
    blob = bytearray(trace.to_bytes())
    blob[40:45] = b"\xff\xfe\xff\xfe\xff"
    path = tmp_path / "garbled.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="UTF-8"):
        MemoryTrace.load_binary(path)


def test_binary_unsupported_version_raises(tmp_path):
    trace = MemoryTrace(SAMPLE, name="ver")
    blob = bytearray(trace.to_bytes())
    assert blob[:8] == TRACE_MAGIC
    blob[8] = 99  # version field (little-endian u16 after the magic)
    with pytest.raises(TraceFormatError, match="version"):
        MemoryTrace.from_bytes(bytes(blob))
    path = tmp_path / "ver.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="version"):
        MemoryTrace.load_binary(path)
