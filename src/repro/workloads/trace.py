"""Memory trace container and record format.

A trace is a sequence of memory operations annotated with the number of
non-memory instructions preceding each (``gap``), whether the access
targets the persistent region, and explicit epoch barriers (``SFENCE``)
where the workload encodes them.  Addresses are byte addresses; block
and page arithmetic uses 64 B blocks and 4 KB pages throughout.

Storage is **columnar**: a :class:`MemoryTrace` packs its records into
four parallel primitive arrays (kind codes, addresses, gaps, persistent
flags) instead of a list of per-record objects.  A million-record trace
is four contiguous buffers (~14 B/record) rather than a million boxed
dataclasses, and the simulator hot loop iterates the columns directly
with integer kind codes.  Iterating a trace yields :class:`TraceRecord`
objects for callers that want object-per-record semantics.

Two interchangeable serializations are provided:

* a human-readable **text format** (one ``K address gap persistent``
  line per record, ``# trace <name>`` header) via :meth:`MemoryTrace.save`
  / :meth:`MemoryTrace.load`, and
* the chunked **binary format** PLPTRACE v2 (:data:`TRACE_MAGIC` header,
  column segments, trailing segment index), written by
  :class:`TraceWriter` and read by :class:`TraceReader`;
  :meth:`MemoryTrace.save_binary` / :meth:`MemoryTrace.load_binary` are
  whole-trace shorthands for the two — the packed artifact the sweep
  trace cache stores and the streaming engine reads chunk by chunk.
"""

from __future__ import annotations

import enum
import io
import struct
import sys
from array import array
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

BLOCK_SHIFT = 6
PAGE_SHIFT = 12

# Integer kind codes used in the packed kind column (and by the
# simulator hot loop, which never touches the OpKind enum).
KIND_LOAD = 0
KIND_STORE = 1
KIND_SFENCE = 2


class OpKind(enum.Enum):
    """Trace operation type."""

    LOAD = "L"
    STORE = "S"
    SFENCE = "F"

    @property
    def code(self) -> int:
        """The packed integer code stored in the kind column."""
        return _KIND_TO_CODE[self]


_KIND_TO_CODE = {OpKind.LOAD: KIND_LOAD, OpKind.STORE: KIND_STORE, OpKind.SFENCE: KIND_SFENCE}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}
_VALUE_TO_CODE = {kind.value: code for kind, code in _KIND_TO_CODE.items()}
_CODE_TO_VALUE = {code: kind.value for kind, code in _KIND_TO_CODE.items()}


class TraceRecord:
    """One trace entry (an object view of one row of the packed columns).

    Attributes:
        kind: Load, store, or persist barrier.
        address: Byte address (0 for SFENCE).
        gap: Non-memory instructions executed since the previous record.
        persistent: Whether the address lies in the persistent region
            (stack accesses are ``False`` under the paper's default).
    """

    __slots__ = ("kind", "address", "gap", "persistent")

    def __init__(
        self,
        kind: OpKind,
        address: int = 0,
        gap: int = 0,
        persistent: bool = True,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "persistent", persistent)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TraceRecord is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (
            f"TraceRecord(kind={self.kind!r}, address={self.address!r}, "
            f"gap={self.gap!r}, persistent={self.persistent!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.address == other.address
            and self.gap == other.gap
            and self.persistent == other.persistent
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.address, self.gap, self.persistent))

    @property
    def block(self) -> int:
        return self.address >> BLOCK_SHIFT

    @property
    def page(self) -> int:
        return self.address >> PAGE_SHIFT


# Binary trace format (PLPTRACE v2): little-endian header, the trace
# name, then a sequence of fixed-size *segments*, each holding its own
# four column slices back-to-back, then a trailing per-segment index.
# Every index entry carries the segment's byte offset plus summary
# statistics (loads, stores, persistent stores, sfences, gap sum), so
# inspecting a trace touches only the header and the index, never the
# column data.  The index lives at the end so :class:`TraceWriter` can
# stream segments to disk and backpatch the header on close.  Readers
# reject every other version, version 1 (unsegmented) included.
TRACE_MAGIC = b"PLPTRACE"
TRACE_FORMAT_VERSION = 2
# magic, version, reserved, name length, record count, segment size
# (ops), segment count, byte offset of the segment index.
_HEADER = struct.Struct("<8sHHIQIIQ")
# Magic and version lead every PLPTRACE version, so a file of another
# version is named as such even when it is shorter than this header.
_PREAMBLE = struct.Struct("<8sH")
# One index entry per segment: byte offset, op count, loads, stores,
# persistent stores, sfences, gap sum.
_SEGMENT_ENTRY = struct.Struct("<QIIIIIQ")
DEFAULT_SEGMENT_OPS = 1 << 18
_ROW_BYTES = 14  # 1 B kind + 8 B address + 4 B gap + 1 B flag
_BIG_ENDIAN = sys.byteorder == "big"


def _segment_stats(kinds: array, gaps: array, flags: array) -> Tuple[int, int, int, int, int]:
    """One segment's index statistics — loads, stores, persistent
    stores, sfences, gap sum — counted in numpy over the column
    buffers rather than op by op in Python."""
    codes = np.frombuffer(kinds, dtype=np.uint8)
    is_store = codes == KIND_STORE
    persistent = np.frombuffer(flags, dtype=np.uint8) != 0
    return (
        int(np.count_nonzero(codes == KIND_LOAD)),
        int(np.count_nonzero(is_store)),
        int(np.count_nonzero(is_store & persistent)),
        int(np.count_nonzero(codes == KIND_SFENCE)),
        int(np.frombuffer(gaps, dtype=np.uint32).sum(dtype=np.uint64)),
    )


def _swapped(col: array) -> array:
    copy = array(col.typecode, col)
    copy.byteswap()
    return copy


class TraceFormatError(ValueError):
    """Raised when a trace file fails validation: a binary trace's
    header, index or size, or a malformed line of a text trace."""


class MemoryTrace:
    """A columnar in-memory trace with summary statistics and (de)serialization.

    The four public column attributes (``kind_codes``, ``addresses``,
    ``gaps``, ``persistent_flags``) are parallel ``array`` instances of
    equal length; hot paths iterate them directly.  Iterating the trace
    yields :class:`TraceRecord` objects.
    """

    __slots__ = (
        "name",
        "kind_codes",
        "addresses",
        "gaps",
        "persistent_flags",
        "_stat_cache",
    )

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None, name: str = "trace") -> None:
        self.name = name
        self.kind_codes = array("B")
        self.addresses = array("Q")
        self.gaps = array("I")
        self.persistent_flags = array("B")
        self._stat_cache: dict = {}
        if records is not None:
            for record in records:
                self.append(record)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def append(self, record: TraceRecord) -> None:
        self.append_op(
            _KIND_TO_CODE[record.kind],
            record.address,
            record.gap,
            1 if record.persistent else 0,
        )

    def append_op(self, code: int, address: int = 0, gap: int = 0, persistent: int = 1) -> None:
        """Append one packed record (fast path for generators)."""
        self.kind_codes.append(code)
        self.addresses.append(address)
        self.gaps.append(gap)
        self.persistent_flags.append(persistent)
        if self._stat_cache:
            self._stat_cache.clear()

    def __len__(self) -> int:
        return len(self.kind_codes)

    def __iter__(self) -> Iterator[TraceRecord]:
        code_to_kind = _CODE_TO_KIND
        for code, address, gap, persistent in zip(
            self.kind_codes, self.addresses, self.gaps, self.persistent_flags
        ):
            yield TraceRecord(code_to_kind[code], address, gap, bool(persistent))

    def __repr__(self) -> str:
        return f"MemoryTrace(name={self.name!r}, records={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryTrace):
            return NotImplemented
        # Column-direct comparison: four array equality checks, no
        # per-record materialization.
        return (
            self.name == other.name
            and self.kind_codes == other.kind_codes
            and self.addresses == other.addresses
            and self.gaps == other.gaps
            and self.persistent_flags == other.persistent_flags
        )

    # Traces stay identity-hashable (memo tables key on the instance).
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    # statistics (cached; invalidated by append)
    # ------------------------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Total instructions: every record (sfence included) plus gaps."""
        cached = self._stat_cache.get("instructions")
        if cached is None:
            cached = len(self.kind_codes) + sum(self.gaps)
            self._stat_cache["instructions"] = cached
        return cached

    def count(self, kind: OpKind, persistent_only: bool = False) -> int:
        key = ("count", kind, persistent_only)
        cached = self._stat_cache.get(key)
        if cached is None:
            code = _KIND_TO_CODE[kind]
            if persistent_only:
                cached = sum(
                    1
                    for k, p in zip(self.kind_codes, self.persistent_flags)
                    if k == code and p
                )
            else:
                cached = sum(1 for k in self.kind_codes if k == code)
            self._stat_cache[key] = cached
        return cached

    def stores_per_kilo_instruction(self, persistent_only: bool = False) -> float:
        """Store PPKI — comparable to Table V's 'num stores' columns."""
        instructions = self.instruction_count
        if instructions == 0:
            return 0.0
        return 1000.0 * self.count(OpKind.STORE, persistent_only) / instructions

    def touched_blocks(self) -> int:
        cached = self._stat_cache.get("touched_blocks")
        if cached is None:
            sfence = KIND_SFENCE
            cached = len(
                {
                    address >> BLOCK_SHIFT
                    for kind, address in zip(self.kind_codes, self.addresses)
                    if kind != sfence
                }
            )
            self._stat_cache["touched_blocks"] = cached
        return cached

    # ------------------------------------------------------------------
    # text (de)serialization: one record per line, "K address gap persistent"
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        code_to_value = _CODE_TO_VALUE
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# trace {self.name}\n")
            for code, address, gap, persistent in zip(
                self.kind_codes, self.addresses, self.gaps, self.persistent_flags
            ):
                fh.write(f"{code_to_value[code]} {address:x} {gap} {persistent}\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MemoryTrace":
        """Read the text format.

        Raises:
            TraceFormatError: On a malformed record line (wrong field
                count, unknown kind, or a field that is not a number in
                its column's range); the message names the line number.
        """
        # The header names the trace; fall back to the file stem for
        # headerless files.
        trace = cls(name=Path(path).stem)
        value_to_code = _VALUE_TO_CODE
        append_op = trace.append_op
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    header = line[1:].strip()
                    if header.startswith("trace "):
                        trace.name = header[len("trace "):].strip()
                    continue
                try:
                    kind_s, addr_s, gap_s, persistent_s = line.split()
                    append_op(
                        value_to_code[kind_s],
                        int(addr_s, 16),
                        int(gap_s),
                        1 if int(persistent_s) else 0,
                    )
                except (KeyError, ValueError, OverflowError):
                    raise TraceFormatError(
                        f"text trace {path!s} line {lineno}: malformed record "
                        f"{line!r} (expected 'K address gap persistent')"
                    ) from None
        return trace

    # ------------------------------------------------------------------
    # binary (de)serialization: whole-trace PLPTRACE v2 shorthands
    # ------------------------------------------------------------------

    def to_bytes(self, segment_ops: int = DEFAULT_SEGMENT_OPS) -> bytes:
        """Serialize to the binary trace format (``segment_ops`` ops per
        segment)."""
        buf = io.BytesIO()
        self.save_binary(buf, segment_ops)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MemoryTrace":
        """Parse the binary trace format.

        Raises:
            TraceFormatError: On a bad magic, unsupported version, or a
                payload whose size or index disagrees with the header.
        """
        with TraceReader.from_bytes(blob) as reader:
            return reader.read_all()

    def save_binary(
        self, path: Union[str, Path, BinaryIO], segment_ops: int = DEFAULT_SEGMENT_OPS
    ) -> None:
        """Write the binary trace format through :class:`TraceWriter`."""
        with TraceWriter(path, name=self.name, segment_ops=segment_ops) as writer:
            writer.extend_packed(*self._columns())

    @classmethod
    def load_binary(cls, path: Union[str, Path]) -> "MemoryTrace":
        """Read a whole binary trace through :class:`TraceReader`.

        Raises:
            TraceFormatError: On a corrupt, truncated or foreign file.
        """
        with TraceReader(path) as reader:
            return reader.read_all()

    def _columns(self) -> Tuple[array, array, array, array]:
        return (self.kind_codes, self.addresses, self.gaps, self.persistent_flags)

    def chunks(self, segment_ops: int = DEFAULT_SEGMENT_OPS) -> Iterator["TraceChunk"]:
        """Yield the packed columns as :class:`TraceChunk` slices.

        Gives an in-memory trace the same chunk-iterator shape a
        :class:`TraceReader` produces for an on-disk trace, so the
        streaming engine entry points accept either source.
        """
        if segment_ops < 1:
            raise ValueError("segment_ops must be >= 1")
        total = len(self)
        for start in range(0, total, segment_ops):
            stop = min(start + segment_ops, total)
            yield TraceChunk(
                start,
                self.kind_codes[start:stop],
                self.addresses[start:stop],
                self.gaps[start:stop],
                self.persistent_flags[start:stop],
            )

class TraceChunk:
    """A contiguous run of packed trace columns starting at op ``start``.

    The unit the bounded-memory paths trade in: :class:`TraceReader`
    yields chunks from disk, :meth:`MemoryTrace.chunks` slices them from
    memory, and the streaming engine entry points consume them without
    ever materializing :class:`TraceRecord` objects.
    """

    __slots__ = ("start", "kind_codes", "addresses", "gaps", "persistent_flags")

    def __init__(
        self,
        start: int,
        kind_codes: array,
        addresses: array,
        gaps: array,
        persistent_flags: array,
    ) -> None:
        self.start = start
        self.kind_codes = kind_codes
        self.addresses = addresses
        self.gaps = gaps
        self.persistent_flags = persistent_flags

    def __len__(self) -> int:
        return len(self.kind_codes)

    def __repr__(self) -> str:
        return f"TraceChunk(start={self.start}, ops={len(self)})"


class TraceSegment:
    """One index entry: where a segment lives and what it holds."""

    __slots__ = ("offset", "count", "loads", "stores", "persistent_stores", "sfences", "gap_sum")

    def __init__(
        self,
        offset: int,
        count: int,
        loads: int,
        stores: int,
        persistent_stores: int,
        sfences: int,
        gap_sum: int,
    ) -> None:
        self.offset = offset
        self.count = count
        self.loads = loads
        self.stores = stores
        self.persistent_stores = persistent_stores
        self.sfences = sfences
        self.gap_sum = gap_sum

    def __repr__(self) -> str:
        return (
            f"TraceSegment(offset={self.offset}, count={self.count}, "
            f"loads={self.loads}, stores={self.stores}, "
            f"persistent_stores={self.persistent_stores}, "
            f"sfences={self.sfences}, gap_sum={self.gap_sum})"
        )


class TraceSummary:
    """Whole-trace statistics assembled from the segment index.

    This costs only the header + index read (O(1) in the trace
    length).  ``touched_blocks`` is deliberately absent — it requires the
    address column.
    """

    __slots__ = (
        "name",
        "version",
        "record_count",
        "segment_ops",
        "num_segments",
        "loads",
        "stores",
        "persistent_stores",
        "sfences",
        "gap_sum",
    )

    def __init__(
        self,
        name: str,
        version: int,
        record_count: int,
        segment_ops: int,
        num_segments: int,
        loads: int,
        stores: int,
        persistent_stores: int,
        sfences: int,
        gap_sum: int,
    ) -> None:
        self.name = name
        self.version = version
        self.record_count = record_count
        self.segment_ops = segment_ops
        self.num_segments = num_segments
        self.loads = loads
        self.stores = stores
        self.persistent_stores = persistent_stores
        self.sfences = sfences
        self.gap_sum = gap_sum

    @property
    def instruction_count(self) -> int:
        """Every record (sfences included) plus the gaps between them."""
        return self.record_count + self.gap_sum

    def stores_per_kilo_instruction(self, persistent_only: bool = False) -> float:
        instructions = self.instruction_count
        if instructions == 0:
            return 0.0
        stores = self.persistent_stores if persistent_only else self.stores
        return 1000.0 * stores / instructions

    def __repr__(self) -> str:
        return (
            f"TraceSummary(name={self.name!r}, version={self.version}, "
            f"records={self.record_count}, segments={self.num_segments})"
        )


class TraceWriter:
    """Streaming binary trace writer: append ops, segments flush to disk.

    Buffers at most one segment's columns in memory; ``close`` writes
    the trailing segment index and backpatches the header with the true
    record and segment counts.  Accepts a path or a writable seekable
    binary file object (``io.BytesIO`` works for in-memory round trips).
    """

    def __init__(
        self,
        path: Union[str, Path, BinaryIO],
        name: str = "trace",
        segment_ops: int = DEFAULT_SEGMENT_OPS,
    ) -> None:
        if segment_ops < 1:
            raise ValueError("segment_ops must be >= 1")
        self.name = name
        self.segment_ops = segment_ops
        self._name_bytes = name.encode("utf-8")
        if hasattr(path, "write"):
            self._fh = path
            self._owns_fh = False
        else:
            self._fh = open(path, "wb")
            self._owns_fh = True
        self._count = 0
        self._entries: List[Tuple[int, int, int, int, int, int, int]] = []
        self._closed = False
        self._reset_buffers()
        # Placeholder header; count / num_segments / index_offset are
        # backpatched on close.
        self._fh.write(
            _HEADER.pack(
                TRACE_MAGIC, TRACE_FORMAT_VERSION, 0, len(self._name_bytes), 0, segment_ops, 0, 0
            )
        )
        self._fh.write(self._name_bytes)

    def _reset_buffers(self) -> None:
        self._kinds = array("B")
        self._addrs = array("Q")
        self._gaps = array("I")
        self._flags = array("B")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append_op(self, code: int, address: int = 0, gap: int = 0, persistent: int = 1) -> None:
        """Append one packed record (mirrors :meth:`MemoryTrace.append_op`)."""
        self._kinds.append(code)
        self._addrs.append(address)
        self._gaps.append(gap)
        self._flags.append(persistent)
        if len(self._kinds) >= self.segment_ops:
            self._flush_segment()

    def append(self, record: TraceRecord) -> None:
        self.append_op(
            _KIND_TO_CODE[record.kind],
            record.address,
            record.gap,
            1 if record.persistent else 0,
        )

    def extend_packed(self, kinds: array, addresses: array, gaps: array, flags: array) -> None:
        """Bulk-append parallel column slices (segment-boundary aware)."""
        total = len(kinds)
        pos = 0
        while pos < total:
            room = self.segment_ops - len(self._kinds)
            take = min(room, total - pos)
            end = pos + take
            self._kinds.extend(kinds[pos:end])
            self._addrs.extend(addresses[pos:end])
            self._gaps.extend(gaps[pos:end])
            self._flags.extend(flags[pos:end])
            pos = end
            if len(self._kinds) >= self.segment_ops:
                self._flush_segment()

    @property
    def count(self) -> int:
        """Ops appended so far (flushed segments plus the open buffer)."""
        return self._count + len(self._kinds)

    # ------------------------------------------------------------------
    # flushing / closing
    # ------------------------------------------------------------------

    def _flush_segment(self) -> None:
        kinds = self._kinds
        if not kinds:
            return
        loads, stores, persistent_stores, sfences, gap_sum = _segment_stats(
            kinds, self._gaps, self._flags
        )
        offset = self._fh.tell()
        columns: Tuple[array, ...] = (kinds, self._addrs, self._gaps, self._flags)
        if _BIG_ENDIAN:
            columns = tuple(_swapped(col) for col in columns)
        for col in columns:
            self._fh.write(col)
        self._entries.append(
            (offset, len(kinds), loads, stores, persistent_stores, sfences, gap_sum)
        )
        self._count += len(kinds)
        self._reset_buffers()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_segment()
        index_offset = self._fh.tell()
        pack = _SEGMENT_ENTRY.pack
        for entry in self._entries:
            self._fh.write(pack(*entry))
        self._fh.seek(0)
        self._fh.write(
            _HEADER.pack(
                TRACE_MAGIC,
                TRACE_FORMAT_VERSION,
                0,
                len(self._name_bytes),
                self._count,
                self.segment_ops,
                len(self._entries),
                index_offset,
            )
        )
        self._fh.seek(0, 2)
        if self._owns_fh:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Bounded-memory reader over the binary trace format.

    Parses the header and the segment index eagerly, with full
    validation of sizes and offsets; the column data is only touched by
    :meth:`chunks`, one segment at a time.  Any other format version
    (version 1 included) raises :class:`TraceFormatError`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._label = str(path)
        self._fh = open(path, "rb")
        try:
            self._parse()
        except BaseException:
            self._fh.close()
            raise

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceReader":
        """A reader over an in-memory serialized trace (tests, caches)."""
        reader = cls.__new__(cls)
        reader._label = "<bytes>"
        reader._fh = io.BytesIO(blob)
        try:
            reader._parse()
        except BaseException:
            reader._fh.close()
            raise
        return reader

    # ------------------------------------------------------------------
    # header / index parsing
    # ------------------------------------------------------------------

    def _fail(self, detail: str) -> None:
        raise TraceFormatError(f"binary trace {self._label}: {detail}")

    def _read_exact(self, size: int, what: str) -> bytes:
        data = self._fh.read(size)
        if len(data) != size:
            self._fail(f"truncated reading {what}")
        return data

    def _parse(self) -> None:
        fh = self._fh
        fh.seek(0, 2)
        self._size = fh.tell()
        fh.seek(0)
        head = fh.read(_HEADER.size)
        if len(head) >= _PREAMBLE.size:
            magic, version = _PREAMBLE.unpack_from(head)
            if magic != TRACE_MAGIC:
                self._fail(f"bad magic {magic!r} (expected {TRACE_MAGIC!r})")
            if version != TRACE_FORMAT_VERSION:
                self._fail(
                    f"unsupported trace format version {version} "
                    f"(only version {TRACE_FORMAT_VERSION} is read)"
                )
        if len(head) < _HEADER.size:
            self._fail(f"too short: {self._size} bytes < {_HEADER.size}-byte header")
        (
            _magic,
            self.version,
            _reserved,
            name_len,
            self.record_count,
            self.segment_ops,
            num_segments,
            index_offset,
        ) = _HEADER.unpack(head)
        if self.segment_ops < 1:
            self._fail(f"segment size {self.segment_ops} is not positive")
        name_bytes = fh.read(name_len)
        if len(name_bytes) < name_len:
            self._fail(
                f"truncated inside the name: header promises {name_len} "
                f"name bytes, payload has {len(name_bytes)}"
            )
        try:
            self.name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"binary trace {self._label}: name is not UTF-8: {exc}"
            ) from None
        self._data_start = fh.tell()
        self.segments = self._parse_index(num_segments, index_offset)

    def _parse_index(self, num_segments: int, index_offset: int) -> List[TraceSegment]:
        entry = _SEGMENT_ENTRY
        expected = index_offset + num_segments * entry.size
        if index_offset < self._data_start:
            self._fail(
                f"corrupt index: index offset {index_offset} overlaps the "
                f"header/name (data starts at {self._data_start})"
            )
        if self._size != expected:
            damage = "truncated" if self._size < expected else "trailing bytes"
            self._fail(
                f"corrupt index ({damage}): payload is {self._size} bytes; header "
                f"implies {expected} ({num_segments} segments indexed at {index_offset})"
            )
        self._fh.seek(index_offset)
        raw = self._read_exact(num_segments * entry.size, "the segment index")
        segments: List[TraceSegment] = []
        cursor = self._data_start
        total = 0
        for i in range(num_segments):
            fields = entry.unpack_from(raw, i * entry.size)
            seg = TraceSegment(*fields)
            if seg.offset != cursor:
                self._fail(
                    f"corrupt index: segment {i} starts at byte {seg.offset}, "
                    f"expected {cursor}"
                )
            if seg.count < 1:
                self._fail(f"corrupt index: segment {i} is empty")
            if seg.loads + seg.stores + seg.sfences != seg.count:
                self._fail(
                    f"corrupt index: segment {i} op-kind counts "
                    f"({seg.loads}+{seg.stores}+{seg.sfences}) disagree with "
                    f"its op count {seg.count}"
                )
            if seg.persistent_stores > seg.stores:
                self._fail(
                    f"corrupt index: segment {i} claims more persistent "
                    f"stores ({seg.persistent_stores}) than stores ({seg.stores})"
                )
            cursor = seg.offset + seg.count * _ROW_BYTES
            total += seg.count
            segments.append(seg)
        if cursor != index_offset:
            self._fail(
                f"mid-column cut: segment data ends at byte {cursor} but the "
                f"index starts at {index_offset}"
            )
        if total != self.record_count:
            self._fail(
                f"corrupt index: segments hold {total} ops, header promises "
                f"{self.record_count}"
            )
        return segments

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.record_count

    def summary(self) -> TraceSummary:
        """Whole-trace statistics from the header and index alone."""
        segs = self.segments
        return TraceSummary(
            self.name,
            self.version,
            self.record_count,
            self.segment_ops,
            len(segs),
            sum(s.loads for s in segs),
            sum(s.stores for s in segs),
            sum(s.persistent_stores for s in segs),
            sum(s.sfences for s in segs),
            sum(s.gap_sum for s in segs),
        )

    def chunks(self, start: int = 0, stop: Optional[int] = None) -> Iterator[TraceChunk]:
        """Yield packed column chunks covering ops ``[start, stop)``.

        At most one segment's columns are resident at a time.
        """
        total = self.record_count
        if stop is None:
            stop = total
        if not 0 <= start <= stop <= total:
            raise ValueError(
                f"chunk range [{start}, {stop}) out of bounds for {total} ops"
            )
        if start == stop:
            return
        base = 0
        for seg in self.segments:
            seg_start, seg_stop = base, base + seg.count
            base = seg_stop
            if seg_stop <= start:
                continue
            if seg_start >= stop:
                break
            # Each column's offset within the segment payload, shifted
            # to the requested sub-range; only hi - lo items are read.
            lo = max(start, seg_start) - seg_start
            hi = min(stop, seg_stop) - seg_start
            off, n = seg.offset, seg.count
            offsets = (off + lo, off + n + lo * 8, off + n * 9 + lo * 4, off + n * 13 + lo)
            yield TraceChunk(seg_start + lo, *self._read_columns(offsets, hi - lo))

    def _read_columns(
        self, offsets: Tuple[int, int, int, int], count: int
    ) -> Tuple[array, array, array, array]:
        fh = self._fh
        columns = (array("B"), array("Q"), array("I"), array("B"))
        for col, offset in zip(columns, offsets):
            fh.seek(offset)
            col.frombytes(self._read_exact(col.itemsize * count, "column data"))
        if _BIG_ENDIAN:
            for col in columns:
                col.byteswap()
        return columns

    def read_all(self) -> MemoryTrace:
        """Materialize the whole trace (the ``load_binary`` path)."""
        trace = MemoryTrace(name=self.name)
        for chunk in self.chunks():
            trace.kind_codes.extend(chunk.kind_codes)
            trace.addresses.extend(chunk.addresses)
            trace.gaps.extend(chunk.gaps)
            trace.persistent_flags.extend(chunk.persistent_flags)
        return trace

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
