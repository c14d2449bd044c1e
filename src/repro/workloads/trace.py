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
with integer kind codes.  :class:`TraceRecord` and the ``records``
sequence remain as a thin compatibility view for callers that want
object-per-record semantics.

Two interchangeable serializations are provided:

* a human-readable **text format** (one ``K address gap persistent``
  line per record, ``# trace <name>`` header) via :meth:`MemoryTrace.save`
  / :meth:`MemoryTrace.load`, and
* a versioned **binary format** (:data:`TRACE_MAGIC` header followed by
  the raw column bytes, written with ``array.tofile``) via
  :meth:`MemoryTrace.save_binary` / :meth:`MemoryTrace.load_binary` —
  the packed artifact the sweep trace cache stores and memory-maps
  loads from.
"""

from __future__ import annotations

import enum
import struct
import sys
from array import array
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

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
    """One trace entry (compatibility view over the packed columns).

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


class _RecordsView(Sequence):
    """Read-only sequence of :class:`TraceRecord` over a trace's columns.

    Records are materialized on demand; two views over equal columns
    compare equal without building any record objects.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "MemoryTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.kind_codes)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceRecord]: ...

    def __getitem__(self, index):
        trace = self._trace
        if isinstance(index, slice):
            rng = range(*index.indices(len(self)))
            return [trace.record_at(i) for i in rng]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace record index out of range")
        return trace.record_at(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._trace)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RecordsView):
            a, b = self._trace, other._trace
            return (
                a.kind_codes == b.kind_codes
                and a.addresses == b.addresses
                and a.gaps == b.gaps
                and a.persistent_flags == b.persistent_flags
            )
        if isinstance(other, (list, tuple)):
            # Compare the packed columns against the records directly —
            # no TraceRecord is materialized on our side.
            trace = self._trace
            if len(self) != len(other):
                return False
            code_to_kind = _CODE_TO_KIND
            for code, address, gap, persistent, theirs in zip(
                trace.kind_codes,
                trace.addresses,
                trace.gaps,
                trace.persistent_flags,
                other,
            ):
                if not isinstance(theirs, TraceRecord):
                    return False
                if (
                    code_to_kind[code] is not theirs.kind
                    or address != theirs.address
                    or gap != theirs.gap
                    or bool(persistent) != theirs.persistent
                ):
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"<records view of {self._trace!r}>"


# Binary trace format: little-endian header followed by the raw bytes
# of the four columns in declaration order.
#
# v1 stores the whole trace column-major (all kind codes, then all
# addresses, ...), so loading is four bulk reads but anything less than
# the full trace cannot be read without seeking per column.
#
# v2 is the chunked layout for multi-GB traces: the header grows a
# segment-size field and the offset of a trailing per-segment index,
# and the payload is a sequence of fixed-size *segments*, each holding
# its own four column slices back-to-back.  Every index entry carries
# the segment's byte offset plus summary statistics (loads, stores,
# persistent stores, sfences, gap sum), so inspecting a trace touches
# only the header and the index, never the column data.  The index
# lives at the end so :class:`TraceWriter` can stream segments to disk
# and backpatch the header on close.
TRACE_MAGIC = b"PLPTRACE"
TRACE_FORMAT_VERSION = 1
TRACE_FORMAT_VERSION_V2 = 2
_HEADER = struct.Struct("<8sHHIQ")  # magic, version, reserved, name length, record count
# v2 header: the v1 fields followed by segment size (ops), segment
# count, and the byte offset of the segment index.
_HEADER_V2 = struct.Struct("<8sHHIQIIQ")
# One index entry per segment: byte offset, op count, loads, stores,
# persistent stores, sfences, gap sum.
_SEGMENT_ENTRY = struct.Struct("<QIIIIIQ")
DEFAULT_SEGMENT_OPS = 1 << 18
_ROW_BYTES = 14  # 1 B kind + 8 B address + 4 B gap + 1 B flag
_BIG_ENDIAN = sys.byteorder == "big"


class TraceFormatError(ValueError):
    """Raised when binary trace bytes fail header or size validation."""


class MemoryTrace:
    """A columnar in-memory trace with summary statistics and (de)serialization.

    The four public column attributes (``kind_codes``, ``addresses``,
    ``gaps``, ``persistent_flags``) are parallel ``array`` instances of
    equal length; hot paths iterate them directly.  ``records`` exposes
    the classic record-object view.
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

    # ------------------------------------------------------------------
    # record view
    # ------------------------------------------------------------------

    def record_at(self, index: int) -> TraceRecord:
        """Materialize one :class:`TraceRecord` from the columns."""
        return TraceRecord(
            kind=_CODE_TO_KIND[self.kind_codes[index]],
            address=self.addresses[index],
            gap=self.gaps[index],
            persistent=bool(self.persistent_flags[index]),
        )

    @property
    def records(self) -> _RecordsView:
        return _RecordsView(self)

    @records.setter
    def records(self, value: Iterable[TraceRecord]) -> None:
        """Repack the columns from an iterable of records."""
        if isinstance(value, _RecordsView) and value._trace is self:
            return
        records = list(value)
        self.kind_codes = array("B")
        self.addresses = array("Q")
        self.gaps = array("I")
        self.persistent_flags = array("B")
        self._stat_cache = {}
        for record in records:
            self.append(record)

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
    # statistics (cached; invalidated by append / records assignment)
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
        # The header names the trace; fall back to the file stem for
        # headerless files.
        trace = cls(name=Path(path).stem)
        value_to_code = _VALUE_TO_CODE
        append_op = trace.append_op
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    header = line[1:].strip()
                    if header.startswith("trace "):
                        trace.name = header[len("trace "):].strip()
                    continue
                kind_s, addr_s, gap_s, persistent_s = line.split()
                append_op(
                    value_to_code[kind_s],
                    int(addr_s, 16),
                    int(gap_s),
                    1 if int(persistent_s) else 0,
                )
        return trace

    # ------------------------------------------------------------------
    # binary (de)serialization: header + raw little-endian column bytes
    # ------------------------------------------------------------------

    def to_bytes(self, version: int = TRACE_FORMAT_VERSION, segment_ops: int = DEFAULT_SEGMENT_OPS) -> bytes:
        """Serialize to the versioned binary trace format.

        ``version=2`` emits the chunked layout (``segment_ops`` ops per
        segment) via an in-memory :class:`TraceWriter`.
        """
        if version == TRACE_FORMAT_VERSION_V2:
            import io

            buf = io.BytesIO()
            with TraceWriter(buf, name=self.name, segment_ops=segment_ops) as writer:
                writer.extend_packed(*self._columns())
            return buf.getvalue()
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(f"cannot serialize trace format version {version}")
        name_bytes = self.name.encode("utf-8")
        columns = self._columns()
        if _BIG_ENDIAN:
            columns = tuple(self._swapped(col) for col in columns)
        header = _HEADER.pack(
            TRACE_MAGIC, TRACE_FORMAT_VERSION, 0, len(name_bytes), len(self)
        )
        return b"".join((header, name_bytes, *(col.tobytes() for col in columns)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MemoryTrace":
        """Parse the versioned binary trace format.

        Raises:
            TraceFormatError: On a bad magic, unsupported version, or a
                payload whose size disagrees with the header counts.
        """
        if len(blob) < _HEADER.size:
            raise TraceFormatError(
                f"binary trace too short: {len(blob)} bytes < {_HEADER.size}-byte header"
            )
        magic, version, _reserved, name_len, count = _HEADER.unpack_from(blob)
        if magic != TRACE_MAGIC:
            raise TraceFormatError(f"bad trace magic {magic!r} (expected {TRACE_MAGIC!r})")
        if version == TRACE_FORMAT_VERSION_V2:
            with TraceReader.from_bytes(blob) as reader:
                return reader.read_all()
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version} (expected "
                f"{TRACE_FORMAT_VERSION} or {TRACE_FORMAT_VERSION_V2})"
            )
        trace = cls()
        offset = _HEADER.size
        if len(blob) < offset + name_len:
            raise TraceFormatError(
                f"binary trace truncated inside the name: header promises "
                f"{name_len} name bytes, payload has {len(blob) - offset}"
            )
        try:
            trace.name = blob[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"binary trace name is not UTF-8: {exc}") from None
        offset += name_len
        expected = offset + sum(col.itemsize for col in trace._columns()) * count
        if len(blob) != expected:
            raise TraceFormatError(
                f"binary trace payload is {len(blob)} bytes; header implies {expected}"
            )
        try:
            for col in trace._columns():
                size = col.itemsize * count
                col.frombytes(blob[offset : offset + size])
                offset += size
        except ValueError:
            # Unreachable after the size check above (slices are exact
            # item multiples), but array-level errors must never escape.
            raise TraceFormatError(
                f"binary trace columns corrupt: header promised {count} records"
            ) from None
        if _BIG_ENDIAN:
            for col in trace._columns():
                col.byteswap()
        return trace

    def save_binary(
        self,
        path: Union[str, Path],
        version: int = TRACE_FORMAT_VERSION,
        segment_ops: int = DEFAULT_SEGMENT_OPS,
    ) -> None:
        """Write the binary trace format (columns via ``array.tofile``).

        ``version=2`` writes the chunked layout through
        :class:`TraceWriter` with ``segment_ops`` ops per segment.
        """
        if version == TRACE_FORMAT_VERSION_V2:
            with TraceWriter(path, name=self.name, segment_ops=segment_ops) as writer:
                writer.extend_packed(*self._columns())
            return
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(f"cannot serialize trace format version {version}")
        name_bytes = self.name.encode("utf-8")
        columns = self._columns()
        if _BIG_ENDIAN:
            columns = tuple(self._swapped(col) for col in columns)
        with open(path, "wb") as fh:
            fh.write(
                _HEADER.pack(
                    TRACE_MAGIC, TRACE_FORMAT_VERSION, 0, len(name_bytes), len(self)
                )
            )
            fh.write(name_bytes)
            for col in columns:
                col.tofile(fh)

    @classmethod
    def load_binary(cls, path: Union[str, Path]) -> "MemoryTrace":
        """Read the binary trace format (columns via ``array.fromfile``).

        Raises:
            TraceFormatError: On a corrupt or truncated file.
        """
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise TraceFormatError(
                    f"binary trace {path!s} truncated inside the header"
                )
            magic, version, _reserved, name_len, count = _HEADER.unpack(header)
            if magic != TRACE_MAGIC:
                raise TraceFormatError(
                    f"bad trace magic {magic!r} in {path!s} (expected {TRACE_MAGIC!r})"
                )
            if version == TRACE_FORMAT_VERSION_V2:
                with TraceReader(path) as reader:
                    return reader.read_all()
            if version != TRACE_FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported trace format version {version} in {path!s}"
                )
            trace = cls()
            name_bytes = fh.read(name_len)
            if len(name_bytes) < name_len:
                raise TraceFormatError(f"binary trace {path!s} truncated inside the name")
            try:
                trace.name = name_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"binary trace name in {path!s} is not UTF-8: {exc}"
                ) from None
            try:
                for col in trace._columns():
                    col.fromfile(fh, count)
            except (EOFError, ValueError):
                # EOFError for whole-item shortfalls; array raises
                # ValueError when truncation lands mid-item.
                raise TraceFormatError(
                    f"binary trace {path!s} truncated: header promised {count} records"
                ) from None
            if fh.read(1):
                raise TraceFormatError(
                    f"binary trace {path!s} has trailing bytes past {count} records"
                )
        if _BIG_ENDIAN:
            for col in trace._columns():
                col.byteswap()
        return trace

    def _columns(self) -> Tuple[array, array, array, array]:
        return (self.kind_codes, self.addresses, self.gaps, self.persistent_flags)

    def chunks(self, segment_ops: int = DEFAULT_SEGMENT_OPS) -> Iterator["TraceChunk"]:
        """Yield the packed columns as :class:`TraceChunk` slices.

        Gives an in-memory trace the same chunk-iterator shape a
        :class:`TraceReader` produces for an on-disk v2 trace, so the
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

    @staticmethod
    def _swapped(col: array) -> array:
        copy = array(col.typecode, col)
        copy.byteswap()
        return copy


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
    """One v2 index entry: where a segment lives and what it holds."""

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
    """Whole-trace statistics assembled from the v2 segment index.

    For a v2 trace this costs only the header + index read (O(1) in the
    trace length); for v1 the reader streams the columns once in bounded
    memory.  ``touched_blocks`` is deliberately absent — it requires the
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
    """Streaming v2 trace writer: append ops, segments flush to disk.

    Buffers at most one segment's columns in memory; ``close`` writes
    the trailing segment index and backpatches the header with the true
    record and segment counts.  Accepts a path or a writable seekable
    binary file object (``io.BytesIO`` works for in-memory round trips).
    """

    def __init__(
        self,
        path: Union[str, Path, object],
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
            _HEADER_V2.pack(
                TRACE_MAGIC, TRACE_FORMAT_VERSION_V2, 0, len(self._name_bytes), 0, segment_ops, 0, 0
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
        flags = self._flags
        loads = kinds.count(KIND_LOAD)
        stores = kinds.count(KIND_STORE)
        sfences = kinds.count(KIND_SFENCE)
        store_code = KIND_STORE
        persistent_stores = sum(
            1 for k, f in zip(kinds, flags) if k == store_code and f
        )
        gap_sum = sum(self._gaps)
        offset = self._fh.tell()
        columns: Tuple[array, ...] = (kinds, self._addrs, self._gaps, flags)
        if _BIG_ENDIAN:
            columns = tuple(MemoryTrace._swapped(col) for col in columns)
        for col in columns:
            self._fh.write(col.tobytes())
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
            _HEADER_V2.pack(
                TRACE_MAGIC,
                TRACE_FORMAT_VERSION_V2,
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
    """Bounded-memory reader over the binary trace formats.

    Parses the header (and, for v2, the segment index) eagerly with the
    full hardening of :meth:`MemoryTrace.from_bytes`; the column data is
    only touched by :meth:`chunks`, one segment at a time.  v1 traces
    are chunked too (via per-column seeks), so every consumer can treat
    both versions uniformly.
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
        import io

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
        if self._size < _HEADER.size:
            self._fail(f"too short: {self._size} bytes < {_HEADER.size}-byte header")
        magic, version, _reserved, name_len, count = _HEADER.unpack(
            self._read_exact(_HEADER.size, "the header")
        )
        if magic != TRACE_MAGIC:
            self._fail(f"bad magic {magic!r} (expected {TRACE_MAGIC!r})")
        if version not in (TRACE_FORMAT_VERSION, TRACE_FORMAT_VERSION_V2):
            self._fail(f"unsupported trace format version {version}")
        self.version = version
        self.record_count = count
        if version == TRACE_FORMAT_VERSION_V2:
            tail = struct.Struct("<IIQ")
            segment_ops, num_segments, index_offset = tail.unpack(
                self._read_exact(tail.size, "the v2 header")
            )
            if segment_ops < 1:
                self._fail(f"segment size {segment_ops} is not positive")
            self.segment_ops = segment_ops
            self._num_segments = num_segments
            self._index_offset = index_offset
        else:
            self.segment_ops = DEFAULT_SEGMENT_OPS
            self._num_segments = 0
            self._index_offset = 0
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
        if version == TRACE_FORMAT_VERSION_V2:
            self._parse_index()
            self.segments: Optional[List[TraceSegment]] = self._segments
        else:
            expected = self._data_start + _ROW_BYTES * count
            if self._size != expected:
                self._fail(f"payload is {self._size} bytes; header implies {expected}")
            self._segments = None
            self.segments = None

    def _parse_index(self) -> None:
        entry = _SEGMENT_ENTRY
        index_offset = self._index_offset
        num_segments = self._num_segments
        expected = index_offset + num_segments * entry.size
        if index_offset < self._data_start:
            self._fail(
                f"corrupt index: index offset {index_offset} overlaps the "
                f"header/name (data starts at {self._data_start})"
            )
        if self._size != expected:
            self._fail(
                f"corrupt index: payload is {self._size} bytes; header "
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
        if cursor != self._index_offset:
            self._fail(
                f"mid-column cut: segment data ends at byte {cursor} but the "
                f"index starts at {self._index_offset}"
            )
        if total != self.record_count:
            self._fail(
                f"corrupt index: segments hold {total} ops, header promises "
                f"{self.record_count}"
            )
        self._segments = segments

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.record_count

    def summary(self) -> TraceSummary:
        """Whole-trace statistics.

        O(header + index) for v2; a bounded-memory single pass for v1.
        """
        if self.version == TRACE_FORMAT_VERSION_V2:
            segs = self._segments or []
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
        loads = stores = persistent_stores = sfences = gap_sum = 0
        store_code = KIND_STORE
        for chunk in self.chunks():
            kinds = chunk.kind_codes
            loads += kinds.count(KIND_LOAD)
            stores += kinds.count(store_code)
            sfences += kinds.count(KIND_SFENCE)
            persistent_stores += sum(
                1 for k, f in zip(kinds, chunk.persistent_flags) if k == store_code and f
            )
            gap_sum += sum(chunk.gaps)
        return TraceSummary(
            self.name,
            self.version,
            self.record_count,
            self.segment_ops,
            0,
            loads,
            stores,
            persistent_stores,
            sfences,
            gap_sum,
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
        if self.version == TRACE_FORMAT_VERSION_V2:
            yield from self._chunks_v2(start, stop)
        else:
            yield from self._chunks_v1(start, stop)

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

    def _chunks_v2(self, start: int, stop: int) -> Iterator[TraceChunk]:
        base = 0
        for seg in self._segments or []:
            seg_start, seg_stop = base, base + seg.count
            base = seg_stop
            if seg_stop <= start:
                continue
            if seg_start >= stop:
                break
            # Column offsets within the segment payload.
            off = seg.offset
            offsets = (
                off,
                off + seg.count,
                off + seg.count * 9,
                off + seg.count * 13,
            )
            lo = max(start, seg_start) - seg_start
            hi = min(stop, seg_stop) - seg_start
            if lo == 0 and hi == seg.count:
                kinds, addrs, gaps, flags = self._read_columns(offsets, seg.count)
            else:
                # Partial overlap: shift each column offset to the
                # requested sub-range, read only hi - lo items.
                offsets = (
                    offsets[0] + lo,
                    offsets[1] + lo * 8,
                    offsets[2] + lo * 4,
                    offsets[3] + lo,
                )
                kinds, addrs, gaps, flags = self._read_columns(offsets, hi - lo)
            yield TraceChunk(seg_start + lo, kinds, addrs, gaps, flags)

    def _chunks_v1(self, start: int, stop: int) -> Iterator[TraceChunk]:
        count = self.record_count
        kind_base = self._data_start
        addr_base = kind_base + count
        gap_base = addr_base + count * 8
        flag_base = gap_base + count * 4
        step = self.segment_ops
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            n = hi - lo
            offsets = (
                kind_base + lo,
                addr_base + lo * 8,
                gap_base + lo * 4,
                flag_base + lo,
            )
            kinds, addrs, gaps, flags = self._read_columns(offsets, n)
            yield TraceChunk(lo, kinds, addrs, gaps, flags)

    def read_all(self) -> MemoryTrace:
        """Materialize the whole trace (the ``load_binary`` v2 path)."""
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
