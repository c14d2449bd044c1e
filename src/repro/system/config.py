"""System configuration (paper Table III defaults)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.mem.nvm import NVMConfig
from repro.telemetry.config import TelemetryConfig

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

BLOCK_BYTES = 64
PAGE_BYTES = 4096

_GEOMETRY_CACHE: dict = {}


def _shared_geometry(num_leaves: int, arity: int, min_levels: int) -> BMTGeometry:
    key = (num_leaves, arity, min_levels)
    geometry = _GEOMETRY_CACHE.get(key)
    if geometry is None:
        geometry = BMTGeometry(num_leaves=num_leaves, arity=arity, min_levels=min_levels)
        _GEOMETRY_CACHE[key] = geometry
    return geometry


@dataclass
class SystemConfig:
    """Full-system parameters.

    Defaults reproduce Table III: 4 GHz OOO core, 64 KB L1 / 512 KB L2 /
    4 MB L3, 32-entry WPQ, 128 KB counter/MAC/BMT caches, 9-level BMT,
    40-cycle MAC latency, 8 GB PCM, epoch size 32, 2-entry ETT.  The
    64-entry PTT bounds only the cycle-accurate engine
    (``EngineConfig.ptt_capacity``); the trace-scale timing model's
    back-pressure is the WPQ.
    """

    scheme: UpdateScheme = UpdateScheme.SP

    # Core.
    clock_ghz: float = 4.0
    core_ipc: float = 2.0
    load_mlp: float = 4.0

    # Data caches.
    l1_bytes: int = 64 * KB
    l2_bytes: int = 512 * KB
    l3_bytes: int = 4 * MB
    l1_assoc: int = 8
    l2_assoc: int = 16
    l3_assoc: int = 32

    # Memory controller / WPQ.
    wpq_entries: int = 32

    # Metadata caches.
    counter_cache_bytes: int = 128 * KB
    mac_cache_bytes: int = 128 * KB
    bmt_cache_bytes: int = 128 * KB
    metadata_assoc: int = 8
    ideal_metadata: bool = False

    # Security engine.
    mac_latency: int = 40
    bmt_arity: int = 8
    bmt_min_levels: int = 9
    triad_persist_levels: int = 2
    """Tree levels (leaf upward) persisted per store by ``triad_nvm``
    (Triad-NVM's N; the paper evaluates N = 1, 2, 4).  Higher N slows
    every persist but shrinks the post-crash rebuild frontier."""
    counter_organization: str = "split"
    """``"split"`` (per-page major + 64 minor counters, 1.56 % storage
    overhead) or ``"monolithic"`` (64-bit per block, 12.5 % overhead,
    SGX-style).  Affects counter-cache reach and BMT leaf count."""

    # Memory.
    memory_bytes: int = 8 * GB
    nvm: NVMConfig = field(default_factory=NVMConfig)

    # Persistency.
    epoch_size: int = 32
    ett_entries: int = 2
    protect_stack: bool = False
    """``True`` models the paper's '_full' configurations where every
    store (including the stack) is persistent."""

    # Observability.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    """Structured event tracing / occupancy gauges (off by default).
    Never affects simulation results and is excluded from result-cache
    keys, so toggling it cannot invalidate or fork cached sweeps."""

    # Timing engine.
    engine: str = "batched"
    """Timing-engine family: ``"batched"`` (array-native independence
    runs over the packed trace columns, the default), ``"skip_ahead"``
    (the scalar event-queue engine), or ``"stepped"`` (the per-cycle
    reference oracle).  All three produce bit-identical ``SimResult``s
    and telemetry streams — skip_ahead validates the batched partition,
    stepped validates the skip-ahead arithmetic — so, like
    ``telemetry``, this knob is excluded from result-cache keys."""

    def __post_init__(self) -> None:
        if isinstance(self.scheme, str):
            self.scheme = UpdateScheme.from_name(self.scheme)
        elif not isinstance(self.scheme, UpdateScheme):
            raise ValueError(
                f"scheme must be an UpdateScheme or its name, got {self.scheme!r}"
            )
        if self.engine not in ("batched", "skip_ahead", "stepped"):
            raise ValueError(
                "engine must be 'batched', 'skip_ahead' or 'stepped', "
                f"got {self.engine!r}"
            )
        if self.mac_latency < 0:
            raise ValueError("mac_latency must be non-negative")
        # Degenerate capacities used to slip through silently and blow
        # up far from the constructor (epoch_size=0 is only caught once
        # an epoch scheme builds its EpochTracker, and corrupts epoch
        # accounting; wpq_entries=0 cannot admit any persist).
        for name in (
            "epoch_size",
            "wpq_entries",
            "ett_entries",
            "bmt_arity",
            "triad_persist_levels",
            # Rates the engines divide by and sizes they build tables
            # from; a bad one must fail here, not deep in an engine.
            "clock_ghz",
            "core_ipc",
            "load_mlp",
            "memory_bytes",
            "bmt_min_levels",
            "l1_assoc",
            "l2_assoc",
            "l3_assoc",
            "metadata_assoc",
            "l1_bytes",
            "l2_bytes",
            "l3_bytes",
            "counter_cache_bytes",
            "mac_cache_bytes",
            "bmt_cache_bytes",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # Every cache must hold at least one full set; the scalar engines'
        # Cache rejects a smaller one, which the batched engine's own set
        # arithmetic would otherwise accept.
        for size_name, assoc_name in (
            ("l1_bytes", "l1_assoc"),
            ("l2_bytes", "l2_assoc"),
            ("l3_bytes", "l3_assoc"),
            ("counter_cache_bytes", "metadata_assoc"),
            ("mac_cache_bytes", "metadata_assoc"),
            ("bmt_cache_bytes", "metadata_assoc"),
        ):
            size, assoc = getattr(self, size_name), getattr(self, assoc_name)
            if size // BLOCK_BYTES < assoc:
                raise ValueError(
                    f"{size_name}={size} is smaller than one set of "
                    f"{assoc_name}={assoc} {BLOCK_BYTES} B lines"
                )
        if self.memory_bytes % PAGE_BYTES:
            raise ValueError("memory size must be page aligned")
        if self.counter_organization not in ("split", "monolithic"):
            raise ValueError(
                "counter_organization must be 'split' or 'monolithic'"
            )

    @property
    def num_pages(self) -> int:
        return self.memory_bytes // PAGE_BYTES

    @property
    def num_blocks(self) -> int:
        return self.memory_bytes // BLOCK_BYTES

    @property
    def blocks_per_counter_block(self) -> int:
        """Data blocks covered by one 64 B counter block."""
        return 64 if self.counter_organization == "split" else 8

    @property
    def leaves_per_page(self) -> int:
        """BMT leaves (counter blocks) covering one 4 KB page: 1 under
        the split organization, 8 under monolithic."""
        return (PAGE_BYTES // BLOCK_BYTES) // self.blocks_per_counter_block

    @property
    def counter_storage_overhead(self) -> float:
        """Counter storage as a fraction of protected memory (§II:
        1.56 % split vs 12.5 % monolithic)."""
        return BLOCK_BYTES / (self.blocks_per_counter_block * BLOCK_BYTES)

    def geometry(self) -> BMTGeometry:
        """The BMT over this memory's counter blocks.

        Geometries are immutable, so identical shapes are shared
        process-wide; sharing also shares the label-arithmetic memo
        caches across every simulator in a sweep.
        """
        return _shared_geometry(
            self.num_blocks // self.blocks_per_counter_block,
            self.bmt_arity,
            self.bmt_min_levels,
        )

    def with_scheme(self, scheme: UpdateScheme) -> "SystemConfig":
        """Copy with a different update scheme (benchmark sweeps)."""
        return replace(self, scheme=scheme)

    def variant(self, **changes) -> "SystemConfig":
        """Copy with arbitrary field overrides.

        Raises:
            ValueError: a name in ``changes`` is not a field.
        """
        return replace(self, **changes)


_FIELD_NAMES = frozenset(f.name for f in fields(SystemConfig))
_dataclass_init = SystemConfig.__init__


@functools.wraps(_dataclass_init)
def _checked_init(self, *args, **kwargs) -> None:
    # An unknown keyword is a bad value, like any other rejected config:
    # ValueError naming it, not the generated __init__'s TypeError.
    unknown = kwargs.keys() - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown SystemConfig field(s): {', '.join(sorted(unknown))}")
    _dataclass_init(self, *args, **kwargs)


SystemConfig.__init__ = _checked_init
