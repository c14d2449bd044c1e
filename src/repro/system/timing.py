"""Trace-driven cycle-level simulation of the six evaluated schemes.

The simulator walks a :class:`~repro.workloads.trace.MemoryTrace` and
advances a core-cycle clock:

* non-memory instructions retire at the profile's base IPC;
* loads probe the L1/L2/L3 hierarchy; NVM reads (plus counter/MAC
  metadata fetches) stall the core, damped by a memory-level-parallelism
  factor (decryption and integrity verification overlap use, per §VI);
* stores follow the scheme's persist path:

  - ``secure_wb`` — write-back caches; dirty LLC evictions produce
    unordered tuple writes and *sequential* BMT updates at the MC;
  - ``unordered``/``sp``/``pipeline`` — write-through: every persistent
    store allocates a WPQ slot (stalling when full) and submits a BMT
    update to its scheme's scoreboard;
  - ``o3``/``coalescing`` — write-back within an epoch; the epoch
    boundary flushes the epoch's unique dirty blocks as persists through
    the OOO/coalescing scoreboard, gated by the 2-entry ETT.

BMT update timing runs on the scheme's scoreboard, in the engine family
selected by ``SystemConfig.engine``: the skip-ahead event-queue engine
(default) jumps the clock straight to each pending completion event,
while the per-cycle ``"stepped"`` reference burns every cycle and acts
as the validation oracle — both are bit-identical by construction (see
:mod:`repro.core.schedulers`).  What each persist writes beyond its
tuple comes from the scheme's policy row
(:data:`repro.core.schemes.SCHEME_TABLE`).

The result reports total cycles, IPC, and persists-per-kilo-instruction
(Table V's PPKI metric).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.schedulers import OccupancyRing, make_scoreboard
from repro.core.schemes import resolve_levels
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.metadata_cache import MetadataCaches
from repro.mem.nvm import NVMModel
from repro.persistency.epochs import Epoch, EpochTracker
from repro.sim.batched import run_batched
from repro.sim.stats import StatsRegistry
from repro.sim.stream import run_batched_stream
from repro.system.config import SystemConfig
from repro.telemetry.bus import Telemetry
from repro.telemetry.events import EventKind
from repro.workloads.trace import KIND_LOAD, KIND_SFENCE, MemoryTrace


@dataclass
class SimResult:
    """Outcome of one trace simulation."""

    scheme: str
    trace_name: str
    cycles: int
    instructions: int
    persists: int
    node_updates: int
    bmt_cache_misses: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def ppki(self) -> float:
        """Persists per kilo-instruction (Table V metric)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.persists / self.instructions

    def slowdown_vs(self, baseline: "SimResult") -> float:
        """Execution-time ratio against a baseline run of the same trace."""
        if baseline.instructions != self.instructions:
            raise ValueError("slowdown comparison requires identical traces")
        return self.cycles / baseline.cycles


def _source_name_len(source) -> Tuple[str, int]:
    """Name and op count of a chunk source (TraceReader or MemoryTrace)."""
    if hasattr(source, "summary"):
        summary = source.summary()
        return summary.name, summary.record_count
    return source.name, len(source)


class _WriteCombiner:
    """WPQ write-combining: merges back-to-back writes to one block.

    The WPQ holds tens of entries; a persist whose counter or MAC block
    was written moments ago merges into the pending entry instead of
    issuing a second NVM write.
    """

    __slots__ = ("capacity", "_recent")

    def __init__(self, capacity: int = 16) -> None:
        self.capacity = capacity
        self._recent: "OrderedDict[Tuple[str, int], None]" = OrderedDict()

    def absorbs(self, kind: str, block: int) -> bool:
        """True if this write merges with a recent one (no NVM traffic)."""
        key = (kind, block)
        if key in self._recent:
            self._recent.move_to_end(key)
            return True
        self._recent[key] = None
        if len(self._recent) > self.capacity:
            self._recent.popitem(last=False)
        return False


@dataclass
class _WindowSnapshot:
    """Counter values at the start of the measured window."""

    cycles: float = 0.0
    instructions: int = 0
    persists: int = 0
    node_updates: int = 0
    bmt_misses: int = 0


class TraceSimulator:
    """Cycle-level model configured by a :class:`SystemConfig`."""

    __slots__ = (
        "config",
        "scheme",
        "geometry",
        "stats",
        "hierarchy",
        "metadata",
        "nvm",
        "wpq_ring",
        "scoreboard",
        "epochs",
        "telemetry",
        "_combiner",
        "_num_leaves",
        "_blocks_per_counter_block",
        "_protect_stack",
        "_write_through",
        "_dirty_window",
        "_dirty_window_capacity",
        "_in_warmup",
        "_ticks",
        "_clock_base",
        "_clock_ticks0",
        "_cpi",
        "_next_persist_id",
        "_persist_count",
        "_last_completion",
        "_wpq_stall",
        "_load_stall",
        "_flush_stall",
        "_extra_persist_writes",
        "_writeback_persists",
    )

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.scheme = config.scheme
        self.geometry = config.geometry()
        self.stats = StatsRegistry()
        # Telemetry observes timing; it never feeds back into it, so
        # SimResults are bit-identical with the bus on or off.
        self.telemetry = (
            Telemetry(config.telemetry) if config.telemetry.enabled else None
        )
        if self.telemetry is not None:
            self.telemetry.clock = self._clock_int
        if config.engine == "batched":
            # The batched engine replays all replacement state in its
            # functional prepass (repro.sim.batched) and never touches a
            # live hierarchy; skip allocating the per-set LRU structures
            # but register the stat counters in construction order so
            # ``stats.as_dict()`` carries the same keys either way.
            self.hierarchy = None
            for level in ("l1", "l2", "l3"):
                for suffix in ("hits", "misses", "evictions", "dirty_evictions"):
                    self.stats.counter(f"{level}.{suffix}")
        else:
            self.hierarchy = CacheHierarchy(
                l1_bytes=config.l1_bytes,
                l2_bytes=config.l2_bytes,
                l3_bytes=config.l3_bytes,
                l1_assoc=config.l1_assoc,
                l2_assoc=config.l2_assoc,
                l3_assoc=config.l3_assoc,
                write_through=self.scheme.write_through,
                stats=self.stats,
            )
        self.metadata = MetadataCaches(
            self.geometry,
            counter_bytes=config.counter_cache_bytes,
            mac_bytes=config.mac_cache_bytes,
            bmt_bytes=config.bmt_cache_bytes,
            assoc=config.metadata_assoc,
            ideal=config.ideal_metadata,
            blocks_per_counter_block=config.blocks_per_counter_block,
            stats=self.stats,
            telemetry=self.telemetry,
        )
        self.nvm = NVMModel(config.nvm, stats=self.stats)
        self.wpq_ring = OccupancyRing(config.wpq_entries)
        self.scoreboard = make_scoreboard(
            self.scheme,
            self.geometry,
            mac_latency=config.mac_latency,
            bmt_miss_latency=config.nvm.read_latency,
            metadata=self.metadata,
            ett_capacity=config.ett_entries,
            wpq_ring=self.wpq_ring if self.scheme.uses_epochs else None,
            telemetry=self.telemetry,
            engine=config.engine,
            triad_levels=config.triad_persist_levels,
        )
        # NVM writes issued per persist beyond the data/counter/MAC
        # tuple: the tree nodes (or shadow entries) each zoo scheme
        # pushes into the persistence domain.
        policy = self.scheme.policy
        self._extra_persist_writes = resolve_levels(
            policy.extra_nvm_writes, self.geometry.levels, config.triad_persist_levels
        )
        # A scheme without persistency (secure_wb) updates the BMT only
        # for the dirty blocks the LLC writes back.
        self._writeback_persists = not policy.persistent
        self.epochs = (
            EpochTracker(config.epoch_size) if self.scheme.uses_epochs else None
        )
        self._combiner = _WriteCombiner()
        self._num_leaves = self.geometry.num_leaves
        self._blocks_per_counter_block = config.blocks_per_counter_block
        self._protect_stack = config.protect_stack
        self._write_through = self.scheme.write_through
        self._dirty_window: "OrderedDict[int, None]" = OrderedDict()
        self._dirty_window_capacity = 512
        self._in_warmup = False
        # Prime the residency window with "prehistoric" dirty blocks so
        # the steady-state displacement starts immediately (see
        # _track_dirty); a reserved low region supplies their addresses.
        for i in range(self._dirty_window_capacity):
            self._dirty_window[0x100000 + i * 9] = None
        # The core clock is kept in decomposed form: an integer count of
        # retire ticks since the last stall, plus the float cycle the
        # stall anchored at.  ``_clock() = base + (ticks - ticks0) * cpi``
        # is order-insensitive in the tick count, so the batched engine
        # can bulk-jump over event-free spans and still read the exact
        # same float the scalar loop would have accumulated — even for
        # the non-dyadic CPIs in the SPEC profile table.
        self._ticks = 0
        self._clock_base = 0.0
        self._clock_ticks0 = 0
        self._cpi = 1.0 / config.core_ipc
        self._next_persist_id = 0
        self._persist_count = 0
        self._last_completion = 0
        self._wpq_stall = self.stats.counter("core.wpq_stall_cycles")
        self._load_stall = self.stats.counter("core.load_stall_cycles")
        self._flush_stall = self.stats.counter("core.epoch_flush_cycles")

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, trace: MemoryTrace, warmup_fraction: float = 0.2) -> SimResult:
        """Simulate a trace and report the steady-state window.

        Args:
            trace: The workload.
            warmup_fraction: Leading fraction of the trace simulated to
                warm caches and queues but excluded from the reported
                cycle/instruction counts (the paper measures
                fast-forwarded, warm regions of each benchmark).
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.config.engine == "batched":
            return run_batched(self, trace, warmup_fraction)
        return self._run_scalar(trace.name, len(trace), (trace,), warmup_fraction)

    def run_stream(self, source, warmup_fraction: float = 0.2) -> SimResult:
        """Simulate a chunked trace source without materializing it.

        ``source`` is anything yielding packed column chunks — a
        :class:`~repro.workloads.trace.TraceReader` over an on-disk v2
        trace (the bounded-memory path) or an in-memory
        :class:`MemoryTrace`.  The result is bit-identical to
        ``run(trace, warmup_fraction)`` on the materialized trace for
        every engine; only the memory profile differs: peak RSS is
        O(chunk), the prepass/metadata memos are skipped, and closed
        epochs are counted, not retained.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.epochs is not None:
            self.epochs.retain_closed = False
        name, total = _source_name_len(source)
        if self.config.engine == "batched":
            return run_batched_stream(self, name, total, source.chunks(), warmup_fraction)
        return self._run_scalar(name, total, source.chunks(), warmup_fraction)

    def _run_scalar(
        self, name: str, total: int, chunks, warmup_fraction: float
    ) -> SimResult:
        """The scalar engines' op loop over ``total`` ops of packed
        column chunks; ``run`` passes the materialized trace as the
        only chunk."""
        boundary = int(total * warmup_fraction)
        instructions = 0
        window = _WindowSnapshot()
        self._in_warmup = boundary > 0
        # Local bindings: this loop dominates simulation wall-clock.  It
        # walks the packed columns directly — integer kind codes and
        # primitive array values, no per-record object and no enum
        # identity checks.  The clock only needs materializing inside
        # the handlers, so the loop advances the integer tick count.
        protect_stack = self._protect_stack
        load = self._load
        store = self._store
        barrier = self._barrier
        sfence = KIND_SFENCE
        load_kind = KIND_LOAD
        ticks = self._ticks
        index = 0
        for chunk in chunks:
            for kind, address, gap, persistent in zip(
                chunk.kind_codes, chunk.addresses, chunk.gaps, chunk.persistent_flags
            ):
                if index == boundary:
                    self._in_warmup = False
                    self._ticks = ticks
                    window = self._snapshot(instructions)
                index += 1
                instructions += gap + 1
                if kind == sfence:
                    self._ticks = ticks + gap
                    ticks = self._ticks
                    barrier()
                elif kind == load_kind:
                    ticks += gap + 1
                    self._ticks = ticks
                    load(address >> 6)
                else:
                    ticks += gap + 1
                    self._ticks = ticks
                    store(address >> 6, persistent or protect_stack)
        if index != total:
            raise RuntimeError(f"chunk source yielded {index} ops; header promised {total}")
        self._ticks = ticks
        self._drain()
        return self._make_result(name, window, instructions)

    def _make_result(
        self, trace_name: str, window: "_WindowSnapshot", instructions: int
    ) -> SimResult:
        end_cycle = max(self._clock(), float(self._last_completion))
        cycles = int(end_cycle - window.cycles)
        return SimResult(
            scheme=self.scheme.value,
            trace_name=trace_name,
            cycles=max(cycles, 1),
            instructions=instructions - window.instructions,
            persists=self._persist_count - window.persists,
            node_updates=self.scoreboard.node_update_count - window.node_updates,
            bmt_cache_misses=self.scoreboard.bmt_cache_misses - window.bmt_misses,
            stats=self.stats.as_dict(),
        )

    # ------------------------------------------------------------------
    # the decomposed core clock
    # ------------------------------------------------------------------

    def _clock(self) -> float:
        """Current core cycle (float), derived from the tick count."""
        return self._clock_base + (self._ticks - self._clock_ticks0) * self._cpi

    def _clock_int(self) -> int:
        return int(self._clock_base + (self._ticks - self._clock_ticks0) * self._cpi)

    def _anchor(self, cycle: float) -> None:
        """Re-anchor the clock at ``cycle`` (a stall landed there)."""
        self._clock_base = cycle
        self._clock_ticks0 = self._ticks

    def _snapshot(self, instructions: int) -> "_WindowSnapshot":
        return _WindowSnapshot(
            cycles=self._clock(),
            instructions=instructions,
            persists=self._persist_count,
            node_updates=self.scoreboard.node_update_count,
            bmt_misses=self.scoreboard.bmt_cache_misses,
        )

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------

    def _load(self, block: int) -> None:
        result = self.hierarchy.access(block, is_write=False)
        self._load_timed(block, result.writebacks, result.memory_access)

    def _load_timed(
        self, block: int, writebacks: Tuple[int, ...], memory_access: bool
    ) -> None:
        """Timed half of a load: writebacks, fill and verification stall.

        Shared verbatim between the scalar loop (fed by the live
        hierarchy) and the batched engine (fed by prepass events), so
        both compute identical stalls.
        """
        for victim in writebacks:
            self._handle_writeback(victim)
        if not memory_access:
            return
        now_f = self._clock()
        now = int(now_f)
        done = self.nvm.read(now)
        # Counter and MAC must be on-chip to decrypt/verify the fill.
        if not self.metadata.access_counter(block, is_write=False):
            done = max(done, self.nvm.read(now))
        if not self.metadata.access_mac(block, is_write=False):
            done = max(done, self.nvm.read(now))
        # The fill is integrity-verified up the BMT; verification is
        # overlapped with use (§VI) so it adds no latency, but its node
        # reads occupy — and pollute — the BMT cache.
        access_bmt = self.metadata.access_bmt_node
        for label in self.geometry.path_tuple(self._leaf_of(block)):
            if access_bmt(label, is_write=False):
                break  # verification stops at the first trusted cached node
        # The fill's demand verification queues behind in-flight BMT
        # updates (bounded: demand requests are prioritized after at most
        # one full update path) — the effect that lets the PLP schemes
        # match or beat secure_WB on eviction-heavy workloads like milc.
        backlog_cap = now + self.config.mac_latency * self.geometry.levels
        done = max(done, min(self.scoreboard.engine_busy_until(), backlog_cap))
        stall = (done - now) / self.config.load_mlp
        self._load_stall.add(int(stall))
        self._anchor(now_f + stall)

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------

    def _store(self, block: int, persistent: bool) -> None:
        result = self.hierarchy.access(block, is_write=True)
        for victim in result.writebacks:
            self._handle_writeback(victim)
        if result.memory_access:
            self._allocate_stall()
        if not self._write_through:
            self._track_dirty(block)
        if not persistent:
            return
        if self._writeback_persists:
            return  # persists happen on natural write-backs
        if self.epochs is not None:  # epoch persistency (o3 / coalescing)
            closed = self.epochs.record_store(block)
            if closed is not None:
                self._flush_epoch(closed)
            return
        self._persist_store(block)

    def _allocate_stall(self) -> None:
        """Write-allocate fetch stall for a store that missed the LLC."""
        now_f = self._clock()
        now = int(now_f)
        done = self.nvm.read(now)
        stall = (done - now) / self.config.load_mlp
        self._load_stall.add(int(stall))
        self._anchor(now_f + stall)

    def _track_dirty(self, block: int) -> None:
        """Steady-state dirty residency for write-back schemes.

        The paper measures warm 100 M-instruction regions in which the
        LLC already brims with old dirty data, so each newly dirtied
        block eventually displaces an old one.  Short synthetic traces
        never fill a 4 MB LLC; this bounded residency window models the
        displacement: the block dirtied longest ago (without reuse) is
        written back.
        """
        window = self._dirty_window
        if block in window:
            window.move_to_end(block)
            return
        window[block] = None
        if len(window) > self._dirty_window_capacity:
            victim, _ = window.popitem(last=False)
            self.hierarchy.clean_block(victim)
            # Warm-up displacements only maintain window state — their
            # writebacks belong to the unmeasured prehistory.
            if not self._in_warmup:
                self._handle_writeback(victim)

    def _persist_store(self, block: int) -> None:
        """Write-through persist (unordered / sp / pipeline)."""
        now = int(self._clock())
        admit = self.wpq_ring.admit(now)
        if admit > now:
            self._wpq_stall.add(admit - now)
            self._anchor(float(admit))
            arrival = admit
        else:
            arrival = now
        arrival = self._metadata_update(block, arrival)
        persist_id = self._next_persist_id
        timing = self.scoreboard.submit(persist_id, self._leaf_of(block), arrival)
        self._next_persist_id += 1
        self._persist_count += 1
        self._last_completion = max(self._last_completion, timing.completion)
        self.wpq_ring.occupy(timing.completion)
        tel = self.telemetry
        if tel is not None:
            tel.instant(
                EventKind.WPQ_ENQUEUE, arrival, "wpq", ident=persist_id,
                args={"block": block},
            )
            tel.instant(
                EventKind.WPQ_RELEASE, timing.completion, "wpq", ident=persist_id
            )
            tel.sample(
                "wpq.occupancy", arrival, self.wpq_ring.occupancy(arrival)
            )
        # Tuple writes drain to NVM in the background (bandwidth).
        self._tuple_writes(block, arrival)
        # Extra per-persist metadata writes (SGX whole path, Triad-NVM
        # persisted frontier, Phoenix leaf, Anubis shadow entry).
        for _ in range(self._extra_persist_writes):
            self.nvm.write(arrival)


    def _leaf_of(self, block: int) -> int:
        """Map a block's counter block to a BMT leaf (folding large
        traces into the configured memory size)."""
        return (
            block // self._blocks_per_counter_block
        ) % self._num_leaves

    def _tuple_writes(self, block: int, when: int) -> None:
        """Issue the persist's NVM writes, with WPQ write-combining."""
        if not self._combiner.absorbs("data", block):
            self.nvm.write(when)
        if not self._combiner.absorbs("ctr", self.metadata.counter_block_of(block)):
            self.nvm.write(when)
        if not self._combiner.absorbs("mac", block >> 3):
            self.nvm.write(when)

    def _metadata_update(self, block: int, arrival: int) -> int:
        """Counter and MAC updates for a persist; misses delay it."""
        if not self.metadata.access_counter(block, is_write=True):
            arrival = self.nvm.read(arrival)
        if not self.metadata.access_mac(block, is_write=True):
            arrival = max(arrival, self.nvm.read(arrival))
        return arrival

    # ------------------------------------------------------------------
    # epoch persistency
    # ------------------------------------------------------------------

    def _barrier(self) -> None:
        if self.epochs is None:
            return
        closed = self.epochs.barrier()
        if closed is not None:
            self._flush_epoch(closed)

    def _flush_epoch(self, epoch: Epoch) -> None:
        """Flush an epoch's unique dirty blocks as persists."""
        for block in epoch.dirty_blocks:  # first-store order
            self.hierarchy.clean_block(block)
            self._dirty_window.pop(block, None)  # persisted: now clean
        self._flush_timed(tuple(epoch.dirty_blocks))

    def _flush_timed(self, blocks: Tuple[int, ...]) -> None:
        """Timed half of an epoch flush (shared with the batched engine).

        The functional half — cleaning the flushed blocks out of the
        hierarchy and the dirty-residency window — happens before this
        is called; it never touches the clock, so splitting it off
        preserves the scalar path's arithmetic exactly.
        """
        now = int(self._clock())
        persists: List[Tuple[int, int]] = []
        arrival = now
        for block in blocks:  # first-store order
            arrival = self._metadata_update(block, arrival)
            self._tuple_writes(block, now)
            persists.append((self._next_persist_id, self._leaf_of(block)))
            self._next_persist_id += 1
        if not persists:
            return
        tel = self.telemetry
        if tel is not None:
            for persist_id, _ in persists:
                tel.instant(
                    EventKind.WPQ_ENQUEUE, arrival, "wpq", ident=persist_id
                )
            tel.sample("wpq.occupancy", arrival, self.wpq_ring.occupancy(arrival))
        timings = self.scoreboard.submit_epoch(persists, arrival)
        self._persist_count += len(persists)
        for timing in timings:
            self._last_completion = max(self._last_completion, timing.completion)
            if tel is not None:
                tel.instant(
                    EventKind.WPQ_RELEASE,
                    timing.completion,
                    "wpq",
                    ident=timing.persist_id,
                )
        # The core stalls while flush issue waits for WPQ slots / the ETT.
        issue_done = self.scoreboard.last_issue_time
        now_f = self._clock()
        if issue_done > now_f:
            self._flush_stall.add(int(issue_done - now_f))
            self._anchor(float(issue_done))

    # ------------------------------------------------------------------
    # write-backs (secure_wb background persists; EP stack spills)
    # ------------------------------------------------------------------

    def _handle_writeback(self, block: int) -> None:
        now = int(self._clock())
        arrival = self._metadata_update(block, now)
        self._tuple_writes(block, now)
        if not self._writeback_persists:
            return
        # secure_WB performs sequential BMT updates for evicted blocks;
        # the WPQ gates how far the core can run ahead of the engine.
        admit = self.wpq_ring.admit(now)
        if admit > now:
            self._wpq_stall.add(admit - now)
            self._anchor(float(admit))
            arrival = max(arrival, admit)
        persist_id = self._next_persist_id
        timing = self.scoreboard.submit(persist_id, self._leaf_of(block), arrival)
        self._next_persist_id += 1
        self._persist_count += 1
        self._last_completion = max(self._last_completion, timing.completion)
        self.wpq_ring.occupy(timing.completion)
        tel = self.telemetry
        if tel is not None:
            tel.instant(
                EventKind.WPQ_ENQUEUE, arrival, "wpq", ident=persist_id,
                args={"block": block, "writeback": True},
            )
            tel.instant(
                EventKind.WPQ_RELEASE, timing.completion, "wpq", ident=persist_id
            )
            tel.sample(
                "wpq.occupancy", arrival, self.wpq_ring.occupancy(arrival)
            )

    # ------------------------------------------------------------------
    # end of trace
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        if self.epochs is not None:
            closed = self.epochs.flush()
            if closed is not None:
                self._flush_epoch(closed)
