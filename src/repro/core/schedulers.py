"""Skip-ahead scoreboard engines for the BMT update hardware.

For trace-scale simulation, stepping the cycle-accurate engine is too
slow in pure Python, so each scheme has an equivalent *scoreboard*: a
per-persist recurrence that advances the clock **directly to the next
completion event** — an engine lane freeing, a pipeline stage draining,
a WPQ slot releasing, an epoch completing — instead of polling lanes
cycle by cycle.  Lane state is held as plain integers and integer
arrays (one busy-until timestamp per BMT level, a ring of WPQ release
times), so a wait is a single comparison and a node update a single
addition:

* sequential (sp):   ``done = max(arrival, engine_free) + Σ level costs``
* pipeline:          ``t(i, L) = max(t(i, L+1), t(i-1, L)) + cost(L)``
  — persist *i* may start level *L* only after persist *i−1* completed
  its level-*L* update (exactly the cycle engine's rule, so the two
  models agree cycle-for-cycle; the tests assert this).
* o3 / coalescing:   per-persist serial path latency, a 1-update/cycle
  MAC issue port, root completion gated on the previous epoch, and
  admission gated on the epoch two back (2-entry ETT).
* unordered:         the strawman — stores do not wait for the root at
  all (completion == arrival); node updates still occupy the engine.

Every wait and every latency flows through two clock primitives —
:meth:`ScoreboardBase._wait_until` and :meth:`ScoreboardBase._elapse` —
which the skip-ahead engines resolve with plain arithmetic.  The
per-cycle ``stepped`` reference swaps in :func:`step_until` and
:func:`step_through`, which consume cycles one at a time, and changes
nothing else, so both make identical scheduling decisions and the
differential harness (``tests/test_engine_differential.py``) can assert
bit-identical results and telemetry streams.  :func:`make_scoreboard`
picks the pair via ``engine=`` (``SystemConfig.engine``).

There is one scoreboard class per lane discipline; what distinguishes
schemes that share a discipline (the SGX tree's path persists,
Triad-NVM's persisted frontier, Anubis' shadow writes) is a constructor
parameter that :func:`make_scoreboard` reads from the scheme's
:class:`~repro.core.schemes.SchemePolicy` row.

All scoreboards share the BMT cache for miss modelling, and report node
update counts, so coalescing's update reduction (~26 % in the paper) is
measured, not assumed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.coalescing import CoalescedPersist, CoalescingUnit
from repro.core.schemes import (
    COALESCING,
    OOO,
    PATH,
    PIPELINE,
    SEQUENTIAL,
    UNORDERED,
    UpdateScheme,
    resolve_levels,
)
from repro.crypto.bmt import BMTGeometry
from repro.mem.metadata_cache import MetadataCaches
from repro.telemetry.events import EventKind, level_track

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Telemetry

ENGINE_KINDS = ("batched", "skip_ahead", "stepped")
"""Timing-engine families: the array-native batched engine (default,
see :mod:`repro.sim.batched`), the scalar skip-ahead event-queue
engine, and the per-cycle reference oracle.  The batched engine
dispatches its eventful ops through the skip-ahead scoreboards; the
stepped oracle runs the same scoreboards on per-cycle clocks."""

_RING_COMPACT_THRESHOLD = 1024
"""Released-slot prefix length that triggers ring-buffer compaction."""


@dataclass
class PersistTiming:
    """Timing outcome for one persist."""

    persist_id: int
    arrival: int
    completion: int
    node_updates: int


class OccupancyRing:
    """FIFO structural-hazard model (WPQ/PTT slot availability).

    Entries are admitted with a known release time; when the ring is
    full, a new admission waits for the oldest entry to release.  The
    release times live in a packed integer array with a head index —
    per-lane integer state the skip-ahead engine reads with one index
    operation, no per-cycle polling and no boxed deque nodes.
    """

    __slots__ = ("capacity", "_releases", "_head")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._releases = array("q")
        self._head = 0

    def admit(self, now: int) -> int:
        """Earliest cycle at which a slot is free (>= now)."""
        releases = self._releases
        head = self._head
        length = len(releases)
        while head < length and releases[head] <= now:
            head += 1
        self._head = head
        if length - head < self.capacity:
            return now
        return releases[length - self.capacity]

    def occupy(self, release_time: int) -> None:
        """Record an admitted entry that frees its slot at ``release_time``."""
        releases = self._releases
        if len(releases) > self._head and release_time < releases[-1]:
            # FIFO slots release in order even if work completes early.
            release_time = releases[-1]
        releases.append(release_time)
        if self._head >= _RING_COMPACT_THRESHOLD:
            del releases[: self._head]
            self._head = 0

    def occupancy(self, now: int) -> int:
        """Entries still resident at cycle ``now``.

        Read-only on purpose: telemetry probes sample at times that may
        run ahead of the admit clock, and dropping released slots here
        would perturb a later :meth:`admit` — observation must not feed
        back into timing.

        The suffix past ``_head`` is non-decreasing (``occupy`` clamps
        each release to the FIFO frontier, and ``admit`` only ever moves
        the head forward), so residency is a bisection, not a scan —
        this sits on the telemetry hot path (sampled per persist).
        """
        releases = self._releases
        return len(releases) - bisect_right(releases, now, self._head)


def step_until(now: int, ready: int) -> int:
    """Per-cycle :meth:`ScoreboardBase._wait_until`: poll the lane every
    cycle until it frees."""
    while now < ready:
        now += 1
    return now


def step_through(start: int, cycles: int) -> int:
    """Per-cycle :meth:`ScoreboardBase._elapse`: tick through a latency
    cycle by cycle.

    Both loops are the point: they re-create the original per-cycle
    stepper's cost model (one comparison per idle cycle, one increment
    per latency cycle) while computing the same timestamps as the
    skip-ahead arithmetic.  Stepped runs are therefore O(total cycles
    waited) — for validation, not sweeps (``BENCH_perf.json`` records
    the gap in the ``engine_batched`` stage).
    """
    now = start
    for _ in range(cycles):
        now += 1
    return now


class ScoreboardBase:
    """Shared path-cost logic for all scoreboard engines."""

    def __init__(
        self,
        geometry: BMTGeometry,
        mac_latency: int = 40,
        bmt_miss_latency: int = 240,
        metadata: Optional[MetadataCaches] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self.geometry = geometry
        self.mac_latency = mac_latency
        self.bmt_miss_latency = bmt_miss_latency
        self.metadata = metadata
        self.telemetry = telemetry
        self.node_update_count = 0
        self.bmt_cache_misses = 0

    # ------------------------------------------------------------------
    # clock primitives (the only place the two engine families differ)
    # ------------------------------------------------------------------

    @staticmethod
    def _wait_until(now: int, ready: int) -> int:
        """Advance the clock directly to a pending event (skip-ahead)."""
        return ready if ready > now else now

    @staticmethod
    def _elapse(start: int, cycles: int) -> int:
        """Complete ``cycles`` of latency in one jump (skip-ahead)."""
        return start + cycles

    def _emit_serial_spans(
        self, persist_id: int, start: int, costs: Sequence[int]
    ) -> None:
        """Emit one BMT level span per node of a serially-walked path.

        The path runs leaf (level = depth) toward the root (level 0);
        each node's update occupies its level for ``costs[i]`` cycles
        starting when the previous node finished.
        """
        tel = self.telemetry
        if tel is None:
            return
        tel.span_walk(
            EventKind.BMT_LEVEL_SPAN, start, costs, persist_id, self.geometry.depth
        )

    def _level_costs(self, path: Sequence[int]) -> List[int]:
        """Per-node update cost (MAC latency + any BMT cache miss)."""
        mac = self.mac_latency
        metadata = self.metadata
        if metadata is None:
            self.node_update_count += len(path)
            return [mac] * len(path)
        miss = self.bmt_miss_latency
        access = metadata.access_bmt_node
        costs = []
        misses = 0
        for label in path:
            if access(label, is_write=True):
                costs.append(mac)
            else:
                costs.append(mac + miss)
                misses += 1
        self.bmt_cache_misses += misses
        self.node_update_count += len(path)
        return costs

    def engine_busy_until(self) -> int:
        """Cycle until which the verification engine is occupied.

        Demand verifications of load fills queue behind in-flight
        updates; schemes with serialized engines (sequential, pipelined)
        report a real backlog, OOO engines effectively none.
        """
        return 0


class SequentialScoreboard(ScoreboardBase):
    """One persist at a time walks leaf to root (sp, secure_wb, and the
    serial-walk zoo schemes).

    Args:
        ack_levels: Path levels (leaf upward) walked before the store is
            acknowledged; ``None`` acks at the root.  With fewer, the
            relaxed upper walk keeps the engine lane busy after the ack
            (Triad-NVM's persisted frontier, Phoenix's leaf).
        persist_levels: Path nodes persisted with each store, serialized
            before the ack: the whole path for the SGX counter tree, the
            counter leaf for SecPM and Phoenix, N for Triad-NVM.
        node_persist_cycles: Cost of one node persist.
    """

    def __init__(
        self,
        *args,
        ack_levels: Optional[int] = None,
        persist_levels: int = 0,
        node_persist_cycles: int = 8,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if ack_levels is not None and ack_levels <= 0:
            raise ValueError("ack_levels must be positive")
        self.ack_levels = ack_levels
        self.persist_levels = persist_levels
        self.node_persist_cycles = node_persist_cycles
        self._persist_cost = persist_levels * node_persist_cycles
        self.path_persists = 0
        self._engine_free = 0

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> PersistTiming:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        # One lane: wait for the engine to free, then walk the path.
        start = self._wait_until(arrival, self._engine_free)
        acked = self.ack_levels
        if acked is None:
            completion = self._elapse(start, sum(costs) + self._persist_cost)
            self._engine_free = completion
        else:
            # Ack once the persisted frontier (leaf upward) is durable,
            # while the relaxed upper levels keep the engine busy.
            completion = self._elapse(
                start, sum(costs[:acked]) + self._persist_cost
            )
            self._engine_free = self._elapse(completion, sum(costs[acked:]))
        self.path_persists += self.persist_levels
        self._emit_serial_spans(persist_id, start, costs)
        return PersistTiming(persist_id, arrival, completion, len(path))

    def engine_busy_until(self) -> int:
        return self._engine_free


class PipelineScoreboard(ScoreboardBase):
    """PLP 1: in-order pipelined BMT updates (strict persistency).

    Args:
        stage_extra: Cycles every level stage adds to its node update —
            Anubis (arXiv:1912.04726) mirrors each level update into a
            persisted shadow table, folded into the stage occupancy.
            ``stage_extra_writes`` counts those writes for the recovery
            model.
    """

    def __init__(self, *args, stage_extra: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stage_extra = stage_extra
        self.stage_extra_writes = 0
        # One busy-until timestamp per BMT level, indexed by level: the
        # per-lane integer-array state the skip-ahead engine jumps on.
        self._level_done = array("q", bytes(8 * (self.geometry.depth + 1)))

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> PersistTiming:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        extra = self.stage_extra
        if extra:
            # Copy, never mutate: _level_costs may hand out memoized
            # lists (the batched engine's scripted walks are reused).
            costs = [cost + extra for cost in costs]
            self.stage_extra_writes += len(path)
        t = arrival
        level_done = self._level_done
        tel = self.telemetry
        wait_until = self._wait_until
        elapse = self._elapse
        # The path runs leaf (depth) to root (0), so the level of
        # path[i] is simply depth - i — no label arithmetic needed.
        level = self.geometry.depth
        for cost in costs:
            start = wait_until(t, level_done[level])
            t = elapse(start, cost)
            level_done[level] = t
            if tel is not None:
                tel.emit(
                    EventKind.BMT_LEVEL_SPAN,
                    start,
                    level_track(level),
                    ident=persist_id,
                    duration=cost,
                )
            level -= 1
        return PersistTiming(persist_id, arrival, t, len(path))

    def engine_busy_until(self) -> int:
        # A demand verification enters at the leaf stage.
        return self._level_done[self.geometry.depth]


class UnorderedScoreboard(ScoreboardBase):
    """Strawman: root ordering unenforced; stores never wait for the root."""

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> PersistTiming:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        self._emit_serial_spans(persist_id, arrival, costs)
        return PersistTiming(persist_id, arrival, arrival, len(path))


class OutOfOrderScoreboard(ScoreboardBase):
    """PLP 2: OOO updates within an epoch, pipelined across epochs.

    Epoch-granularity submission: the memory system hands over the whole
    set of boundary persists at once, which is how EP works (persists
    materialize when the epoch's dirty blocks are flushed).
    """

    def __init__(
        self,
        *args,
        ett_capacity: int = 2,
        wpq_ring: Optional[OccupancyRing] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.ett_capacity = ett_capacity
        self.wpq_ring = wpq_ring
        self.last_issue_time = 0
        self._port_free = 0
        # Root-update completion frontier per closed epoch, in order —
        # the epoch-drain event timestamps the ETT gates wait on.
        self._epoch_done = array("q")

    def _epoch_gates(self) -> Tuple[int, int]:
        """(admission gate, root-order gate) for the next epoch.

        Admission waits for the epoch ``ett_capacity`` back to complete;
        root updates wait for the immediately preceding epoch.
        """
        admission = 0
        if len(self._epoch_done) >= self.ett_capacity:
            admission = self._epoch_done[len(self._epoch_done) - self.ett_capacity]
        root_gate = self._epoch_done[-1] if self._epoch_done else 0
        return admission, root_gate

    def _open_epoch_span(self, start_floor: int) -> Optional[int]:
        """Emit EPOCH_OPEN (+ ETT utilization sample) for the next epoch."""
        tel = self.telemetry
        if tel is None:
            return None
        epoch_id = len(self._epoch_done)
        tel.emit(EventKind.EPOCH_OPEN, start_floor, "epochs", ident=epoch_id)
        recent = self._epoch_done[-self.ett_capacity :]
        inflight = 1 + sum(1 for t in recent if t > start_floor)
        tel.sample(
            "ett.utilization",
            start_floor,
            min(1.0, inflight / self.ett_capacity),
        )
        return epoch_id

    def _drain_epoch_span(self, epoch_id: Optional[int], frontier: int) -> None:
        if epoch_id is not None and self.telemetry is not None:
            self.telemetry.emit(
                EventKind.EPOCH_DRAIN, frontier, "epochs", ident=epoch_id
            )

    def _issue(self, start: int, issue_slots: int) -> int:
        """Reserve the MAC issue port (one node update starts per cycle).

        A persist's ``issue_slots`` node updates are data-dependent and
        spread one MAC latency apart, so consecutive persists only
        contend for the port at their first issue; the interleaved later
        issues almost never collide (the pipelined MAC units give o3 its
        one-update-per-cycle throughput, §IV-B1).
        """
        first = self._wait_until(start, self._port_free)
        self._port_free = first + 1
        return first

    def submit_epoch(
        self, persists: Sequence[Tuple[int, int]], arrival: int
    ) -> List[PersistTiming]:
        """Submit an epoch's persists.

        Args:
            persists: ``(persist_id, leaf_index)`` in arrival order.
            arrival: Cycle at which the epoch boundary flush begins.

        Returns:
            Per-persist timings (root-ack completion times).
        """
        admission, root_gate = self._epoch_gates()
        start_floor = self._wait_until(arrival, admission)
        epoch_span = self._open_epoch_span(start_floor)
        results = []
        epoch_frontier = start_floor
        wait_until = self._wait_until
        elapse = self._elapse
        for persist_id, leaf_index in persists:
            start = self._admit_wpq(start_floor)
            path = self.geometry.path_tuple(leaf_index)
            costs = self._level_costs(path)
            first_issue = self._issue(start, len(path))
            path_done = elapse(first_issue, sum(costs))
            completion = wait_until(path_done, root_gate)
            if completion > epoch_frontier:
                epoch_frontier = completion
            self._release_wpq(completion)
            self._emit_serial_spans(persist_id, first_issue, costs)
            results.append(
                PersistTiming(persist_id, arrival, completion, len(path))
            )
        self._drain_epoch_span(epoch_span, epoch_frontier)
        self._epoch_done.append(epoch_frontier)
        return results

    def _admit_wpq(self, floor: int) -> int:
        """Gate a persist on a WPQ slot; tracks the core-visible stall."""
        if self.wpq_ring is None:
            if floor > self.last_issue_time:
                self.last_issue_time = floor
            return floor
        admit = self._wait_until(floor, self.wpq_ring.admit(floor))
        if admit > self.last_issue_time:
            self.last_issue_time = admit
        return admit

    def _release_wpq(self, completion: int) -> None:
        if self.wpq_ring is not None:
            self.wpq_ring.occupy(completion)


class CoalescingScoreboard(OutOfOrderScoreboard):
    """PLP 3: OOO + paired LCA coalescing of same-epoch updates."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._coalescer = CoalescingUnit(
            self.geometry, policy="paired", telemetry=self.telemetry
        )
        self.coalesced_away = 0

    def submit_epoch(
        self, persists: Sequence[Tuple[int, int]], arrival: int
    ) -> List[PersistTiming]:
        admission, root_gate = self._epoch_gates()
        start_floor = self._wait_until(arrival, admission)
        epoch_span = self._open_epoch_span(start_floor)
        self._coalescer.now = start_floor
        coalesced = self._coalescer.coalesce_epoch(persists)
        self.coalesced_away += self._coalescer.uncoalesced_updates(
            len(coalesced)
        ) - CoalescingUnit.total_updates(coalesced)

        # First pass: own-path completion for every persist.
        own_done: Dict[int, int] = {}
        elapse = self._elapse
        for persist in coalesced:
            start = self._admit_wpq(start_floor)
            if persist.path:
                costs = self._level_costs(persist.path)
                first_issue = self._issue(start, len(persist.path))
                own_done[persist.persist_id] = elapse(first_issue, sum(costs))
                self._emit_serial_spans(persist.persist_id, first_issue, costs)
            else:
                own_done[persist.persist_id] = start

        # Second pass: delegated persists complete with their final
        # delegate's root update; root ordering gated on the prior epoch.
        results = []
        epoch_frontier = start_floor
        wait_until = self._wait_until
        finals = CoalescingUnit.resolve_delegates(coalesced)
        for persist in coalesced:
            final = finals[persist.persist_id]
            path_done = wait_until(own_done[persist.persist_id], own_done[final])
            completion = wait_until(path_done, root_gate)
            if completion > epoch_frontier:
                epoch_frontier = completion
            self._release_wpq(completion)
            results.append(
                PersistTiming(
                    persist.persist_id, arrival, completion, persist.update_count
                )
            )
        self._drain_epoch_span(epoch_span, epoch_frontier)
        self._epoch_done.append(epoch_frontier)
        return results


SCOREBOARDS: Dict[str, type] = {
    SEQUENTIAL: SequentialScoreboard,
    PIPELINE: PipelineScoreboard,
    UNORDERED: UnorderedScoreboard,
    OOO: OutOfOrderScoreboard,
    COALESCING: CoalescingScoreboard,
}
"""Scoreboard class per lane discipline."""


def make_scoreboard(
    scheme: UpdateScheme,
    geometry: BMTGeometry,
    mac_latency: int = 40,
    bmt_miss_latency: int = 240,
    metadata: Optional[MetadataCaches] = None,
    ett_capacity: int = 2,
    wpq_ring: Optional[OccupancyRing] = None,
    telemetry: "Optional[Telemetry]" = None,
    engine: str = "skip_ahead",
    triad_levels: int = 2,
) -> ScoreboardBase:
    """Build the scoreboard a scheme's policy row describes.

    The row's lane discipline picks the class and its ack frontier,
    node persists and stage extra become constructor parameters
    (``triad_levels`` resolves Triad-NVM's N).  ``engine`` selects the
    clock: ``"batched"`` and ``"skip_ahead"`` share the skip-ahead
    arithmetic (the batched engine only changes how the trace walk
    reaches the scoreboard), while ``"stepped"`` installs the per-cycle
    :func:`step_until`/:func:`step_through` pair; all produce
    bit-identical timings.
    """
    if engine not in ENGINE_KINDS:
        raise ValueError(
            f"engine must be one of {ENGINE_KINDS}, got {engine!r}"
        )
    row = scheme.policy
    levels = geometry.levels
    kwargs = {}
    if row.discipline == SEQUENTIAL:
        if row.ack_levels != PATH:
            kwargs["ack_levels"] = resolve_levels(row.ack_levels, levels, triad_levels)
        kwargs["persist_levels"] = resolve_levels(
            row.persist_levels, levels, triad_levels
        )
    elif row.discipline == PIPELINE:
        kwargs["stage_extra"] = row.stage_extra
    elif row.discipline in (OOO, COALESCING):
        kwargs.update(ett_capacity=ett_capacity, wpq_ring=wpq_ring)
    scoreboard = SCOREBOARDS[row.discipline](
        geometry, mac_latency, bmt_miss_latency, metadata, telemetry, **kwargs
    )
    if engine == "stepped":
        scoreboard._wait_until = step_until
        scoreboard._elapse = step_through
    return scoreboard
