"""Array-native batched execution engine (``SystemConfig.engine="batched"``).

The scalar engines walk a trace one op at a time, paying a Python-level
dispatch for every op even though the overwhelming majority of ops are
*silent*: they hit in the L1, touch no queue, no scoreboard, and no
metadata cache — their only effect on the simulation is advancing the
core clock and the cache-replacement state.  The batched engine
exploits that:

1. **Functional prepass** (per trace × cache/persistency shape,
   memoized on the trace): replay only the *functional* state — the
   L1/L2/L3 replacement dictionaries, the dirty-residency window, and
   the epoch dirty sets — in one tight loop with no timing, no
   telemetry, and no per-op object allocation.  The prepass partitions
   the trace into *independence runs*: maximal spans of silent ops
   separated by *eventful* ops (NVM fills, write-backs, WPQ persists,
   epoch flushes) whose cross-op hazards (2SP stalls, coalescing
   delegation, WPQ pressure) need the full scoreboard machinery.

2. **Array kernels** resolve everything the silent spans contribute:
   cumulative tick and instruction counts come from two ``numpy``
   cumsums over the packed ``PLPTRACE`` columns, so the clock can jump
   straight from one eventful op to the next.

3. **Scalar fallback per eventful op**: each eventful op is dispatched
   through the *same* timed handlers the skip-ahead scalar loop uses
   (``_load_timed`` / ``_persist_store`` / ``_flush_timed`` /
   ``_handle_writeback`` on :class:`~repro.system.timing.TraceSimulator`),
   against the same live NVM / WPQ / scoreboard / metadata-cache state.
   :func:`dispatch_events` is the one loop that does this, for the
   memoized whole-trace run (:func:`run_batched`, one chunk) and the
   bounded-memory stream (:mod:`repro.sim.stream`, one call per chunk)
   alike.

Bit-identity with the scalar engines is by construction, not by luck:
the decomposed tick clock (``timing.TraceSimulator._clock``) makes the
cycle at any op a pure function of the integer tick count since the
last stall, so bulk-jumping over a silent span reproduces the exact
float the scalar loop would have accumulated — including for the
non-dyadic CPIs in the SPEC profile table — and the timed handlers are
shared code, not a reimplementation.  The differential harness
(``tests/test_engine_differential.py``) asserts batched ≡ skip_ahead ≡
stepped on ``SimResult``s *and* telemetry streams for all schemes.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from typing import List, Optional, Tuple

import numpy as np

from repro.core.coalescing import CoalescingUnit
from repro.persistency.epochs import Epoch
from repro.workloads.trace import KIND_SFENCE, MemoryTrace

_EV_LOAD = 0
_EV_STORE = 1
_EV_FLUSH = 2

_WINDOW_CAPACITY = 512


class PrepassResult:
    """Memoized functional-prepass outcome for one trace × config shape.

    ``events`` is the independence-run partition: one entry per
    *eventful* op, in trace order — everything between two consecutive
    entries is a silent span the pass-2 clock jumps over.  Each event is
    ``(op_idx, tag, block, writebacks, memory_access, window_victim,
    flush_blocks, extra)`` where ``extra`` is the closing epoch's store
    count for flush events and the persist flag for write-through
    stores.  ``counters`` carries the L1/L2/L3 hit/miss/eviction
    totals the prepass absorbed (folded into the stats registry after
    pass 2).
    """

    __slots__ = ("events", "counters")

    def __init__(self, events: List[tuple], counters: Tuple[int, ...]) -> None:
        self.events = events
        self.counters = counters


def _cache_dims(size_bytes: int, assoc: int) -> Tuple[int, Optional[int], int]:
    """Replicate :class:`repro.mem.cache.Cache` set geometry."""
    num_lines = size_bytes // 64
    num_sets = max(1, num_lines // assoc)
    mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
    return num_sets, mask, assoc


def _prepass_class(scheme, config) -> Tuple[str, Optional[int]]:
    """The (persistency class, epoch size) pair shaping the prepass."""
    if scheme.uses_epochs:
        return "ep", config.epoch_size
    if scheme.write_through:
        return "wt", None
    return "wb", None


def _prepass_key(sim) -> tuple:
    """Every config input of the functional prepass: its memo key."""
    cfg = sim.config
    return (
        *_prepass_class(sim.scheme, cfg),
        cfg.protect_stack,
        cfg.l1_bytes,
        cfg.l1_assoc,
        cfg.l2_bytes,
        cfg.l2_assoc,
        cfg.l3_bytes,
        cfg.l3_assoc,
    )


def _blocks_of_column(addresses) -> List[int]:
    if not len(addresses):
        return []
    blocks = np.frombuffer(memoryview(addresses), dtype=np.uint64)
    return (blocks >> np.uint64(6)).tolist()


class FunctionalPrepass:
    """Chunk-resumable functional replay of the replacement state.

    The stateful core of the prepass: the L1/L2/L3 replacement
    dictionaries, the dirty-residency window, the epoch dirty sets and
    the hit/miss counters all live on the instance, and :meth:`feed`
    advances them over one packed column chunk at a time, returning the
    eventful-op partition for just that chunk.  The memoized whole-trace
    prepass (:func:`_prepass_for`) feeds the trace in one call; the
    streaming path feeds segment-sized chunks to bound its memory.
    Both produce the identical event stream.
    """

    __slots__ = (
        "cls",
        "epoch_size",
        "protect_stack",
        "_dims1",
        "_dims2",
        "_dims3",
        "_l1",
        "_l2",
        "_l3",
        "_window",
        "_ep_count",
        "_ep_dirty",
        "_l1c",
        "_c",
        "_next_idx",
    )

    def __init__(
        self,
        cls: str,
        epoch_size: Optional[int],
        protect_stack: bool,
        dims1: Tuple[int, Optional[int], int],
        dims2: Tuple[int, Optional[int], int],
        dims3: Tuple[int, Optional[int], int],
    ) -> None:
        self.cls = cls
        self.epoch_size = epoch_size
        self.protect_stack = protect_stack
        self._dims1 = dims1
        self._dims2 = dims2
        self._dims3 = dims3
        self._l1 = [{} for _ in range(dims1[0])]
        self._l2 = [{} for _ in range(dims2[0])]
        self._l3 = [{} for _ in range(dims3[0])]
        # Dirty-residency window, primed exactly like the simulator's.
        self._window = {0x100000 + i * 9: None for i in range(_WINDOW_CAPACITY)}
        self._ep_count = 0
        self._ep_dirty: dict = {}
        self._l1c = [0, 0, 0, 0]  # l1 hit/miss/eviction/dirty-eviction
        self._c = [0, 0, 0, 0, 0, 0, 0, 0]  # l2 then l3, same four each
        self._next_idx = 0

    @property
    def next_index(self) -> int:
        """Absolute index of the next op to be fed."""
        return self._next_idx

    @property
    def counters(self) -> Tuple[int, ...]:
        """Cumulative L1/L2/L3 hit/miss/eviction/dirty-eviction totals."""
        return tuple(self._l1c) + tuple(self._c)

    @classmethod
    def for_sim(cls, sim) -> "FunctionalPrepass":
        """A fresh prepass matching ``sim``'s cache/persistency config."""
        cfg = sim.config
        pclass, esize = _prepass_class(sim.scheme, cfg)
        return cls(
            pclass,
            esize,
            cfg.protect_stack,
            _cache_dims(cfg.l1_bytes, cfg.l1_assoc),
            _cache_dims(cfg.l2_bytes, cfg.l2_assoc),
            _cache_dims(cfg.l3_bytes, cfg.l3_assoc),
        )

    def feed(self, kind_codes, addresses, persistent_flags) -> List[tuple]:
        """Replay one chunk of packed columns; return its eventful ops.

        Event tuples carry absolute op indices, so chunked feeding and
        a single whole-trace feed produce the identical event stream.
        """
        return self._replay(
            kind_codes.tolist(),
            _blocks_of_column(addresses),
            persistent_flags.tolist(),
        )

    def finish(self) -> List[tuple]:
        """End-of-trace drain: flush a trailing partial epoch.

        The sentinel event's index is one past the last op, matching
        the scalar ``_drain()``.
        """
        if self.cls == "ep" and self._ep_count:
            blocks = tuple(self._ep_dirty)
            window = self._window
            for b in blocks:
                self._clean(b)
                window.pop(b, None)
            event = (self._next_idx, _EV_FLUSH, 0, (), False, None, blocks, self._ep_count)
            self._ep_count = 0
            self._ep_dirty = {}
            return [event]
        return []

    def _clean(self, block: int) -> None:
        s1, m1, _ = self._dims1
        s2, m2, _ = self._dims2
        s3, m3, _ = self._dims3
        d = self._l1[block & m1] if m1 is not None else self._l1[block % s1]
        if d.get(block):
            d[block] = False
        d = self._l2[block & m2] if m2 is not None else self._l2[block % s2]
        if d.get(block):
            d[block] = False
        d = self._l3[block & m3] if m3 is not None else self._l3[block % s3]
        if d.get(block):
            d[block] = False

    def _replay(self, kinds: List[int], blocks: List[int], flags: List[int]) -> List[tuple]:
        s1, m1, a1 = self._dims1
        s2, m2, a2 = self._dims2
        s3, m3, a3 = self._dims3
        l1, l2, l3 = self._l1, self._l2, self._l3
        c = self._c
        epoch_size = self.epoch_size
        protect_stack = self.protect_stack
        cls = self.cls

        wt = cls == "wt"
        track = not wt
        use_epochs = cls == "ep"

        def spill3(block: int) -> Optional[int]:
            d = l3[block & m3] if m3 is not None else l3[block % s3]
            if block in d:
                d[block] = True
                return None
            out = None
            if len(d) >= a3:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[6] += 1
                if vd:
                    c[7] += 1
                    out = vb
            d[block] = True
            return out

        def spill2(block: int, wbs: List[int]) -> None:
            d = l2[block & m2] if m2 is not None else l2[block % s2]
            if block in d:
                d[block] = True
                return
            if len(d) >= a2:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[2] += 1
                if vd:
                    c[3] += 1
                    out = spill3(vb)
                    if out is not None:
                        wbs.append(out)
            d[block] = True

        def miss_path(
            block: int, dirty_fill: bool, v1b: int, v1d: bool
        ) -> Tuple[List[int], bool]:
            wbs: List[int] = []
            if v1d:
                spill2(v1b, wbs)
            d = l2[block & m2] if m2 is not None else l2[block % s2]
            line = d.get(block)
            if line is not None:
                del d[block]
                d[block] = line or dirty_fill
                c[0] += 1
                return wbs, False
            c[1] += 1
            if len(d) >= a2:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[2] += 1
                if vd:
                    c[3] += 1
                    out = spill3(vb)
                    if out is not None:
                        wbs.append(out)
            d[block] = dirty_fill
            d = l3[block & m3] if m3 is not None else l3[block % s3]
            line = d.get(block)
            if line is not None:
                del d[block]
                d[block] = line or dirty_fill
                c[4] += 1
                return wbs, False
            c[5] += 1
            if len(d) >= a3:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[6] += 1
                if vd:
                    c[7] += 1
                    wbs.append(vb)
            d[block] = dirty_fill
            return wbs, True

        def clean(block: int) -> None:
            d = l1[block & m1] if m1 is not None else l1[block % s1]
            if d.get(block):
                d[block] = False
            d = l2[block & m2] if m2 is not None else l2[block % s2]
            if d.get(block):
                d[block] = False
            d = l3[block & m3] if m3 is not None else l3[block % s3]
            if d.get(block):
                d[block] = False

        window = self._window
        events: List[tuple] = []
        append = events.append
        l1_h, l1_m, l1_e, l1_de = self._l1c
        ep_count = self._ep_count
        ep_dirty = self._ep_dirty
        idx = self._next_idx - 1
        for kind, block, persistent in zip(kinds, blocks, flags):
            idx += 1
            if kind == 2:  # sfence
                if use_epochs and ep_count:
                    blocks_ = tuple(ep_dirty)
                    for b in blocks_:
                        clean(b)
                        window.pop(b, None)
                    append((idx, _EV_FLUSH, 0, (), False, None, blocks_, ep_count))
                    ep_count = 0
                    ep_dirty = {}
                continue
            is_write = kind == 1
            d1 = l1[block & m1] if m1 is not None else l1[block % s1]
            line = d1.get(block)
            if line is None:
                l1_m += 1
                v1b = 0
                v1d = False
                if len(d1) >= a1:
                    v1b = next(iter(d1))
                    v1d = d1.pop(v1b)
                    l1_e += 1
                    if v1d:
                        l1_de += 1
                dirty_fill = is_write and track
                d1[block] = dirty_fill
                wbs, mem = miss_path(block, dirty_fill, v1b, v1d)
            else:
                l1_h += 1
                del d1[block]
                d1[block] = line or (is_write and track)
                wbs = None
                mem = False
            if is_write:
                victim = None
                if track:
                    if block in window:
                        del window[block]
                        window[block] = None
                    else:
                        window[block] = None
                        if len(window) > _WINDOW_CAPACITY:
                            victim = next(iter(window))
                            del window[victim]
                            clean(victim)
                if persistent or protect_stack:
                    if use_epochs:
                        ep_count += 1
                        if block not in ep_dirty:
                            ep_dirty[block] = None
                        if epoch_size is not None and ep_count >= epoch_size:
                            flush = tuple(ep_dirty)
                            for b in flush:
                                clean(b)
                                window.pop(b, None)
                            append(
                                (idx, _EV_STORE, block, wbs or (), mem, victim, flush, ep_count)
                            )
                            ep_count = 0
                            ep_dirty = {}
                            continue
                    elif wt:
                        append((idx, _EV_STORE, block, wbs or (), mem, victim, None, 1))
                        continue
                if wbs or mem or victim is not None:
                    append((idx, _EV_STORE, block, wbs or (), mem, victim, None, 0))
            elif mem or wbs:
                append((idx, _EV_LOAD, block, wbs or (), mem, None, None, 0))

        self._l1c[0] = l1_h
        self._l1c[1] = l1_m
        self._l1c[2] = l1_e
        self._l1c[3] = l1_de
        self._ep_count = ep_count
        self._ep_dirty = ep_dirty
        self._next_idx = idx + 1
        return events


def _prepass_for(sim, trace: MemoryTrace) -> PrepassResult:
    """Fetch (or compute and memoize) the trace's functional prepass.

    One timing-free replay of the replacement + persistency state.  It
    mirrors, operation for operation, the functional half of the scalar
    loop: LRU movement and eviction in the three data-cache levels
    (:class:`~repro.mem.cache.Cache` semantics, down to the dirty-bit
    and counter behaviour of ``access``/``fill``/``probe``/``clean``),
    the bounded dirty-residency window, and the epoch dirty sets.  None
    of these ever read the clock, which is what makes the factorization
    sound; the proof obligation is discharged empirically by the
    differential harness.

    The memo rides on ``trace._stat_cache`` so it is invalidated
    whenever the trace mutates, shared across every simulation of the
    same trace under the same cache/persistency shape, and inherited
    for free by forked sweep-pool workers.
    """
    key = ("batched_prepass", *_prepass_key(sim))
    memo = trace._stat_cache
    result = memo.get(key)
    if result is None:
        pre = FunctionalPrepass.for_sim(sim)
        events = pre.feed(trace.kind_codes, trace.addresses, trace.persistent_flags)
        events.extend(pre.finish())
        result = memo[key] = PrepassResult(events, pre.counters)
    return result


class MetadataScript:
    """Precomputed metadata-cache outcomes for one run shape.

    The metadata caches see a deterministic access sequence: every
    access happens inside an eventful op's handler, the events come in
    trace order, and each handler's internal sequence is fixed by the
    scheme.  None of the lookup *outcomes* depend on the clock — only
    the latencies charged for them do — so everything the handlers ask
    of the metadata layer can be replayed from precomputed streams in
    pass 2 instead of live LRU caches:

    * ``stream`` — hit/miss booleans for counter reads/writes, MAC
      reads/writes, and the load path's BMT read walks, in call order;
    * ``walks`` — one ``(costs, misses)`` entry per ``_level_costs``
      call (the scoreboards' BMT update walks), in call order.  ``costs``
      is a tuple the consumers only read: every walk without a BMT-cache
      miss is the one shared all-hit record for its path length;
    * ``combiner`` — absorb/no-absorb booleans for the WPQ
      write-combiner (``_tuple_writes``), in call order;
    * ``counts`` — (hits, misses, evictions, dirty_evictions) totals
      per metadata cache, folded into the registry after pass 2.
    """

    __slots__ = ("stream", "walks", "combiner", "counts")

    def __init__(
        self,
        stream: List[bool],
        walks: List[Tuple[Tuple[int, ...], int]],
        combiner: List[bool],
        counts: Tuple[int, ...],
    ) -> None:
        self.stream = stream
        self.walks = walks
        self.combiner = combiner
        self.counts = counts


def _md_access(sets: List[dict], stats: List[int], dims: Tuple[int, Optional[int], int]):
    """A metadata cache replayed as per-set dicts (Cache semantics,
    write_through=False): value is the dirty bit, dict order is LRU.
    The sets/stats live on the caller so the closure can be rebuilt
    per chunk without losing state."""
    num_sets, mask, assoc = dims

    def access(key: int, dirty: bool) -> bool:
        d = sets[key & mask] if mask is not None else sets[key % num_sets]
        cur = d.get(key)
        if cur is not None:
            del d[key]
            d[key] = cur or dirty
            stats[0] += 1
            return True
        stats[1] += 1
        if len(d) >= assoc:
            vd = d.pop(next(iter(d)))
            stats[2] += 1
            if vd:
                stats[3] += 1
        d[key] = dirty
        return False

    return access


class MetadataReplay:
    """Chunk-resumable replay of the metadata caches and combiner.

    Mirrors, access for access, the sequence the timed handlers issue:

    * write-back of a victim: counter W, MAC W (``_metadata_update``),
      tuple writes through the combiner, plus a full-path BMT update
      walk under ``secure_wb``;
    * a load's NVM fill: counter R, MAC R, then a BMT read walk that
      stops at the first cached node (or the pinned root);
    * a write-through persist: counter W, MAC W, tuple writes, and a
      full-path BMT walk;
    * an epoch flush: counter W + MAC W + tuple writes per dirty block
      in first-store order, then one BMT update walk per persist — the
      full path under o3, the LCA-truncated path under coalescing (the
      truncation is a pure function of the leaf sequence;
      ``CoalescingUnit.now`` only stamps telemetry, which is off
      whenever the script is in use; empty coalesced paths never reach
      ``_level_costs``, so they add no walk entry).

    BMT update walks are resolved all the way to per-node cost tuples
    (MAC latency, plus the miss penalty on a BMT cache miss) so pass 2
    can feed the scoreboards one precomputed tuple per ``_level_costs``
    call.  The pinned root (label 0) costs one MAC latency and never
    touches the cache, matching ``access_bmt_node``.  Nearly every walk
    hits at every level, so an all-hit walk appends one shared
    ``((mac,) * n, 0)`` record per path length ``n``; only a walk that
    misses allocates its own costs.

    The replay reads no scheme: only ``persistent`` (without it,
    written-back blocks walk the BMT) and ``coalesced`` (LCA pairing of
    an epoch's walks).  Every scheme with the same two flags and
    prepass shape therefore replays the same script.

    :meth:`feed` consumes one chunk of prepass events and buffers the
    scripted outcomes; :meth:`take` drains the buffers.  The memoized
    script feeds the whole event partition at once, the streaming path
    one chunk's events at a time; the outcomes are identical.
    """

    __slots__ = (
        "boundary",
        "_geometry",
        "_bpcb",
        "_mac_latency",
        "_miss_cost",
        "_dims_ctr",
        "_dims_mac",
        "_dims_bmt",
        "_ctr_sets",
        "_ctr_stats",
        "_mac_sets",
        "_mac_stats",
        "_bmt_sets",
        "_bmt_stats",
        "_comb",
        "_coalescer",
        "_writeback_persists",
        "_stream",
        "_walks",
        "_hit_walks",
        "_comb_stream",
    )

    def __init__(
        self,
        geometry,
        boundary: int,
        persistent: bool,
        coalesced: bool,
        bpcb: int,
        mac_latency: int,
        miss_latency: int,
        dims_ctr: Tuple[int, Optional[int], int],
        dims_mac: Tuple[int, Optional[int], int],
        dims_bmt: Tuple[int, Optional[int], int],
    ) -> None:
        self.boundary = boundary
        self._geometry = geometry
        self._bpcb = bpcb
        self._mac_latency = mac_latency
        self._miss_cost = mac_latency + miss_latency
        self._dims_ctr = dims_ctr
        self._dims_mac = dims_mac
        self._dims_bmt = dims_bmt
        self._ctr_sets = [{} for _ in range(dims_ctr[0])]
        self._ctr_stats = [0, 0, 0, 0]  # hits, misses, evictions, dirty
        self._mac_sets = [{} for _ in range(dims_mac[0])]
        self._mac_stats = [0, 0, 0, 0]
        self._bmt_sets = [{} for _ in range(dims_bmt[0])]
        self._bmt_stats = [0, 0, 0, 0]
        # The WPQ write-combiner (timing.{_WriteCombiner,_tuple_writes}):
        # a 16-entry LRU over (kind, block) keys, insertion order = LRU.
        self._comb: dict = {}
        # A scheme without persistency (secure_wb) walks the BMT for
        # written-back blocks (timing.TraceSimulator._handle_writeback).
        self._writeback_persists = not persistent
        self._coalescer = (
            CoalescingUnit(geometry, policy="paired", telemetry=None)
            if coalesced
            else None
        )
        self._stream: List[bool] = []
        self._walks: List[Tuple[Tuple[int, ...], int]] = []
        self._hit_walks: dict = {}  # path length -> shared all-hit walk
        self._comb_stream: List[bool] = []

    @property
    def counts(self) -> Tuple[int, ...]:
        """Cumulative ctr/mac/bmt hit/miss/eviction/dirty totals."""
        return tuple(self._ctr_stats + self._mac_stats + self._bmt_stats)

    @classmethod
    def for_sim(cls, sim, boundary: int) -> "MetadataReplay":
        """A fresh replay matching ``sim``'s metadata config."""
        return cls(sim.geometry, *_replay_inputs(sim, boundary))

    def take(self) -> Tuple[List[bool], List[Tuple[Tuple[int, ...], int]], List[bool]]:
        """Drain the buffered (stream, walks, combiner) outcomes."""
        out = (self._stream, self._walks, self._comb_stream)
        self._stream = []
        self._walks = []
        self._comb_stream = []
        return out

    def feed(self, events: List[tuple]) -> None:
        """Replay one chunk of prepass events into the buffers."""
        ctr = _md_access(self._ctr_sets, self._ctr_stats, self._dims_ctr)
        mac = _md_access(self._mac_sets, self._mac_stats, self._dims_mac)
        bmt = _md_access(self._bmt_sets, self._bmt_stats, self._dims_bmt)
        geometry = self._geometry
        arity = geometry.arity
        num_leaves = geometry.num_leaves
        path_tuple = geometry.path_tuple
        bpcb = self._bpcb
        mac_latency = self._mac_latency
        miss_cost = self._miss_cost
        boundary = self.boundary
        writeback_persists = self._writeback_persists
        coalescer = self._coalescer
        comb = self._comb
        walks = self._walks
        hit_walks = self._hit_walks
        emit = self._stream.append
        emit_comb = self._comb_stream.append

        def absorbs(key) -> None:
            if key in comb:
                del comb[key]
                comb[key] = None
                emit_comb(True)
                return
            comb[key] = None
            if len(comb) > 16:
                del comb[next(iter(comb))]
            emit_comb(False)

        def tuple_writes(block: int) -> None:
            absorbs(("data", block))
            absorbs(("ctr", block // bpcb))
            absorbs(("mac", block >> 3))

        def bmt_update_walk(path) -> None:
            missed = [
                i
                for i, label in enumerate(path)
                if label and not bmt((label - 1) // arity, True)
            ]
            if missed:
                costs = [mac_latency] * len(path)
                for i in missed:
                    costs[i] = miss_cost
                walks.append((tuple(costs), len(missed)))
                return
            walk = hit_walks.get(len(path))
            if walk is None:
                walk = hit_walks[len(path)] = ((mac_latency,) * len(path), 0)
            walks.append(walk)

        def writeback(victim: int) -> None:
            emit(ctr(victim // bpcb, True))
            emit(mac(victim >> 3, True))
            tuple_writes(victim)
            if writeback_persists:
                bmt_update_walk(path_tuple(victim // bpcb % num_leaves))

        def flush(blocks) -> None:
            for b in blocks:
                emit(ctr(b // bpcb, True))
                emit(mac(b >> 3, True))
                tuple_writes(b)
            if coalescer is not None:
                # Pairing depends only on the leaf sequence, not the ids.
                pairs = [(i, b // bpcb % num_leaves) for i, b in enumerate(blocks)]
                for persist in coalescer.coalesce_epoch(pairs):
                    if persist.path:
                        bmt_update_walk(persist.path)
            else:
                for b in blocks:
                    bmt_update_walk(path_tuple(b // bpcb % num_leaves))

        for ev in events:
            tag = ev[1]
            if tag == _EV_STORE:
                for victim in ev[3]:
                    writeback(victim)
                if ev[5] is not None and ev[0] >= boundary:
                    writeback(ev[5])
                if ev[6] is not None:
                    flush(ev[6])
                elif ev[7]:
                    block = ev[2]
                    emit(ctr(block // bpcb, True))
                    emit(mac(block >> 3, True))
                    bmt_update_walk(path_tuple(block // bpcb % num_leaves))
                    tuple_writes(block)
            elif tag == _EV_LOAD:
                for victim in ev[3]:
                    writeback(victim)
                if ev[4]:
                    block = ev[2]
                    emit(ctr(block // bpcb, False))
                    emit(mac(block >> 3, False))
                    for label in path_tuple(block // bpcb % num_leaves):
                        if label == 0:
                            break  # pinned root: trusted, no cache touch
                        hit = bmt((label - 1) // arity, False)
                        emit(hit)
                        if hit:
                            break  # verification stops at a trusted node
            else:  # _EV_FLUSH
                flush(ev[6])


def _replay_inputs(sim, boundary: int) -> tuple:
    """Every :class:`MetadataReplay` argument after the geometry.

    The script memo key is built from this same tuple, so the key and
    the replay cannot drift apart.
    """
    cfg = sim.config
    policy = sim.scheme.policy
    return (
        boundary,
        policy.persistent,
        policy.coalesced,
        cfg.blocks_per_counter_block,
        cfg.mac_latency,
        cfg.nvm.read_latency,
        _cache_dims(cfg.counter_cache_bytes, cfg.metadata_assoc),
        _cache_dims(cfg.mac_cache_bytes, cfg.metadata_assoc),
        _cache_dims(cfg.bmt_cache_bytes, cfg.metadata_assoc),
    )


def _metadata_script_for(sim, trace: MemoryTrace, boundary: int) -> MetadataScript:
    """Fetch (or compute and memoize) the metadata hit/miss script.

    Keyed on exactly what the script is computed from: the prepass
    shape (which fixes the event partition), the BMT geometry, and the
    replay's own inputs — the warmup boundary (window displacements
    inside the warmup emit no writeback accesses), the ``persistent``
    and ``coalesced`` policy flags, and the metadata geometry and
    latencies.  Schemes differing only in *when* the BMT engine
    schedules an update share one script: on one trace and config every
    write-through persistent scheme replays the same accesses.
    """
    geometry = sim.geometry
    key = (
        "batched_mdscript",
        *_prepass_key(sim),
        geometry.num_leaves,
        geometry.arity,
        geometry.levels,
        *_replay_inputs(sim, boundary),
    )
    memo = trace._stat_cache
    script = memo.get(key)
    if script is None:
        md = MetadataReplay.for_sim(sim, boundary)
        md.feed(_prepass_for(sim, trace).events)
        script = memo[key] = MetadataScript(*md.take(), md.counts)
    return script


class _ScriptedCombiner:
    """Drop-in for ``timing._WriteCombiner`` replaying scripted verdicts."""

    __slots__ = ("absorbs",)

    def __init__(self, nxt) -> None:
        self.absorbs = lambda kind, block: nxt()


def wants_script(sim) -> bool:
    """Whether ``sim`` takes the scripted-metadata fast path.

    Scripting replaces the three live metadata caches with the
    precomputed hit/miss outcomes — the single hottest cost in the timed
    handlers.  It needs live caches (not ideal) and no instrumentation
    closure (telemetry ``cache_events``) already shadowing the access
    methods; the instrumented and ideal paths keep the live code, so
    telemetry runs stay bit-identical through shared code.
    """
    metadata = sim.metadata
    return not metadata.ideal and "access_counter" not in metadata.__dict__


class ScriptFeed:
    """Deque-fed scripted metadata accessors installed on a simulator.

    The only code that swaps the scripted outcomes in: entering the
    context shadows the metadata accessors, the scoreboard's
    ``_level_costs`` and the write-combiner with pops from three deques,
    which :meth:`extend` fills (once with a memoized script, or chunk by
    chunk while streaming) in the order the timed handlers consume them.
    Leaving it restores the live machinery and, on a clean exit, checks
    every deque ran dry — a leftover (or an ``IndexError`` from an empty
    deque) means the replay and the handlers disagreed on the sequence.
    """

    __slots__ = ("_sim", "_scoreboard", "_combiner", "stream", "walks", "comb")

    def __init__(self, sim) -> None:
        self._sim = sim
        self._scoreboard = sim.scoreboard
        self._combiner = sim._combiner
        self.stream: deque = deque()
        self.walks: deque = deque()
        self.comb: deque = deque()

    def __enter__(self) -> "ScriptFeed":
        nxt = self.stream.popleft
        walk_next = self.walks.popleft
        scoreboard = self._scoreboard
        metadata = self._sim.metadata
        metadata.access_counter = lambda block, is_write: nxt()
        metadata.access_mac = lambda block, is_write: nxt()

        def _scripted_bmt(label: int, is_write: bool) -> bool:
            return True if label == 0 else nxt()

        metadata.access_bmt_node = _scripted_bmt

        def _scripted_level_costs(path):
            costs, misses = walk_next()
            scoreboard.bmt_cache_misses += misses
            scoreboard.node_update_count += len(path)
            return costs

        scoreboard._level_costs = _scripted_level_costs
        self._sim._combiner = _ScriptedCombiner(self.comb.popleft)
        return self

    def extend(self, stream, walks, comb) -> None:
        self.stream.extend(stream)
        self.walks.extend(walks)
        self.comb.extend(comb)

    def __exit__(self, exc_type, exc, tb) -> None:
        metadata = self._sim.metadata
        del metadata.access_counter, metadata.access_mac
        del metadata.access_bmt_node
        del self._scoreboard._level_costs
        self._sim._combiner = self._combiner
        if exc_type is None and (self.stream or self.walks or self.comb):
            raise RuntimeError("batched metadata script not fully consumed")


def _chunk_ticks(chunk, tick_base: int, instr_base: int):
    """Cumulative (tick, instruction) counts after each op of ``chunk``.

    Every op retires one tick except sfence (which only carries its
    gap); instructions count gap+1 for every op.  The running bases
    place the counts on the whole-trace axis.  Ticks come back as a
    list (pass 2 indexes it per event), instructions as an array (only
    the warmup boundary and the end are read).
    """
    gaps = np.frombuffer(memoryview(chunk.gaps), dtype=np.uint32).astype(np.int64)
    kinds = np.frombuffer(memoryview(chunk.kind_codes), dtype=np.uint8)
    ticks = np.cumsum(gaps + (kinds != KIND_SFENCE))
    ticks += tick_base
    instr = np.cumsum(gaps + 1)
    instr += instr_base
    return ticks.tolist(), instr


def _open_window(sim, snap: Tuple[int, int]):
    """Open the measured window at ``snap`` = (ticks, instructions)
    after op ``boundary - 1``, exactly where the scalar loop does."""
    sim._ticks = snap[0]
    sim._in_warmup = False
    return sim._snapshot(snap[1])


def dispatch_events(sim, events, ticks, start, end_ticks, boundary, snap, window):
    """Pass 2: dispatch eventful ops through the shared timed handlers.

    The batched engine's one event loop, called with the whole memoized
    event list by :func:`run_batched` and once per chunk by the
    streaming run.  ``ticks[i]`` is the cumulative tick count after op
    ``start + i``; an event past the end of ``ticks`` (the end-of-trace
    drain) lands at ``end_ticks``.  The clock jumps straight to each
    event's tick, so the silent spans in between cost nothing.
    ``window`` is the measured-window snapshot so far — None until the
    first event at or past ``boundary``, where it opens at ``snap`` —
    and the updated one is returned.
    """
    epochs = sim.epochs
    stop = start + len(ticks)
    handle_writeback = sim._handle_writeback
    allocate_stall = sim._allocate_stall
    load_timed = sim._load_timed
    flush_timed = sim._flush_timed
    persist_store = sim._persist_store
    for ev in events:
        op_idx = ev[0]
        if window is None and op_idx >= boundary:
            window = _open_window(sim, snap)
        sim._ticks = ticks[op_idx - start] if op_idx < stop else end_ticks
        tag = ev[1]
        if tag == _EV_STORE:
            for victim in ev[3]:
                handle_writeback(victim)
            if ev[4]:
                allocate_stall()
            displaced = ev[5]
            if displaced is not None and op_idx >= boundary:
                handle_writeback(displaced)
            flush = ev[6]
            if flush is not None:
                flush_timed(flush)
                _record_epoch(epochs, flush, ev[7])
            elif ev[7]:
                persist_store(ev[2])
        elif tag == _EV_LOAD:
            load_timed(ev[2], ev[3], ev[4])
        else:  # _EV_FLUSH (sfence boundary or end-of-trace drain)
            flush_timed(ev[6])
            _record_epoch(epochs, ev[6], ev[7])
    return window


def _fold_counters(sim, cache_counts, md_counts) -> None:
    """Fold the prepass (and metadata-replay) counter totals into the
    live registry before the result snapshots ``stats.as_dict()``.

    The data-cache totals go through the registry by name (the batched
    engine never builds the live hierarchy); the metadata totals add to
    whatever the live caches absorbed before scripting took over (zero
    in practice).
    """
    counter = sim.stats.counter
    groups = [(("l1", "l2", "l3"), cache_counts)]
    if md_counts is not None:
        groups.append((("ctr", "mac", "bmt"), md_counts))
    for names, counts in groups:
        for off, name in zip((0, 4, 8), names):
            counter(f"{name}.hits").value += counts[off]
            counter(f"{name}.misses").value += counts[off + 1]
            counter(f"{name}.evictions").value += counts[off + 2]
            counter(f"{name}.dirty_evictions").value += counts[off + 3]


def run_chunks(sim, name: str, n: int, boundary: int, steps, pre, md):
    """Run the batched pass 2 over ``(chunk, events, outcomes)`` steps.

    The chunk loop both entry points share: :func:`run_batched` passes the
    materialized trace as one step carrying its memoized event list and
    script; the streaming run passes one step per chunk plus a final
    chunkless step for the end-of-trace drain.  ``outcomes`` is the
    ``(stream, walks, combiner)`` script for the step's events, or None
    when ``md`` is None (live metadata caches).  ``pre.counters`` and
    ``md.counts`` are read once the steps are exhausted.
    """
    window = None
    snap = (0, 0)
    start = tick_base = instr_base = 0
    sim._in_warmup = boundary > 0
    with ScriptFeed(sim) if md is not None else nullcontext() as feed:
        for chunk, events, outcomes in steps:
            ticks = ()
            if chunk is not None and len(chunk):
                ticks, instr = _chunk_ticks(chunk, tick_base, instr_base)
                if start < boundary <= start + len(ticks):
                    at = boundary - 1 - start
                    snap = (ticks[at], int(instr[at]))
                tick_base, instr_base = ticks[-1], int(instr[-1])
            if outcomes is not None:
                feed.extend(*outcomes)
            window = dispatch_events(
                sim, events, ticks, start, tick_base, boundary, snap, window
            )
            start += len(ticks)
            # Release this step's buffers before the next one is built,
            # so a stream holds one chunk's worth at a time, not two.
            chunk = events = outcomes = ticks = instr = None
        if start != n:
            raise RuntimeError(f"chunk source yielded {start} ops; header promised {n}")
    if window is None:
        # No eventful op at or past the boundary.
        window = _open_window(sim, snap)
    sim._ticks = tick_base
    _fold_counters(sim, pre.counters, md.counts if md is not None else None)
    return sim._make_result(name, window, instr_base)


def run_batched(sim, trace: MemoryTrace, warmup_fraction: float):
    """Batched run of a materialized trace: one chunk, memoized prepass.

    ``sim`` is a :class:`~repro.system.timing.TraceSimulator`; the
    argument validation already happened in ``run()``.
    """
    n = len(trace)
    boundary = int(n * warmup_fraction)
    pre = _prepass_for(sim, trace)
    script = None
    outcomes = None
    if wants_script(sim):
        script = _metadata_script_for(sim, trace, boundary)
        outcomes = (script.stream, script.walks, script.combiner)
    steps = [(trace, pre.events, outcomes)]
    return run_chunks(sim, trace.name, n, boundary, steps, pre, script)

def _record_epoch(tracker, blocks, store_count: int) -> None:
    """Mirror the EpochTracker bookkeeping for a flushed epoch so
    post-run inspection (``total_persists`` etc.) matches the scalar
    engines.  Honors ``retain_closed`` so streaming runs stay O(1)."""
    if tracker is None:
        return
    epoch_id = tracker.closed_count
    tracker.closed_count = epoch_id + 1
    tracker.closed_store_count += store_count
    tracker.closed_persist_count += len(blocks)
    if tracker.retain_closed:
        tracker._closed.append(
            Epoch(
                epoch_id=epoch_id,
                store_count=store_count,
                dirty_blocks=dict.fromkeys(blocks),
                closed=True,
            )
        )
    tracker._current = Epoch(epoch_id=epoch_id + 1)
