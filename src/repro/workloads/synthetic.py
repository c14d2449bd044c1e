"""Synthetic trace generators.

The main entry point is :func:`generate_trace`, a statistics-driven
generator used to synthesize SPEC-like workloads.  Its store stream is
produced by a *working-pool* process: stores sample from a bounded pool
of active blocks while new blocks enter the pool at a configurable rate.
This yields the two properties the evaluation depends on:

* the number of **unique blocks per epoch grows sub-linearly** with the
  epoch size (Fig. 11's PPKI-vs-epoch-size curve), and
* new blocks are allocated **sequentially within pages**, giving the
  spatial locality that BMT update coalescing exploits (§IV-B2).

Smaller single-purpose generators (sequential, strided, zipf, pointer
chase, a key-value store) are provided for the examples and tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.workloads.trace import (
    DEFAULT_SEGMENT_OPS,
    KIND_LOAD,
    KIND_SFENCE,
    KIND_STORE,
    MemoryTrace,
    TraceWriter,
)

Op = Tuple[int, int, int, int]
"""One packed record: ``(kind_code, address, gap, persistent)``."""

BLOCK = 64
PAGE_BLOCKS = 64

HEAP_BASE = 0x1000_0000
"""Base of the persistent heap region."""

STACK_BASE = 0x7FFF_0000
"""Base of the (non-persistent) stack region."""

STACK_BLOCKS = 128
"""Stack footprint in blocks (8 KB)."""


@dataclass
class SyntheticSpec:
    """Parameters for the statistics-driven generator.

    Attributes:
        name: Workload label.
        kilo_instructions: Trace length in kilo-instructions.
        stores_per_ki: All stores per kilo-instruction (Table V
            'sp_full').
        loads_per_ki: Loads per kilo-instruction.
        stack_store_fraction: Fraction of stores that hit the stack
            (non-persistent under the paper's default protection).
        pool_blocks: Size of the store working pool; smaller pools mean
            more same-block reuse within an epoch.
        new_block_rate: Probability a store allocates a fresh,
            never-seen block (streaming-ness; drives LLC write-backs).
        page_run: Mean number of fresh blocks allocated in a page before
            allocation moves to the next page.  Small runs spread the
            working pool across many (adjacent) pages, which bounds how
            much BMT-update coalescing can save; large runs concentrate
            a pool in few counter blocks.
        page_scatter: Probability that a page advance jumps to a distant
            page instead of the adjacent one (spatial locality knob;
            high values hurt coalescing's deep shared ancestors).
        load_reuse_fraction: Fraction of loads that target recently
            stored blocks (cache hits).  The remaining loads stream
            through fresh, one-touch addresses — every one an LLC miss —
            so the miss rate is ``loads_per_ki * (1 - reuse)`` MPKI.
        seed: RNG seed (the generator is fully deterministic).
    """

    name: str = "synthetic"
    kilo_instructions: int = 100
    stores_per_ki: float = 100.0
    loads_per_ki: float = 200.0
    stack_store_fraction: float = 0.5
    pool_blocks: int = 16
    new_block_rate: float = 0.05
    page_run: float = 2.0
    page_scatter: float = 0.05
    load_reuse_fraction: float = 0.9
    seed: int = 2020


def expected_uniques(pool_blocks: int, new_rate: float, window: int) -> float:
    """Expected unique blocks among ``window`` stores of the pool process.

    Used to calibrate ``pool_blocks`` against a target per-epoch unique
    ratio (Table V's o3 column).
    """
    pool = max(1, pool_blocks)
    reuse_draws = window * (1.0 - new_rate)
    distinct_from_pool = pool * (1.0 - (1.0 - 1.0 / pool) ** reuse_draws)
    return min(float(window), distinct_from_pool + window * new_rate)


def calibrate_pool(target_uniques: float, new_rate: float, window: int) -> int:
    """Pool size whose expected uniques over ``window`` match the target."""
    lo, hi = 1, 1 << 16
    if expected_uniques(lo, new_rate, window) >= target_uniques:
        return lo
    while lo < hi:
        mid = (lo + hi) // 2
        if expected_uniques(mid, new_rate, window) < target_uniques:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _StoreStream:
    """The working-pool store address process."""

    def __init__(
        self, spec: SyntheticSpec, rng: random.Random, base: int = HEAP_BASE
    ) -> None:
        self._spec = spec
        self._rng = rng
        self._next_block = base // BLOCK
        self._page_fill = 0
        # Pre-fill the working pool: the initial working set exists even
        # for workloads that never allocate fresh blocks (new_block_rate
        # of zero, e.g. gamess whose write-back rate is ~0).
        self._pool: List[int] = [
            self._fresh_block() for _ in range(max(1, spec.pool_blocks))
        ]

    def _fresh_block(self) -> int:
        """Allocate a new block, spreading runs across adjacent pages."""
        spec = self._spec
        advance = self._page_fill >= PAGE_BLOCKS or (
            self._page_fill > 0
            and self._rng.random() < 1.0 / max(1.0, spec.page_run)
        )
        if advance:
            step = 1
            if self._rng.random() < spec.page_scatter:
                # Distant jump: heap arenas spread allocations across a
                # wide region, so working-pool pages only share shallow
                # BMT ancestors (bounding what coalescing can save).
                step += self._rng.randrange(4096)
            self._next_block = (
                (self._next_block // PAGE_BLOCKS) + step
            ) * PAGE_BLOCKS
            self._page_fill = 0
        block = self._next_block
        self._next_block += 1
        self._page_fill += 1
        return block

    def next_block(self) -> int:
        spec = self._spec
        if self._rng.random() < spec.new_block_rate:
            block = self._fresh_block()
            self._pool.append(block)
            if len(self._pool) > spec.pool_blocks:
                self._pool.pop(0)
            return block
        return self._rng.choice(self._pool)

    def recent_blocks(self) -> List[int]:
        return self._pool


def generate_trace(spec: SyntheticSpec) -> MemoryTrace:
    """Generate a trace matching a :class:`SyntheticSpec`.

    The instruction budget is distributed as per-op gaps so that the
    trace's PPKI statistics match the spec's rates.
    """
    rng = random.Random(spec.seed)
    trace = MemoryTrace(name=spec.name)
    stores = max(1, round(spec.kilo_instructions * spec.stores_per_ki))
    loads = max(0, round(spec.kilo_instructions * spec.loads_per_ki))
    total_ops = stores + loads
    total_instructions = spec.kilo_instructions * 1000
    gap_budget = max(0, total_instructions - total_ops)
    base_gap, remainder = divmod(gap_budget, total_ops)

    store_stream = _StoreStream(spec, rng)
    load_frontier = HEAP_BASE // BLOCK + (1 << 20)
    stack_cursor = 0

    # Interleave loads and stores uniformly.
    ops: List[bool] = [True] * stores + [False] * loads  # True = store
    rng.shuffle(ops)

    append_op = trace.append_op
    for index, is_store in enumerate(ops):
        gap = base_gap + (1 if index < remainder else 0)
        if is_store:
            if rng.random() < spec.stack_store_fraction:
                stack_cursor = (stack_cursor + 1) % STACK_BLOCKS
                address = STACK_BASE + stack_cursor * BLOCK
                append_op(KIND_STORE, address, gap, 0)
            else:
                block = store_stream.next_block()
                append_op(KIND_STORE, block * BLOCK, gap, 1)
        else:
            pool = store_stream.recent_blocks()
            if pool and rng.random() < spec.load_reuse_fraction:
                block = rng.choice(pool)
            else:
                # One-touch streaming read: always a fresh block.
                block = load_frontier
                load_frontier += 1
            append_op(KIND_LOAD, block * BLOCK, gap, 1)
    return trace


# ----------------------------------------------------------------------
# Simple single-purpose generators (examples, tests)
# ----------------------------------------------------------------------


def sequential_stream(
    num_stores: int, start: int = HEAP_BASE, gap: int = 8, seed: int = 0
) -> MemoryTrace:
    """Stores marching sequentially through memory (streaming write)."""
    trace = MemoryTrace(name="sequential")
    append_op = trace.append_op
    for i in range(num_stores):
        append_op(KIND_STORE, start + i * BLOCK, gap)
    return trace


def strided_stream(
    num_stores: int, stride_blocks: int, start: int = HEAP_BASE, gap: int = 8
) -> MemoryTrace:
    """Stores with a fixed block stride (e.g. column-major sweeps)."""
    trace = MemoryTrace(name=f"stride{stride_blocks}")
    append_op = trace.append_op
    for i in range(num_stores):
        append_op(KIND_STORE, start + i * stride_blocks * BLOCK, gap)
    return trace


def uniform_random(
    num_stores: int, span_blocks: int, start: int = HEAP_BASE, gap: int = 8, seed: int = 7
) -> MemoryTrace:
    """Uniformly random stores over a span (worst case for coalescing)."""
    rng = random.Random(seed)
    trace = MemoryTrace(name="uniform")
    append_op = trace.append_op
    for _ in range(num_stores):
        block = rng.randrange(span_blocks)
        append_op(KIND_STORE, start + block * BLOCK, gap)
    return trace


def zipfian(
    num_stores: int,
    span_blocks: int,
    skew: float = 1.1,
    start: int = HEAP_BASE,
    gap: int = 8,
    seed: int = 11,
) -> MemoryTrace:
    """Zipf-distributed stores (hot-set reuse, e.g. index updates)."""
    if skew <= 0:
        raise ValueError("skew must be positive")
    rng = random.Random(seed)
    weights = [1.0 / (rank**skew) for rank in range(1, span_blocks + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    trace = MemoryTrace(name="zipf")
    for _ in range(num_stores):
        u = rng.random()
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        trace.append_op(KIND_STORE, start + lo * BLOCK, gap)
    return trace


def pointer_chase(
    num_loads: int, span_blocks: int, start: int = HEAP_BASE, gap: int = 16, seed: int = 13
) -> MemoryTrace:
    """Dependent loads over a shuffled ring (latency-bound reads)."""
    rng = random.Random(seed)
    order = list(range(span_blocks))
    rng.shuffle(order)
    trace = MemoryTrace(name="pointer_chase")
    position = 0
    append_op = trace.append_op
    for _ in range(num_loads):
        position = order[position % span_blocks]
        append_op(KIND_LOAD, start + position * BLOCK, gap)
    return trace


def kvstore_trace(
    num_ops: int,
    num_keys: int = 4096,
    put_fraction: float = 0.5,
    log_base: int = HEAP_BASE,
    table_base: int = HEAP_BASE + (1 << 26),
    gap: int = 12,
    seed: int = 17,
) -> MemoryTrace:
    """A persistent key-value store: append-only log plus random table.

    Each PUT appends a log record (sequential persistent stores — ideal
    coalescing) then updates the key's table slot (random persistent
    store) and issues an SFENCE, modelling a durable transaction commit.
    GETs read the table slot.
    """
    rng = random.Random(seed)
    trace = MemoryTrace(name="kvstore")
    log_cursor = 0
    append_op = trace.append_op
    for _ in range(num_ops):
        key = rng.randrange(num_keys)
        slot_addr = table_base + key * BLOCK
        if rng.random() < put_fraction:
            append_op(KIND_STORE, log_base + log_cursor * BLOCK, gap)
            log_cursor += 1
            append_op(KIND_STORE, slot_addr, 2)
            append_op(KIND_SFENCE)
        else:
            append_op(KIND_LOAD, slot_addr, gap)
    return trace


# ----------------------------------------------------------------------
# Streaming emission and adversarial generators
# ----------------------------------------------------------------------


def emit_ops(sink, ops: Iterable[Op]):
    """Feed an op iterator into any ``append_op`` sink.

    ``sink`` is either a :class:`MemoryTrace` (in-memory materialization)
    or a :class:`~repro.workloads.trace.TraceWriter` (bounded-memory
    emission straight to a v2 file) — both expose the same
    ``append_op(kind, address, gap, persistent)``.  Returns the sink.
    """
    append_op = sink.append_op
    for code, address, gap, persistent in ops:
        append_op(code, address, gap, persistent)
    return sink


def stream_trace(
    path,
    ops: Iterable[Op],
    name: str = "synthetic",
    segment_ops: int = DEFAULT_SEGMENT_OPS,
) -> int:
    """Write an op iterator straight to a chunked v2 trace file.

    Peak memory is one segment's columns regardless of trace length —
    this is how 10M-op benchmark traces are produced without ever
    holding a 10M-op :class:`MemoryTrace`.  Returns the record count.
    """
    with TraceWriter(path, name=name, segment_ops=segment_ops) as writer:
        emit_ops(writer, ops)
        return writer.count


def synthetic_ops(spec: SyntheticSpec) -> Iterator[Op]:
    """Streaming working-pool op process for arbitrarily long traces.

    The O(1)-memory sibling of :func:`generate_trace`: same store/load
    working-pool process and rates, but the store/load interleave is
    drawn by sequential sampling (exactly ``stores`` stores, uniformly
    interleaved) instead of materializing and shuffling an op-type list.
    The RNG consumption order therefore differs from
    :func:`generate_trace` — for a given seed the two produce different
    (equally valid) traces, and only this one can be piped through
    :func:`stream_trace` at 10M+ ops.
    """
    rng = random.Random(spec.seed)
    stores = max(1, round(spec.kilo_instructions * spec.stores_per_ki))
    loads = max(0, round(spec.kilo_instructions * spec.loads_per_ki))
    total_ops = stores + loads
    total_instructions = spec.kilo_instructions * 1000
    gap_budget = max(0, total_instructions - total_ops)
    base_gap, remainder = divmod(gap_budget, total_ops)

    store_stream = _StoreStream(spec, rng)
    load_frontier = HEAP_BASE // BLOCK + (1 << 20)
    stack_cursor = 0
    stores_left = stores

    for index in range(total_ops):
        gap = base_gap + (1 if index < remainder else 0)
        ops_left = total_ops - index
        if rng.random() * ops_left < stores_left:
            stores_left -= 1
            if rng.random() < spec.stack_store_fraction:
                stack_cursor = (stack_cursor + 1) % STACK_BLOCKS
                yield (KIND_STORE, STACK_BASE + stack_cursor * BLOCK, gap, 0)
            else:
                block = store_stream.next_block()
                yield (KIND_STORE, block * BLOCK, gap, 1)
        else:
            pool = store_stream.recent_blocks()
            if pool and rng.random() < spec.load_reuse_fraction:
                block = rng.choice(pool)
            else:
                block = load_frontier
                load_frontier += 1
            yield (KIND_LOAD, block * BLOCK, gap, 1)


def lca_pingpong_ops(
    num_stores: int,
    separation_blocks: int = 1 << 22,
    pairs: int = 4,
    sfence_every: int = 64,
    start: int = HEAP_BASE,
    gap: int = 8,
    seed: int = 19,
) -> Iterator[Op]:
    """LCA-pathological sibling ping-pong (adversarial for coalescing).

    Persistent stores strictly alternate between the two sides of
    ``pairs`` block pairs whose members sit ``separation_blocks`` apart,
    so every *consecutive* persist pair diverges near the BMT root: the
    lowest common ancestor is maximally shallow and update coalescing
    (§IV-B2) finds almost no shared path to absorb.  Rotating through
    several pairs additionally defeats counter/MAC cache reuse.  With
    ``sfence_every > 0`` an SFENCE closes an epoch every that many
    stores, exercising epoch flushes on a worst-case persist stream.
    Fully deterministic in ``seed`` (it only jitters each pair's
    position within its page).
    """
    if num_stores < 0:
        raise ValueError("num_stores must be non-negative")
    if separation_blocks <= PAGE_BLOCKS:
        raise ValueError("separation_blocks must exceed one page")
    rng = random.Random(seed)
    base_block = start // BLOCK
    lefts = [
        base_block + p * PAGE_BLOCKS + rng.randrange(PAGE_BLOCKS)
        for p in range(max(1, pairs))
    ]
    npairs = len(lefts)
    since_fence = 0
    for i in range(num_stores):
        block = lefts[(i // 2) % npairs]
        if i & 1:
            block += separation_blocks
        yield (KIND_STORE, block * BLOCK, gap, 1)
        since_fence += 1
        if sfence_every > 0 and since_fence >= sfence_every:
            yield (KIND_SFENCE, 0, 0, 0)
            since_fence = 0


def lca_pingpong(num_stores: int, **kwargs) -> MemoryTrace:
    """Materialized :func:`lca_pingpong_ops` trace."""
    trace = MemoryTrace(name="lca_pingpong")
    return emit_ops(trace, lca_pingpong_ops(num_stores, **kwargs))


def multi_tenant_ops(
    clients: int = 4,
    ops_per_client: int = 25_000,
    tenant_stride_blocks: int = 1 << 26,
    store_fraction: float = 0.4,
    sfence_every: int = 0,
    gap: int = 6,
    seed: int = 23,
    spec: Optional[SyntheticSpec] = None,
) -> Iterator[Op]:
    """Multi-tenant interleaved-client mixer.

    ``clients`` independent working-pool processes, each confined to its
    own region (``tenant_stride_blocks`` apart, so tenants share no
    counter blocks and only shallow BMT ancestors), interleaved into one
    op stream by remaining-count sequential sampling.  The interleave
    destroys per-tenant temporal locality at the metadata caches — the
    adversarial contrast to the single-client generators — while each
    tenant's own stream keeps its working-pool reuse.  O(1) memory per
    op and fully deterministic in ``seed`` (each tenant derives its own
    sub-seeded RNG, so adding a tenant never perturbs the others'
    address streams).
    """
    if clients < 1:
        raise ValueError("clients must be positive")
    if not 0.0 <= store_fraction <= 1.0:
        raise ValueError("store_fraction must be within [0, 1]")
    base_spec = spec if spec is not None else SyntheticSpec(
        pool_blocks=32, new_block_rate=0.02, page_run=4.0
    )
    mixer = random.Random(seed)
    tenants = []
    for c in range(clients):
        rng = random.Random(seed * 1_000_003 + c + 1)
        base = HEAP_BASE + c * tenant_stride_blocks * BLOCK
        tenants.append(
            {
                "rng": rng,
                "stream": _StoreStream(base_spec, rng, base=base),
                "load_frontier": base // BLOCK + (1 << 20),
                "left": ops_per_client,
            }
        )
    total_left = clients * ops_per_client
    since_fence = 0
    while total_left:
        pick = mixer.random() * total_left
        acc = 0.0
        tenant = tenants[-1]
        for t in tenants:
            acc += t["left"]
            if pick < acc:
                tenant = t
                break
        tenant["left"] -= 1
        total_left -= 1
        rng = tenant["rng"]
        if rng.random() < store_fraction:
            block = tenant["stream"].next_block()
            yield (KIND_STORE, block * BLOCK, gap, 1)
            since_fence += 1
            if sfence_every > 0 and since_fence >= sfence_every:
                yield (KIND_SFENCE, 0, 0, 0)
                since_fence = 0
        else:
            pool = tenant["stream"].recent_blocks()
            if rng.random() < 0.7:
                block = rng.choice(pool)
            else:
                block = tenant["load_frontier"]
                tenant["load_frontier"] += 1
            yield (KIND_LOAD, block * BLOCK, gap, 1)


def multi_tenant(**kwargs) -> MemoryTrace:
    """Materialized :func:`multi_tenant_ops` trace."""
    trace = MemoryTrace(name="multi_tenant")
    return emit_ops(trace, multi_tenant_ops(**kwargs))
