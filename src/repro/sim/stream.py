"""Streaming batched execution: bounded-RSS runs over chunked traces.

``run_batched_stream`` feeds the batched engine one chunk at a time
instead of materializing the whole functional prepass, metadata script
and tick table up front (each O(trace) in memory):

1. one packed column chunk (a :class:`~repro.workloads.trace.TraceChunk`
   from a :class:`~repro.workloads.trace.TraceReader` or an in-memory
   trace) goes to the chunk-resumable
   :class:`~repro.sim.batched.FunctionalPrepass`;
2. the chunk's eventful ops go to the chunk-resumable
   :class:`~repro.sim.batched.MetadataReplay`, whose scripted outcomes
   the :class:`~repro.sim.batched.ScriptFeed` accessors pop;
3. the chunk's events are dispatched by
   :func:`~repro.sim.batched.run_chunks` — the same chunk loop and event
   loop the materialized run uses with the whole trace as one chunk.

Peak memory is O(chunk) plus the simulator's own bounded state: the
prepass/metadata state is bounded by the cache geometry, the script
deques drain within the chunk that filled them (the handlers consume
outcomes for exactly the events that produced them), closed epochs are
counted but not retained, and no prepass/script memo is written (there
is no whole trace to key it on).  Results are bit-identical to
``run_batched`` on the materialized trace: the event stream, script
stream and per-event tick values are equal element for element.
"""

from __future__ import annotations

from repro.sim.batched import FunctionalPrepass, MetadataReplay, run_chunks, wants_script

# Fresh chunk-resumable state per streamed run; the materialized run
# memoizes its whole-trace equivalents instead.  Named here so the
# streaming builds can be hooked apart from the memoized ones.
make_prepass = FunctionalPrepass.for_sim
make_metadata_replay = MetadataReplay.for_sim


def _steps(chunks, pre, md):
    """Per-chunk ``(chunk, events, outcomes)`` steps for ``run_chunks``,
    then a chunkless step for the end-of-trace drain."""
    for chunk in chunks:
        events = pre.feed(chunk.kind_codes, chunk.addresses, chunk.persistent_flags)
        yield chunk, events, _replay(md, events)
    tail = pre.finish()
    yield None, tail, _replay(md, tail)


def _replay(md, events):
    if md is None:
        return None
    md.feed(events)
    return md.take()


def run_batched_stream(sim, name: str, n: int, chunks, warmup_fraction: float):
    """Batched-engine run over ``n`` ops of packed column chunks.

    ``sim`` is a :class:`~repro.system.timing.TraceSimulator` with
    ``engine="batched"``; argument validation happened in
    ``run_stream``.
    """
    boundary = int(n * warmup_fraction)
    pre = make_prepass(sim)
    md = make_metadata_replay(sim, boundary) if wants_script(sim) else None
    return run_chunks(sim, name, n, boundary, _steps(chunks, pre, md), pre, md)
