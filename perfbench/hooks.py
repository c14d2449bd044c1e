"""Span hooks around the simulator's layer entry points (traced runs only).

The benchmark never edits the program: for a traced repetition it
replaces module attributes with wrappers that record a span around each
call the workload makes into a layer, and counts work at the same
boundary.  Untraced repetitions install nothing.

Layer boundaries (module: entry points):

* ``repro.workloads``: ``profile_trace`` (trace generation)
* ``repro.workloads.trace``: ``TraceReader.chunks`` (one span per chunk)
* ``repro.sweep.trace_cache``: ``TraceCache.get``/``put``
* ``repro.sim.batched``: ``_prepass_for``, ``_metadata_script_for``
* ``repro.sim.stream``: ``make_prepass``, ``make_metadata_replay``
  (their ``feed``/``finish``/``take`` calls)
* ``repro.system.timing``: ``TraceSimulator.run``/``run_stream``
* ``repro.sweep.cache``: ``JSONCache.get``/``put``
* ``repro.sweep.runner``: ``run_jobs``, ``run_tasks``, ``_execute``
* ``repro.campaign``: ``run_campaign``, ``run_app_campaign``,
  ``generate_plans`` and the per-cell executors
* ``repro.analysis.campaign``: ``verify_campaign``, ``summarize*``

Cells that run in forked pool workers record their spans in the worker
and append them to ``worker-<pid>.jsonl`` in the run's span directory.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Optional

from perfbench.spans import JOB, PID, Recorder

_ACTIVE: Optional["Hooks"] = None
"""The installed hooks; module-level so forked pool workers can reach
them from the picklable cell wrappers below."""


class Hooks:
    """Installed wrappers plus the counters they keep."""

    def __init__(self, span_dir: Path) -> None:
        self.recorder = Recorder()
        self.counts: Counter = Counter()
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self._saved = []
        self._worker = None  # (pid, Recorder, wrapped cells, file) in a forked worker

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, new_job: bool = False) -> None:
        self._patch(owner, attr, self.recorder.wrap(getattr(owner, attr), name, new_job))

    def install(self) -> None:
        global _ACTIVE
        import repro.analysis.campaign as analysis
        import repro.campaign.plans as plans
        import repro.campaign.runner as campaign_runner
        import repro.sim.batched as batched
        import repro.sim.stream as stream
        import repro.sweep.runner as runner
        import repro.workloads.spec_profiles as spec_profiles
        from repro.sweep.cache import JSONCache
        from repro.sweep.trace_cache import TraceCache
        from repro.system.timing import TraceSimulator
        from repro.workloads.trace import TraceReader

        self._span(spec_profiles, "profile_trace", "workloads.gen")
        self._span(runner, "profile_trace", "workloads.gen")
        self._span(runner, "cached_profile_trace", "trace.get")
        self._span(runner, "run_jobs", "sweep.run_jobs")
        self._span(runner, "run_tasks", "sweep.run_tasks")
        self._patch(campaign_runner, "run_tasks", runner.run_tasks)
        self._span(runner, "_execute", "job", new_job=True)
        self._span(TraceCache, "get", "trace_cache.load")
        self._span(TraceCache, "put", "trace_cache.put")
        self._patch(TraceReader, "chunks", self._chunks(TraceReader.chunks))
        self._span(TraceSimulator, "run", "sim.run")
        self._span(TraceSimulator, "run_stream", "sim.run_stream", new_job=True)
        self._patch(batched, "_prepass_for", self._memo_hook(batched._prepass_for, "prepass"))
        self._patch(
            batched,
            "_metadata_script_for",
            self._memo_hook(batched._metadata_script_for, "mdreplay"),
        )
        self._patch(stream, "make_prepass", self._stream_prepass(stream.make_prepass))
        self._patch(
            stream,
            "make_metadata_replay",
            self._stream_replay(stream.make_metadata_replay),
        )
        self._patch(JSONCache, "get", self._cache_get(JSONCache.get))
        self._patch(JSONCache, "put", self._cache_put(JSONCache.put))
        self._span(campaign_runner, "run_campaign", "campaign.run")
        self._span(campaign_runner, "run_app_campaign", "app_campaign.run")
        self._span(plans, "generate_plans", "plans.gen")
        self._span(analysis, "verify_campaign", "analysis.verify")
        self._span(analysis, "summarize", "analysis.summarize")
        self._span(analysis, "summarize_app", "analysis.summarize")
        self._cell_fns = {
            "campaign.cell": campaign_runner.run_scenario,
            "app.cell": campaign_runner.run_app_scenario,
        }
        self._cells = {
            n: self.recorder.wrap(fn, n, new_job=True) for n, fn in self._cell_fns.items()
        }
        self._patch(campaign_runner, "run_scenario", traced_run_scenario)
        self._patch(campaign_runner, "run_app_scenario", traced_run_app_scenario)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    # -- wrappers that also count work -------------------------------------

    def _memo_hook(self, fn, name: str):
        """Span around a trace-memoized build step; a call that grows the
        trace's memo is a build, any other call a memo hit."""
        rec = self.recorder
        counts = self.counts

        def traced(sim, trace, *args):
            parent = rec.current()
            before = len(trace._stat_cache)
            index = rec.begin(name)
            try:
                out = fn(sim, trace, *args)
            finally:
                rec.end(index)
            if len(trace._stat_cache) > before:
                counts[f"{name}.builds"] += 1
                if name == "prepass":
                    counts["prepass.events"] += len(out.events)
                else:
                    counts["mdreplay.walks"] += len(out.walks)
            else:
                counts[f"{name}.memo_hits"] += 1
            if name == "prepass" and parent == "sim.run":
                counts["dispatch.events"] += len(out.events)
            return out

        return traced

    def _stream_prepass(self, make):
        rec = self.recorder
        counts = self.counts

        def traced(sim):
            counts["prepass.builds"] += 1
            return _PrepassProxy(make(sim), rec, counts)

        return traced

    def _stream_replay(self, make):
        rec = self.recorder
        counts = self.counts

        def traced(sim, boundary):
            counts["mdreplay.builds"] += 1
            return _ReplayProxy(make(sim, boundary), rec, counts)

        return traced

    def _chunks(self, chunks):
        """``TraceReader.chunks`` with each chunk load recorded as a span."""
        rec = self.recorder
        counts = self.counts

        def traced(reader, *args, **kwargs):
            source = chunks(reader, *args, **kwargs)
            while True:
                index = rec.begin("trace.chunk_load")
                try:
                    chunk = next(source)
                except StopIteration:
                    return
                finally:
                    rec.end(index)
                counts["trace.chunks"] += 1
                yield chunk

        return traced

    def _cache_get(self, get):
        rec = self.recorder
        counts = self.counts

        def traced(cache, key):
            layer = _cache_layer(cache)
            index = rec.begin(f"{layer}.get")
            try:
                value = get(cache, key)
            finally:
                rec.end(index)
            counts[f"{layer}.hits" if value is not None else f"{layer}.misses"] += 1
            return value

        return traced

    def _cache_put(self, put):
        rec = self.recorder
        counts = self.counts

        def traced(cache, key, value):
            layer = _cache_layer(cache)
            counts[f"{layer}.puts"] += 1
            index = rec.begin(f"{layer}.put")
            try:
                return put(cache, key, value)
            finally:
                rec.end(index)

        return traced

    # -- per-cell spans, in the main process or a pool worker ----------------

    def run_cell(self, name: str, spec):
        if os.getpid() == self.main_pid:
            return self._cells[name](spec)
        if self._worker is None or self._worker[0] != os.getpid():
            # First cell in this forked worker: its own recorder, and a
            # span file flushed per cell (workers end without notice).
            rec = Recorder()
            cells = {n: rec.wrap(fn, n, new_job=True) for n, fn in self._cell_fns.items()}
            path = self.span_dir / f"worker-{os.getpid()}.jsonl"
            self._worker = (os.getpid(), rec, cells, open(path, "a", encoding="utf-8"))
        _, rec, cells, fh = self._worker
        try:
            return cells[name](spec)
        finally:
            span = rec.spans.pop()
            span[JOB] = f"w{span[PID]}-{span[JOB]}"
            fh.write(json.dumps(span) + "\n")
            fh.flush()


def _cache_layer(cache) -> str:
    from repro.sweep.cache import ResultCache

    return "result_cache" if isinstance(cache, ResultCache) else "cell_cache"


def traced_run_scenario(scenario):
    """Pool entry point for crash-grid cells (picklable by import path)."""
    return _ACTIVE.run_cell("campaign.cell", scenario)


def traced_run_app_scenario(scenario):
    """Pool entry point for app-campaign plans."""
    return _ACTIVE.run_cell("app.cell", scenario)


class _PrepassProxy:
    """A streaming ``FunctionalPrepass`` whose feeds are spans."""

    def __init__(self, inner, rec: Recorder, counts: Counter) -> None:
        self._inner = inner
        self._rec = rec
        self._counts = counts

    def _timed(self, fn, *args):
        index = self._rec.begin("prepass")
        try:
            events = fn(*args)
        finally:
            self._rec.end(index)
        self._counts["prepass.events"] += len(events)
        self._counts["dispatch.events"] += len(events)
        return events

    def feed(self, *columns):
        return self._timed(self._inner.feed, *columns)

    def finish(self):
        return self._timed(self._inner.finish)

    @property
    def next_index(self) -> int:
        return self._inner.next_index

    @property
    def counters(self):
        return self._inner.counters


class _ReplayProxy:
    """A streaming ``MetadataReplay`` whose feed/take calls are spans."""

    def __init__(self, inner, rec: Recorder, counts: Counter) -> None:
        self._inner = inner
        self._rec = rec
        self._counts = counts

    def feed(self, events) -> None:
        index = self._rec.begin("mdreplay")
        try:
            self._inner.feed(events)
        finally:
            self._rec.end(index)

    def take(self):
        index = self._rec.begin("mdreplay")
        try:
            out = self._inner.take()
        finally:
            self._rec.end(index)
        self._counts["mdreplay.walks"] += len(out[1])
        return out

    @property
    def counts(self):
        return self._inner.counts

