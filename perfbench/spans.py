"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: its name, start and end on
``time.perf_counter_ns``, the span it ran inside (``parent``), the job
it belongs to (``job``, shared by every span of one simulation job or
campaign cell) and the process that recorded it.  Spans are kept in a
list and written out when the run ends; nothing is logged while the
work runs.

Self time is a span's duration minus the part of it its child spans
cover, so the self times of a tree add up to the root's duration and
the root's own self time is the share no layer span accounts for.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

# Field order of a recorded span (plain lists keep recording cheap).
NAME, START, END, PARENT, JOB, PID = range(6)


class Recorder:
    """Nested spans on one thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._next_job = 0
        self.job: Optional[int] = None

    def new_job(self) -> int:
        self._next_job += 1
        self.job = self._next_job
        return self.job

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job, os.getpid()])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def wrap(self, fn, name: str, new_job: bool = False):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            saved = self.job
            if new_job:
                self.new_job()
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                self.job = saved

        traced.__wrapped__ = fn
        return traced


def self_times(spans: List[list]) -> List[int]:
    """Per-span self time in ns: duration minus the union of its direct
    children's intervals (children of one process)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span[START]
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span[END] - span[START] - covered)
    return out


def by_name(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """``{name: {"count", "total_s", "self_s"}}`` over all spans."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        row = table.setdefault(span[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += (span[END] - span[START]) / 1e9
        row["self_s"] += own / 1e9
    return table


def chrome_trace(spans: Iterable[list], origin_ns: int) -> Dict:
    """Spans as Chrome trace-event JSON (complete ``X`` events, µs axis),
    one track per recording process, loadable in Perfetto next to the
    simulator's ``plp-repro timeline --export chrome`` output."""
    events = []
    pids = set()
    for index, span in enumerate(spans):
        pids.add(span[PID])
        events.append(
            {
                "name": span[NAME],
                "cat": "host",
                "ph": "X",
                "ts": (span[START] - origin_ns) / 1e3,
                "dur": (span[END] - span[START]) / 1e3,
                "pid": span[PID],
                "tid": span[PID],
                "args": {"span": index, "parent": span[PARENT], "job": span[JOB]},
            }
        )
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": f"perfbench host {pid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
