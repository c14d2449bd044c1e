"""Completion-time heap for the skip-ahead cycle-accurate engine.

:class:`~repro.core.update_engine.CycleAccurateEngine` keeps its
in-flight completion events here and jumps its clock straight to the
earliest one instead of polling every cycle.
"""

from __future__ import annotations

import heapq
from typing import Optional


class CompletionHeap:
    """A min-heap of pending completion timestamps.

    The skip-ahead timing engines keep one entry per in-flight
    completion event — a MAC stage finishing, a BMT level freeing, a
    WPQ slot releasing, an epoch draining — and advance the clock
    directly to the earliest pending entry instead of polling every
    cycle.  Times are plain integers; ties need no tie-breaker because
    the heap only answers "when is the next event", never "which".
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[int] = []

    def push(self, time: int) -> None:
        """Record a completion event at cycle ``time``."""
        heapq.heappush(self._heap, time)

    def next_time(self) -> Optional[int]:
        """Earliest pending completion, or ``None`` when empty."""
        return self._heap[0] if self._heap else None

    def pop(self) -> int:
        """Remove and return the earliest pending completion."""
        return heapq.heappop(self._heap)

    def release_until(self, now: int) -> int:
        """Drop (and count) every completion at or before ``now``."""
        heap = self._heap
        released = 0
        while heap and heap[0] <= now:
            heapq.heappop(heap)
            released += 1
        return released

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
