"""Statistics primitives shared by every timing model.

All hardware models register their counters in a :class:`StatsRegistry`
so that a finished simulation can be rendered as a flat ``dict`` and fed
to the benchmark harness or the report formatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple


class Counter:
    """A monotonically increasing event counter.

    A slotted plain class (not a dataclass): counter increments are the
    single most frequent operation in a simulation.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Counter)
            and self.name == other.name
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"Counter(name={self.name!r}, value={self.value})"


class Histogram:
    """A bucketed histogram for latency/occupancy distributions."""

    def __init__(self, name: str, bucket_width: int = 16) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.name = name
        self.bucket_width = bucket_width
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: int | None = None
        self._max: int | None = None

    def record(self, sample: int) -> None:
        bucket = sample // self.bucket_width
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self._count += 1
        self._total += sample
        self._min = sample if self._min is None else min(self._min, sample)
        self._max = sample if self._max is None else max(self._max, sample)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> int:
        return self._min if self._min is not None else 0

    @property
    def maximum(self) -> int:
        return self._max if self._max is not None else 0

    def buckets(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(bucket_start, count)`` in ascending order."""
        for bucket in sorted(self._buckets):
            yield bucket * self.bucket_width, self._buckets[bucket]

    def percentile(self, p: float) -> float:
        """Percentile ``p`` (0..100), linearly interpolated within buckets.

        Edge semantics: an empty histogram reports ``0.0``; ``p == 0``
        is the recorded minimum and ``p == 100`` the maximum; values
        outside ``[0, 100]`` raise.  Interpolated results are clamped to
        ``[minimum, maximum]`` so a percentile can never fall outside
        the observed range (bucket edges overshoot otherwise — e.g. a
        single-bucket histogram whose samples sit at the bucket floor).
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self._count:
            return 0.0
        if p == 0:
            return float(self.minimum)
        if p == 100:
            return float(self.maximum)
        target = self._count * p / 100.0
        seen = 0
        for start, count in self.buckets():
            previous = seen
            seen += count
            if seen >= target:
                fraction = (target - previous) / count
                value = start + fraction * self.bucket_width
                return min(max(value, float(self.minimum)), float(self.maximum))
        return float(self.maximum)

    def reset(self) -> None:
        """Clear every sample; the histogram object stays registered."""
        self._buckets.clear()
        self._count = 0
        self._total = 0
        self._min = None
        self._max = None


@dataclass
class StatsRegistry:
    """A namespaced collection of counters and histograms."""

    prefix: str = ""
    _counters: Dict[str, Counter] = field(default_factory=dict)
    _histograms: Dict[str, Histogram] = field(default_factory=dict)
    _children: Dict[str, "StatsRegistry"] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(self._qualify(name))
        return self._counters[name]

    def histogram(self, name: str, bucket_width: int = 16) -> Histogram:
        """Get or create the histogram ``name``."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(self._qualify(name), bucket_width)
        return self._histograms[name]

    def child(self, prefix: str) -> "StatsRegistry":
        """Get or create the nested registry ``prefix``.

        Memoized: asking for the same prefix twice returns the same
        registry, so two components sharing a namespace also share its
        counters instead of silently shadowing each other in
        :meth:`as_dict`.
        """
        registry = self._children.get(prefix)
        if registry is None:
            registry = StatsRegistry(prefix=self._qualify(prefix))
            self._children[prefix] = registry
        return registry

    def as_dict(self) -> Dict[str, float]:
        """Flatten every counter and histogram summary into one dict."""
        out: Dict[str, float] = {}
        for counter in self._counters.values():
            out[counter.name] = counter.value
        for histogram in self._histograms.values():
            out[f"{histogram.name}.count"] = histogram.count
            out[f"{histogram.name}.mean"] = histogram.mean
            out[f"{histogram.name}.max"] = histogram.maximum
        for childreg in self._children.values():
            out.update(childreg.as_dict())
        return out

    def reset(self) -> None:
        """Zero every counter and histogram, recursively.

        Histograms are reset *in place* (not discarded) so components
        holding a histogram reference keep recording into the registry
        after a reset; the recursion reaches grandchildren through each
        child's own reset.
        """
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        for childreg in self._children.values():
            childreg.reset()

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name


def geometric_mean(values: List[float]) -> float:
    """Geometric mean, the aggregation the paper uses for overheads."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
