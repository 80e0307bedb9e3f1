"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

Three metric types with a Prometheus-style data model (monotonic
counters, last-value gauges, cumulative-bucket histograms).  The
predict server keeps its live metrics here (latency and batch-size
histograms, queue-depth and epoch gauges, request counters), and a
``Tracer(metrics=registry)`` observes every closed attempt span into a
``task_seconds.<phase>`` histogram.  A fit's run record — per-task rows,
worker ids, the merge ledger — stays in
:class:`~repro.engine.counters.Counters`.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
    "SERVE_BATCH_BUCKETS",
]

#: Default histogram boundaries for task-duration metrics, in seconds:
#: log-spaced from 1 ms to 60 s, wide enough for both micro-tasks and
#: chaos-delayed stragglers.  Observations above the last boundary land
#: in the implicit +Inf bucket.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Request-latency boundaries for the serving plane, in seconds:
#: log-spaced from 50 µs to 10 s.  Serving latencies sit two orders of
#: magnitude below task durations (a micro-batched predict answers in
#: hundreds of microseconds), so the task buckets above would collapse
#: every healthy request into their first bin and p50/p99 would be
#: indistinguishable.
SERVE_LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)

#: Batch-size boundaries (fused points per dispatch) for the serving
#: plane's batch-size distribution: powers of two up to the largest
#: sane micro-batch.
SERVE_BATCH_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


class Counter:
    """A monotonically non-decreasing value (float-valued)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that goes up and down; remembers only the latest set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram with cumulative-style bucket counts.

    ``boundaries`` are upper bounds of the finite buckets, strictly
    increasing; an implicit +Inf bucket catches the rest.  ``counts``
    holds per-bucket (non-cumulative) observation counts, so
    ``len(counts) == len(boundaries) + 1``.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "sum", "min", "max")

    def __init__(
        self, name: str, boundaries: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the ``q``-quantile observation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self.max
        return self.max

    def to_dict(self) -> dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
        }


class MetricsRegistry:
    """Namespace of metrics, get-or-create by name.

    A name belongs to exactly one metric type; asking for it as a
    different type raises — the mistake this catches is two call sites
    silently splitting one logical metric.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, boundaries), Histogram
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.items())

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> float:
        """Scalar value of a counter/gauge (KeyError if absent)."""
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use snapshot()")
        return metric.value

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump of every metric."""
        out: dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.to_dict()
            else:
                out[name] = metric.value
        return out
