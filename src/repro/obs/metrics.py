"""A lightweight metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the aggregation side of the observability layer (the event
tracer in :mod:`repro.obs.events` is the raw side): instruments update named
metrics in O(1), :meth:`MetricsRegistry.snapshot` serializes everything to a
plain dict for the telemetry artifact.  Stdlib + numpy only, no locking —
the simulator is single-threaded and the registry inherits that contract.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "expose_snapshot_text",
]

#: default histogram bucket upper bounds (powers of two cover queue depths
#: and cycle counts equally well); the last implicit bucket is +inf
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down; tracks the extremes it has seen."""

    __slots__ = ("name", "value", "min_seen", "max_seen")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf

    def set(self, value: float) -> None:
        self.value = value
        self.min_seen = min(self.min_seen, value)
        self.max_seen = max(self.max_seen, value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "min": None if math.isinf(self.min_seen) else self.min_seen,
            "max": None if math.isinf(self.max_seen) else self.max_seen,
        }


class Histogram:
    """Fixed-bucket histogram with sum/count and percentile estimates.

    ``buckets`` are upper bounds of the first ``len(buckets)`` buckets; an
    implicit overflow bucket catches everything larger.  Percentiles are
    estimated from bucket boundaries (upper bound of the bucket holding the
    rank), which is exact whenever observations are small integers that fall
    on the boundaries — the simulator's queue depths and round counts do.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum", "max_seen")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.total = 0
        self.sum = 0.0
        self.max_seen = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value
        if value > self.max_seen:
            self.max_seen = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-th percentile."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.total == 0:
            return 0.0
        rank = math.ceil(q / 100.0 * self.total)
        seen = 0
        for idx, count in enumerate(self.counts):
            seen += count
            if seen >= max(rank, 1):
                if idx < len(self.buckets):
                    return self.buckets[idx]
                return float(self.max_seen)
        return float(self.max_seen)

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "max": None if math.isinf(self.max_seen) else self.max_seen,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named metrics, created on first use (``registry.counter("x").inc()``)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Serializable view of every metric, keyed by name."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, dict]) -> MetricsRegistry:
        """Rebuild a registry from a :meth:`snapshot` dict.

        The inverse of :meth:`snapshot` up to the derived histogram fields
        (p50/p95/p99 are recomputed from the restored counts).  This is what
        lets a bounded :class:`~repro.obs.events.EventRecorder` checkpoint
        its aggregates directly: once eviction has dropped events, replaying
        the surviving buffer can no longer reproduce the registry.
        """
        registry = cls()
        for name, metric in snapshot.items():
            kind = metric.get("type", "gauge")
            if kind == "counter":
                registry.counter(name).inc(int(metric["value"]))
            elif kind == "histogram":
                hist = registry.histogram(name, buckets=metric["buckets"])
                hist.counts = [int(c) for c in metric["counts"]]
                hist.total = int(metric["total"])
                hist.sum = float(metric["sum"])
                # extremes keep their JSON number type: a live int max must
                # not come back as a float and change the next snapshot
                hist.max_seen = -math.inf if metric["max"] is None else metric["max"]
            else:  # gauge
                gauge = registry.gauge(name)
                gauge.value = metric["value"]
                gauge.min_seen = math.inf if metric["min"] is None else metric["min"]
                gauge.max_seen = -math.inf if metric["max"] is None else metric["max"]
        return registry

    def expose_text(self, prefix: str = "pmtree") -> str:
        """Prometheus-style text exposition of every metric.

        The live scrape surface for a daemon (and ``pmtree perf expose``
        today): deterministic output — metrics sorted by name, one
        ``# TYPE`` line per family — built from :meth:`snapshot`, so the
        exposed values are exactly the snapshotted ones.
        """
        return expose_snapshot_text(self.snapshot(), prefix=prefix)

    @staticmethod
    def percentile_of(values, q: float) -> float:
        """Exact percentile of raw samples (numpy), for report-side math."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return 0.0
        return float(np.percentile(arr, q))


# -- Prometheus-style text exposition ------------------------------------------

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _expo_name(name: str, prefix: str) -> str:
    """Sanitize a registry name into a Prometheus metric name."""
    clean = _INVALID_CHARS.sub("_", name)
    full = f"{prefix}_{clean}" if prefix else clean
    if full and full[0].isdigit():
        full = f"_{full}"
    return full


def _expo_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:g}"


def expose_snapshot_text(snapshot: dict[str, dict], prefix: str = "pmtree") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Registry names are sanitized (every character outside
    ``[a-zA-Z0-9_:]`` becomes ``_``) and prefixed; counters render one
    sample, gauges one sample, histograms the conventional cumulative
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.  Two registry
    names that sanitize to the same exposition name (``a.b`` vs ``a_b``)
    raise :class:`ValueError` rather than silently merging series.
    """
    lines: list[str] = []
    seen: dict[str, str] = {}
    for name in sorted(snapshot):
        metric = snapshot[name]
        expo = _expo_name(name, prefix)
        if expo in seen:
            raise ValueError(
                f"metrics {seen[expo]!r} and {name!r} both expose as "
                f"{expo!r}; rename one"
            )
        seen[expo] = name
        kind = metric.get("type", "gauge")
        if kind == "counter":
            lines.append(f"# TYPE {expo} counter")
            lines.append(f"{expo} {_expo_value(metric['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {expo} histogram")
            cumulative = 0
            for bound, count in zip(metric["buckets"], metric["counts"]):
                cumulative += count
                lines.append(
                    f'{expo}_bucket{{le="{_expo_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{expo}_bucket{{le="+Inf"}} {metric["total"]}')
            lines.append(f"{expo}_sum {_expo_value(metric['sum'])}")
            lines.append(f"{expo}_count {metric['total']}")
        else:  # gauge
            lines.append(f"# TYPE {expo} gauge")
            lines.append(f"{expo} {_expo_value(metric['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
