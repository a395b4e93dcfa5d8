"""Process-local metrics primitives: counters, gauges, histograms.

The registry is intentionally stdlib-only and self-contained so that every
layer of the code base (search, sweep, shard, hw) can depend on it without
creating import cycles.  Snapshots are plain picklable dataclasses so worker
processes can ship their measurements back to the parent over the existing
``multiprocessing`` channels, where they are merged into the parent registry.

Design rules:

* **Zero cost when disabled** — instrumented code asks the module-level
  :func:`repro.telemetry.registry` accessor for the active registry and does
  nothing when it returns ``None``.  No locks are taken, no strings are
  formatted.
* **Thread-safe** — a single registry may be written from request-handler
  threads (shard coordinator), the heartbeat thread and the scheduler loop
  at the same time.
* **Mergeable** — counters add, histogram bucket counts add, gauges take the
  most recent value.  This makes parent/child aggregation associative.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Default latency buckets (seconds).  They span sub-millisecond analytical
#: model calls up to multi-minute sweep cells; the terminal bucket is +inf.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,
    0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, float("inf"),
)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Last-value-wins instantaneous measurement."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram of observations.

    ``buckets`` are inclusive upper bounds; the final bound must be ``+inf``
    (it is appended automatically when missing).  Only bucket counts, the
    running sum and min/max are retained — not individual observations —
    so snapshots stay small no matter how hot the instrumented path is.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_min", "_max", "_total", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if sorted(bounds) != list(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted: {bounds}")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.name = name
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break
            self._sum += value
            self._total += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def snapshot(self) -> "HistogramSnapshot":
        with self._lock:
            return HistogramSnapshot(
                buckets=self.buckets,
                counts=tuple(self._counts),
                total=self._total,
                sum=self._sum,
                min=self._min,
                max=self._max,
            )


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable, picklable view of a :class:`Histogram`."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    total: int
    sum: float
    min: Optional[float]
    max: Optional[float]

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.total if self.total else None

    def as_dict(self) -> dict:
        return {
            "buckets": ["inf" if b == float("inf") else b for b in self.buckets],
            "counts": list(self.counts),
            "total": self.total,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramSnapshot":
        return cls(
            buckets=tuple(float(b) for b in data["buckets"]),
            counts=tuple(int(c) for c in data["counts"]),
            total=int(data["total"]),
            sum=float(data["sum"]),
            min=data.get("min"),
            max=data.get("max"),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, picklable view of a whole :class:`MetricsRegistry`."""

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].as_dict() for k in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                name: HistogramSnapshot.from_dict(h)
                for name, h in data.get("histograms", {}).items()
            },
        )


class MetricsRegistry:
    """Thread-safe collection of named instruments.

    Instruments are created lazily on first use; asking twice for the same
    name returns the same instrument.  A name may only be used for one
    instrument kind.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                self._check_free(name, "counter")
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                self._check_free(name, "gauge")
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                self._check_free(name, "histogram")
                inst = self._histograms[name] = Histogram(name, buckets)
            return inst

    def _check_free(self, name: str, kind: str) -> None:
        for pool, other in ((self._counters, "counter"), (self._gauges, "gauge"), (self._histograms, "histogram")):
            if other != kind and name in pool:
                raise ValueError(f"metric {name!r} already registered as a {other}")

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.snapshot() for name, h in self._histograms.items()}
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def merge(self, other: MetricsSnapshot) -> None:
        """Fold a snapshot (typically from a worker process) into this registry.

        Counters and histogram bucket counts add; gauges take the snapshot's
        value (last write wins).  Histograms must share bucket bounds.
        """
        for name, value in other.counters.items():
            self.counter(name).inc(value)
        for name, value in other.gauges.items():
            self.gauge(name).set(value)
        for name, snap in other.histograms.items():
            hist = self.histogram(name, snap.buckets)
            if hist.buckets != snap.buckets:
                raise ValueError(f"histogram {name!r} bucket mismatch: {hist.buckets} vs {snap.buckets}")
            with hist._lock:
                for i, count in enumerate(snap.counts):
                    hist._counts[i] += count
                hist._sum += snap.sum
                hist._total += snap.total
                if snap.min is not None and (hist._min is None or snap.min < hist._min):
                    hist._min = snap.min
                if snap.max is not None and (hist._max is None or snap.max > hist._max):
                    hist._max = snap.max
