"""Counters, gauges and fixed-bucket histograms.

The registry is the numeric side of the observability layer: the
compile pipeline records each pass's calls, wall time and counters
(including the engine's :class:`~repro.mapper.engine.EngineStats`) into
it, the streaming runtime counts windows and level switches, and sinks
export a snapshot alongside the span stream. It deliberately mirrors the
shape (not the wire format) of Prometheus-style registries while
staying zero-dependency and cheap enough to leave always on.

All instruments are thread-safe; pool workers snapshot their registry
per work item and the parent merges the snapshots in work-list order,
so a ``--jobs N`` sweep accumulates exactly the counters a serial one
does.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default histogram buckets: wall milliseconds, log-ish spaced.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                   500.0, 1000.0, 2000.0, 5000.0)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A last-write-wins sample."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Fixed upper-bound buckets plus sum/count (cumulative on export)."""

    __slots__ = ("name", "buckets", "counts", "sum", "count", "_lock")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +inf overflow
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory(name)
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, lambda n: Histogram(n, buckets))

    def absorb(self, prefix: str, counters: dict[str, float]) -> None:
        """Fold a flat counter dict (e.g. a compile pass's counters)
        into ``{prefix}.{key}`` counters."""
        for key, value in counters.items():
            self.counter(f"{prefix}.{key}").inc(value)

    def snapshot(self) -> dict[str, dict]:
        """Every instrument as plain data, keyed by name."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.to_dict() for inst in instruments}

    def counters(self) -> dict[str, float]:
        """Just the counter values (the deterministic slice tests use)."""
        return {
            name: d["value"] for name, d in self.snapshot().items()
            if d["type"] == "counter"
        }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram cells add; gauges take the incoming
        value (last write wins, matching their semantics).
        """
        for name, d in snapshot.items():
            kind = d.get("type")
            if kind == "counter":
                self.counter(name).inc(d.get("value", 0.0))
            elif kind == "gauge":
                self.gauge(name).set(d.get("value", 0.0))
            elif kind == "histogram":
                hist = self.histogram(name,
                                      tuple(d.get("buckets", DEFAULT_BUCKETS)))
                incoming = d.get("counts", [])
                with hist._lock:
                    for i, n in enumerate(incoming):
                        if i < len(hist.counts):
                            hist.counts[i] += n
                    hist.sum += d.get("sum", 0.0)
                    hist.count += d.get("count", 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry (always on; recording is cheap)."""
    return _REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (pool workers isolate per item);
    returns the previous one so callers can restore it."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    return previous
