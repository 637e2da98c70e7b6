"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of :mod:`repro.obs` (spans are the
temporal half).  Instruments are created on first use and accumulate for
the lifetime of the tracer that owns the registry:

* :class:`Counter` — monotonically increasing integer (cache hits,
  vertices smoothed, trace events).
* :class:`Gauge` — last-written float (convergence quality, ratios).
* :class:`Histogram` — fixed-bucket distribution with vectorized
  ``observe`` (reuse distances, wavefront widths).  Buckets are defined
  by a sorted tuple of inclusive upper edges plus one overflow bucket,
  so two histograms over the same edges merge by adding counts.

Everything serialises to plain JSON via :meth:`MetricsRegistry.snapshot`
and re-merges via :meth:`MetricsRegistry.merge`, the mechanism for
shipping metrics across process boundaries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POW2_EDGES",
]

#: Default histogram edges: powers of two up to 2^30 (inclusive upper
#: bounds).  Reuse distances and wavefront widths are both heavy-tailed
#: count distributions, so log-spaced buckets resolve every regime.
POW2_EDGES: tuple[int, ...] = tuple(2**k for k in range(31))


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (must be >= 0)."""
        self.value += int(n)


class Gauge:
    """Last-value-wins float gauge."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with an overflow bucket.

    ``edges`` are inclusive upper bounds in increasing order; a value
    ``v`` lands in the first bucket with ``v <= edge``, values beyond
    the last edge land in the overflow bucket (``counts[-1]``).
    """

    __slots__ = ("name", "edges", "counts", "total")

    def __init__(self, name: str, edges: tuple[float, ...] = POW2_EDGES):
        if len(edges) == 0 or any(
            edges[i] >= edges[i + 1] for i in range(len(edges) - 1)
        ):
            raise ValueError("edges must be non-empty and strictly increasing")
        self.name = name
        self.edges = tuple(edges)
        self.counts = np.zeros(len(edges) + 1, dtype=np.int64)
        self.total = 0

    def observe(self, values) -> None:
        """Bucket an array of values (vectorized)."""
        arr = np.asarray(values)
        if arr.size == 0:
            return
        idx = np.searchsorted(self.edges, arr.ravel(), side="left")
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.total += arr.size

    def observe_one(self, value: float) -> None:
        """Bucket a single value."""
        idx = int(np.searchsorted(self.edges, value, side="left"))
        self.counts[idx] += 1
        self.total += 1

    def as_dict(self) -> dict:
        """JSON-serialisable form (edges, counts, total)."""
        return {
            "edges": list(self.edges),
            "counts": [int(c) for c in self.counts],
            "total": int(self.total),
        }


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created empty on first use)."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, edges: tuple[float, ...] = POW2_EDGES
    ) -> Histogram:
        """The histogram named ``name`` (edges fixed on first use)."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, edges)
        return h

    def snapshot(self) -> dict:
        """Flat JSON-serialisable view of every instrument."""
        return {
            "counters": {n: int(c.value) for n, c in sorted(self.counters.items())},
            "gauges": {n: float(g.value) for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters and histogram counts add, gauges last-write-win."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            h = self.histogram(name, tuple(data["edges"]))
            if tuple(data["edges"]) != h.edges:
                raise ValueError(
                    f"histogram {name!r} merged with mismatched edges"
                )
            h.counts += np.asarray(data["counts"], dtype=np.int64)
            h.total += int(data["total"])


#: Shared do-nothing instruments backing the disabled tracer, so code
#: holding a direct instrument reference stays a no-op when tracing is
#: off.
class _NullInstrument:
    """No-op stand-in for any instrument on the disabled tracer."""

    __slots__ = ()

    def add(self, n: int = 1) -> None:  # noqa: D102 - no-op
        pass

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def observe(self, values) -> None:  # noqa: D102 - no-op
        pass

    def observe_one(self, value: float) -> None:  # noqa: D102 - no-op
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Registry of the disabled tracer: hands out the shared no-op
    instrument and snapshots to an empty dict."""

    def counter(self, name: str) -> _NullInstrument:
        """No-op counter."""
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        """No-op gauge."""
        return NULL_INSTRUMENT

    def histogram(self, name: str, edges=POW2_EDGES) -> _NullInstrument:
        """No-op histogram."""
        return NULL_INSTRUMENT

    def snapshot(self) -> dict:
        """Empty snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: dict) -> None:
        """Discard (disabled tracer keeps no state)."""


NULL_REGISTRY = NullRegistry()
