"""Context-manager span tracer with an allocation-free disabled path.

A :class:`Span` measures one phase of work: wall time
(``perf_counter``), CPU time (``process_time``), an event count, free
attributes, and parent/child links.  Spans nest lexically through the
``with`` statement::

    with obs.span("pipeline.run_ordering", mesh=mesh.name):
        with obs.span("pipeline.smooth") as sp:
            ...
            sp.add_event(n)

The module keeps one process-global active tracer.  By default it is
:data:`NULL_TRACER`, whose ``span()`` returns a shared no-op singleton —
no Span object, no list append, no clock read — so instrumentation left
in hot paths costs one attribute lookup and one call when tracing is
off.  Instrumentation is phase-granular by design (per run, per
iteration, per socket — never per memory event), which keeps even the
*enabled* overhead small and the disabled overhead unmeasurable (gated
by ``benchmarks/test_obs_overhead.py``).

:func:`capture` installs a fresh tracer for a ``with`` block and
restores the previous one on exit; :meth:`Tracer.export` /
:meth:`Tracer.adopt` round-trip span trees through plain dicts, which is
how worker processes ship their spans back to the parent for merging.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from .metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry

__all__ = [
    "NULL_TRACER",
    "Span",
    "NullTracer",
    "Tracer",
    "capture",
    "get_tracer",
    "is_enabled",
    "span",
    "add",
    "gauge_set",
    "observe",
    "metrics",
]


class Span:
    """One timed, attributed phase of work (a node in the span tree)."""

    __slots__ = (
        "name",
        "attrs",
        "events",
        "children",
        "parent",
        "t0",
        "wall_s",
        "cpu_s",
        "_tracer",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, name: str, tracer: "Tracer | None" = None, **attrs):
        self.name = name
        self.attrs: dict = attrs
        self.events = 0
        self.children: list[Span] = []
        self.parent: Span | None = None
        self.t0 = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._tracer = tracer
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def add_event(self, n: int = 1) -> None:
        """Count ``n`` events against this span."""
        self.events += int(n)

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.t0 = time.time()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._tracer is not None:
            self._tracer._pop(self)

    def to_dict(self) -> dict:
        """Recursive JSON-serialisable form (children nested)."""
        return {
            "name": self.name,
            "t0": self.t0,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "events": self.events,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree exported by :meth:`to_dict`."""
        sp = cls(data["name"])
        sp.t0 = float(data.get("t0", 0.0))
        sp.wall_s = float(data.get("wall_s", 0.0))
        sp.cpu_s = float(data.get("cpu_s", 0.0))
        sp.events = int(data.get("events", 0))
        sp.attrs = dict(data.get("attrs", {}))
        for child in data.get("children", ()):
            node = cls.from_dict(child)
            node.parent = sp
            sp.children.append(node)
        return sp


class _NullSpan:
    """Shared do-nothing span returned by the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def add_event(self, n: int = 1) -> None:
        """No-op."""

    def set(self, **attrs) -> None:
        """No-op."""


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op on shared
    singletons, so instrumentation costs nothing when tracing is off."""

    enabled = False
    metrics: NullRegistry = NULL_REGISTRY

    def span(self, name: str, **attrs) -> _NullSpan:
        """Return the shared no-op span."""
        return NULL_SPAN

    def export(self) -> list[dict]:
        """No spans to export."""
        return []

    def adopt(self, span_dicts, parent=None) -> None:
        """Discard (disabled tracer keeps no state)."""


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of spans plus a metrics registry."""

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.roots: list[Span] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None at the top level."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs) -> Span:
        """A new span to be entered with ``with``; parented under the
        currently open span at ``__enter__`` time."""
        return Span(name, tracer=self, **attrs)

    def _push(self, sp: Span) -> None:
        parent = self.current
        sp.parent = parent
        if parent is not None:
            parent.children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)

    def _pop(self, sp: Span) -> None:
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()

    def export(self) -> list[dict]:
        """The root spans as plain dicts (for JSONL / cross-process)."""
        return [sp.to_dict() for sp in self.roots]

    def adopt(self, span_dicts, parent: Span | None = None) -> None:
        """Attach exported span dicts (e.g. from a worker process) as
        children of ``parent`` (default: the currently open span, else
        as new roots)."""
        parent = parent if parent is not None else self.current
        for data in span_dicts:
            sp = Span.from_dict(data)
            sp.parent = parent
            if parent is not None:
                parent.children.append(sp)
            else:
                self.roots.append(sp)


# ---------------------------------------------------------------------------
# Process-global active tracer + convenience forwarding helpers
# ---------------------------------------------------------------------------
_ACTIVE: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The currently active tracer (the disabled one by default)."""
    return _ACTIVE


def is_enabled() -> bool:
    """True when a real tracer is collecting."""
    return _ACTIVE.enabled


def span(name: str, **attrs):
    """``get_tracer().span(...)`` — the standard instrumentation call."""
    return _ACTIVE.span(name, **attrs)


def add(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` when tracing is enabled."""
    t = _ACTIVE
    if t.enabled:
        t.metrics.counter(name).add(n)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` when tracing is enabled."""
    t = _ACTIVE
    if t.enabled:
        t.metrics.gauge(name).set(value)


def observe(name: str, values, edges=None) -> None:
    """Feed values into histogram ``name`` when tracing is enabled."""
    t = _ACTIVE
    if t.enabled:
        if edges is None:
            t.metrics.histogram(name).observe(values)
        else:
            t.metrics.histogram(name, edges).observe(values)


def metrics() -> MetricsRegistry | NullRegistry:
    """The active tracer's metrics registry."""
    return _ACTIVE.metrics


@contextmanager
def capture(
    tracer: Tracer | None = None,
) -> Iterator[Tracer]:
    """Install a fresh (or given) tracer for the duration of the block.

    The previous tracer — usually the disabled singleton — is restored
    on exit, exception or not, so captures nest safely.
    """
    global _ACTIVE
    previous = _ACTIVE
    installed = tracer if tracer is not None else Tracer()
    _ACTIVE = installed
    try:
        yield installed
    finally:
        _ACTIVE = previous
