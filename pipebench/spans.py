"""Benchmark-owned span recorder for the traced replay.

Spans are opened by the benchmark around its own calls into each
layer's public functions; nothing inside ``repro`` is patched. Every
span carries a name, start, end, its parent span and the thread it ran
on, and all spans of one replay share a run id. They stay in memory and
are written out once, when the benchmark ends.

A span's self time is its duration minus the time covered by its
children *on the same thread*: the fused consumer thread's spans hang
under the producer's smoothing span but overlap it in time, so they are
not subtracted from it.
"""

from __future__ import annotations

import resource
import threading
import time
from contextlib import contextmanager


def rss_hwm_mb() -> float:
    """Process high-water RSS in MiB (Linux reports kibibytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder with one stack per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, *, parent: int | None = None, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None:
            parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        rss_before = rss_hwm_mb()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "run": self.run_id,
                "id": sid,
                "name": name,
                "parent": parent,
                "thread": threading.current_thread().name,
                "start": start,
                "end": end,
                "rss_hwm_mb": rss_hwm_mb(),
                "rss_before_mb": rss_before,
                **attrs,
            }
            with self._lock:
                self.spans.append(record)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: duration minus same-thread children."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            own[parent["id"]] -= s["end"] - s["start"]
    return own


def layer_rows(spans: list[dict]) -> dict[str, dict]:
    """Per-name aggregate: calls, summed self time, summed duration, and
    how far the process RSS high-water mark rose during its calls (the
    layers whose rises add up to the peak are the ones that set it)."""
    own = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(
            s["name"],
            {"calls": 0, "self_s": 0.0, "total_s": 0.0, "rss_rise_mb": 0.0},
        )
        row["calls"] += 1
        row["self_s"] += own[s["id"]]
        row["total_s"] += s["end"] - s["start"]
        row["rss_rise_mb"] += s["rss_hwm_mb"] - s["rss_before_mb"]
    return rows
