"""Chunked on-disk traces: bounded npz windows plus a JSON manifest.

A monolithic :class:`~repro.memsim.trace.AccessTrace` at the
million-vertex scale is hundreds of megabytes per smoothing iteration;
the streaming pipeline never wants it resident at once. This module
spills a trace to a directory of fixed-size windows::

    trace.json            # manifest: counts, window size, iteration starts
    window-00000.npz      # columns array_ids / indices / is_write
    window-00001.npz
    ...

:class:`ChunkedTraceWriter` buffers appended event columns and flushes a
file whenever a full window accumulates, so writing is itself bounded by
one window. :class:`ChunkedTrace` is the read side: random access to any
window, an iterator over all of them, and (for tests and small traces)
full materialization. Every window round-trips as a normal
``AccessTrace``, so all existing analyses apply per window unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from .trace import AccessTrace

__all__ = ["TRACE_MANIFEST", "ChunkedTrace", "ChunkedTraceWriter"]

TRACE_MANIFEST = "trace.json"
_FORMAT = "chunked-trace-v1"


def _window_name(k: int) -> str:
    return f"window-{k:05d}.npz"


class ChunkedTraceWriter:
    """Spill an event stream into fixed-size npz windows.

    Append columns in any burst sizes; whenever ``window_events`` events
    accumulate, one window file is flushed, keeping the writer's
    footprint bounded. Close (or use as a context manager) to write the
    trailing partial window and the manifest; a ``with`` block that
    raises aborts the write instead (see :meth:`abort`).
    """

    def __init__(
        self,
        out_dir: str | Path,
        *,
        window_events: int,
        compress: bool = False,
    ) -> None:
        if window_events < 1:
            raise ValueError("window_events must be >= 1")
        self.out_dir = Path(out_dir)
        # The directories this writer creates, deepest first, so that
        # abort() removes exactly those.
        self._made_dirs = [
            d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()
        ]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.window_events = int(window_events)
        self.compress = compress
        self._ids: list[np.ndarray] = []
        self._idx: list[np.ndarray] = []
        self._wr: list[np.ndarray] = []
        self._buffered = 0
        self._flushed = 0
        self._windows = 0
        self._iter_starts: list[int] = []
        self._meta: dict = {}
        self._closed = False

    # -- recording ------------------------------------------------------
    def __len__(self) -> int:
        return self._flushed + self._buffered

    def begin_iteration(self) -> None:
        """Mark the current offset as the start of a smoothing iteration."""
        self._iter_starts.append(len(self))

    def append_columns(
        self,
        array_ids: np.ndarray,
        indices: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Buffer a block of aligned event columns, flushing full windows."""
        if self._closed:
            raise ValueError("writer is closed")
        array_ids = np.ascontiguousarray(array_ids, dtype=np.uint8)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        is_write = np.ascontiguousarray(is_write, dtype=bool)
        if not (array_ids.shape == indices.shape == is_write.shape):
            raise ValueError("trace columns must have identical shapes")
        if array_ids.size == 0:
            return
        self._ids.append(array_ids)
        self._idx.append(indices)
        self._wr.append(is_write)
        self._buffered += array_ids.size
        if self._buffered >= self.window_events:
            self._flush_full_windows()

    def append_trace(self, trace: AccessTrace) -> None:
        """Buffer an entire (sub-)trace's events (iteration info ignored)."""
        self.append_columns(trace.array_ids, trace.indices, trace.is_write)

    def set_meta(self, **meta) -> None:
        """Merge free-form labels into the manifest meta."""
        self._meta.update(meta)

    # -- flushing -------------------------------------------------------
    def _write_window(
        self, ids: np.ndarray, idx: np.ndarray, wr: np.ndarray
    ) -> None:
        savez = np.savez_compressed if self.compress else np.savez
        savez(
            self.out_dir / _window_name(self._windows),
            array_ids=ids,
            indices=idx,
            is_write=wr,
        )
        self._windows += 1
        self._flushed += ids.size

    def _flush_full_windows(self) -> None:
        ids = np.concatenate(self._ids)
        idx = np.concatenate(self._idx)
        wr = np.concatenate(self._wr)
        w = self.window_events
        lo = 0
        while ids.size - lo >= w:
            self._write_window(ids[lo : lo + w], idx[lo : lo + w], wr[lo : lo + w])
            lo += w
        self._ids = [ids[lo:]] if lo < ids.size else []
        self._idx = [idx[lo:]] if lo < ids.size else []
        self._wr = [wr[lo:]] if lo < ids.size else []
        self._buffered = ids.size - lo

    def close(self) -> Path:
        """Flush the trailing partial window, write the manifest."""
        if self._closed:
            return self.out_dir
        if self._buffered:
            self._write_window(
                np.concatenate(self._ids),
                np.concatenate(self._idx),
                np.concatenate(self._wr),
            )
            self._ids = self._idx = self._wr = []
            self._buffered = 0
        manifest = {
            "format": _FORMAT,
            "window_events": self.window_events,
            "total_events": self._flushed,
            "num_windows": self._windows,
            "iteration_starts": self._iter_starts or [0],
            "compress": self.compress,
            "meta": json.loads(json.dumps(self._meta, default=str)),
        }
        (self.out_dir / TRACE_MANIFEST).write_text(json.dumps(manifest, indent=2))
        self._closed = True
        return self.out_dir

    def abort(self) -> None:
        """Discard an unfinished write: delete the windows this writer
        wrote and the directories it made (when empty). The manifest is
        written only by :meth:`close`, after which this is a no-op."""
        if self._closed:
            return
        self._closed = True
        self._ids = self._idx = self._wr = []
        self._buffered = 0
        for k in range(self._windows):
            (self.out_dir / _window_name(k)).unlink(missing_ok=True)
        for d in self._made_dirs:
            try:
                d.rmdir()
            except OSError:  # holds files this writer did not create
                break

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class ChunkedTrace:
    """Read side of the chunked trace format.

    Windows load on demand as plain :class:`AccessTrace` objects (their
    ``meta`` carries the window index and global offset), so peak memory
    while replaying is one window, not the trace.
    """

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = Path(path)
        self._manifest = manifest
        self.window_events: int = int(manifest["window_events"])
        self.total_events: int = int(manifest["total_events"])
        self.num_windows: int = int(manifest["num_windows"])
        self.iteration_starts = np.asarray(
            manifest["iteration_starts"], dtype=np.int64
        )
        self.meta: dict = dict(manifest.get("meta", {}))

    @classmethod
    def open(cls, path: str | Path) -> "ChunkedTrace":
        """Open a directory written by :class:`ChunkedTraceWriter`."""
        path = Path(path)
        manifest_path = path / TRACE_MANIFEST
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no {TRACE_MANIFEST} in {path}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != _FORMAT:
            raise ValueError(f"unrecognised trace format in {manifest_path}")
        return cls(path, manifest)

    def __len__(self) -> int:
        return self.total_events

    @property
    def num_iterations(self) -> int:
        return self.iteration_starts.size

    def window_bounds(self, k: int) -> tuple[int, int]:
        """Global event range ``[lo, hi)`` covered by window ``k``."""
        if not 0 <= k < self.num_windows:
            raise IndexError(f"window {k} out of range")
        lo = k * self.window_events
        return lo, min(lo + self.window_events, self.total_events)

    def window(self, k: int) -> AccessTrace:
        """Load window ``k`` as a plain in-memory trace."""
        lo, hi = self.window_bounds(k)
        with np.load(self.path / _window_name(k)) as data:
            trace = AccessTrace(
                data["array_ids"],
                data["indices"],
                data["is_write"],
                meta=dict(self.meta, window=k, offset=lo),
            )
        if len(trace) != hi - lo:
            raise ValueError(f"window {k} length does not match manifest")
        return trace

    def iter_windows(self) -> Iterator[AccessTrace]:
        """Yield every window in order (bounded memory)."""
        for k in range(self.num_windows):
            yield self.window(k)

    def iteration(self, k: int) -> AccessTrace:
        """Materialize the sub-trace of smoothing iteration ``k``."""
        if not 0 <= k < self.num_iterations:
            raise IndexError(f"iteration {k} out of range")
        lo = int(self.iteration_starts[k])
        hi = (
            int(self.iteration_starts[k + 1])
            if k + 1 < self.num_iterations
            else self.total_events
        )
        if self.window_events == 0 or hi == lo:
            return AccessTrace(
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                meta=dict(self.meta, iteration=k),
            )
        first = lo // self.window_events
        last = (hi - 1) // self.window_events
        parts = []
        for w in range(first, last + 1):
            wlo, _ = self.window_bounds(w)
            win = self.window(w)
            parts.append(
                (
                    win.array_ids[max(lo - wlo, 0) : hi - wlo],
                    win.indices[max(lo - wlo, 0) : hi - wlo],
                    win.is_write[max(lo - wlo, 0) : hi - wlo],
                )
            )
        return AccessTrace(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
            meta=dict(self.meta, iteration=k),
        )

    def to_trace(self) -> AccessTrace:
        """Materialize the whole trace (tests / small traces only)."""
        if self.num_windows == 0:
            return AccessTrace(
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                iteration_starts=self.iteration_starts,
                meta=dict(self.meta),
            )
        windows = list(self.iter_windows())
        return AccessTrace(
            np.concatenate([w.array_ids for w in windows]),
            np.concatenate([w.indices for w in windows]),
            np.concatenate([w.is_write for w in windows]),
            iteration_starts=self.iteration_starts,
            meta=dict(self.meta),
        )
