"""Chunked / memory-mapped trace persistence."""

import numpy as np
import pytest

from repro.memsim import AccessTrace, ChunkedTrace, ChunkedTraceWriter


def make_trace(n, iterations=(0,), seed=0, meta=None):
    rng = np.random.default_rng(seed)
    return AccessTrace(
        rng.integers(0, 5, size=n).astype(np.uint8),
        rng.integers(0, 1000, size=n),
        rng.random(n) < 0.3,
        iteration_starts=np.asarray(iterations, dtype=np.int64),
        meta=meta or {},
    )


def assert_traces_equal(a, b, *, iteration_starts=True):
    assert np.array_equal(a.array_ids, b.array_ids)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.is_write, b.is_write)
    if iteration_starts:
        assert np.array_equal(a.iteration_starts, b.iteration_starts)


class TestMmapLoad:
    def test_uncompressed_round_trip_mmap(self, tmp_path):
        trace = make_trace(123, iterations=(0, 40, 77), meta={"mesh": "m"})
        written = trace.save_npz(tmp_path / "t", compress=False)
        assert written.name == "t.npz"
        loaded = AccessTrace.load_npz(written, mmap_mode="r")
        assert_traces_equal(loaded, trace)
        assert loaded.meta == {"mesh": "m"}
        # Columns are zero-copy views of the shared mapping.
        assert loaded.indices.base is not None
        assert not loaded.indices.flags.writeable

    def test_suffix_normalization_with_mmap(self, tmp_path):
        trace = make_trace(9)
        written = trace.save_npz(tmp_path / "odd.", compress=False)
        assert_traces_equal(AccessTrace.load_npz(written, mmap_mode="r"), trace)

    def test_compressed_round_trip_still_works(self, tmp_path):
        trace = make_trace(50, meta={"k": 1})
        written = trace.save_npz(tmp_path / "c", compress=True)
        loaded = AccessTrace.load_npz(written)
        assert_traces_equal(loaded, trace)
        assert loaded.meta == {"k": 1}

    def test_mmap_of_compressed_archive_rejected(self, tmp_path):
        written = make_trace(50).save_npz(tmp_path / "c", compress=True)
        with pytest.raises(ValueError, match="compress=False"):
            AccessTrace.load_npz(written, mmap_mode="r")

    def test_only_read_mode_supported(self, tmp_path):
        written = make_trace(5).save_npz(tmp_path / "t", compress=False)
        with pytest.raises(ValueError, match="mmap_mode"):
            AccessTrace.load_npz(written, mmap_mode="r+")


class TestChunkedRoundTrip:
    @pytest.mark.parametrize("window", [1, 7, 100, 1000])
    def test_save_open_round_trip(self, tmp_path, window):
        trace = make_trace(100, iterations=(0, 33, 66), meta={"mesh": "m"})
        out = trace.save_chunked(tmp_path / "chunks", window_events=window)
        chunked = AccessTrace.open_chunked(out)
        assert len(chunked) == 100
        assert chunked.window_events == window
        assert chunked.num_windows == -(-100 // window)
        assert chunked.meta == {"mesh": "m"}
        assert_traces_equal(chunked.to_trace(), trace)

    def test_window_contents_and_bounds(self, tmp_path):
        trace = make_trace(25)
        chunked = AccessTrace.open_chunked(
            trace.save_chunked(tmp_path / "c", window_events=10)
        )
        assert chunked.window_bounds(2) == (20, 25)
        total = 0
        for k, win in enumerate(chunked.iter_windows()):
            lo, hi = chunked.window_bounds(k)
            assert_traces_equal(
                win, trace.slice(lo, hi), iteration_starts=False
            )
            assert win.meta["window"] == k and win.meta["offset"] == lo
            total += len(win)
        assert total == 25
        with pytest.raises(IndexError):
            chunked.window(3)

    def test_iteration_reassembly_across_windows(self, tmp_path):
        trace = make_trace(60, iterations=(0, 17, 45))
        chunked = AccessTrace.open_chunked(
            trace.save_chunked(tmp_path / "c", window_events=8)
        )
        assert chunked.num_iterations == 3
        for k in range(3):
            assert_traces_equal(
                chunked.iteration(k), trace.iteration(k),
                iteration_starts=False,
            )
        with pytest.raises(IndexError):
            chunked.iteration(3)

    def test_empty_trace(self, tmp_path):
        empty = AccessTrace(
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )
        chunked = AccessTrace.open_chunked(
            empty.save_chunked(tmp_path / "e", window_events=4)
        )
        assert len(chunked) == 0 and chunked.num_windows == 0
        assert len(chunked.to_trace()) == 0

    def test_writer_incremental_flush_bounded(self, tmp_path):
        with ChunkedTraceWriter(tmp_path / "w", window_events=16) as writer:
            writer.begin_iteration()
            for burst in range(10):
                n = 7
                writer.append_columns(
                    np.full(n, burst % 5, dtype=np.uint8),
                    np.arange(n, dtype=np.int64),
                    np.zeros(n, dtype=bool),
                )
                # Buffer never holds a full window after an append.
                assert writer._buffered < 16
            writer.set_meta(source="unit")
        chunked = ChunkedTrace.open(tmp_path / "w")
        assert len(chunked) == 70
        assert chunked.num_windows == 5
        assert chunked.meta["source"] == "unit"

    def test_writer_block_that_raises_leaves_nothing(self, tmp_path):
        with pytest.raises(KeyError):
            with ChunkedTraceWriter(tmp_path / "w", window_events=4) as writer:
                writer.append_columns(
                    np.zeros(10, dtype=np.uint8),
                    np.arange(10, dtype=np.int64),
                    np.zeros(10, dtype=bool),
                )
                raise KeyError("injected")
        assert list(tmp_path.iterdir()) == []

    def test_open_rejects_missing_or_foreign(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ChunkedTrace.open(tmp_path / "nope")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "trace.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            ChunkedTrace.open(bad)

    def test_bad_window_events(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkedTraceWriter(tmp_path / "w", window_events=0)
