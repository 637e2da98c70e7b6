"""Differential suite: the batched socket kernel vs the reference interleave.

``simulate_socket(sim_engine="batched")`` replays a socket's round-robin
interleave through one exact kernel: it drops each core's immediate
repeats, rebuilds the interleave with one stable sort, and runs one
inlined LRU loop. Its contract is bit-for-bit equality with the
per-event reference (one ``CacheHierarchy`` per core over a shared L3)
for any core count, quantum, affinity, window and stream shape. The
machines are tiny, with L2 at most twice L1 and a small L3, so that L2
and shared-L3 back-invalidations fire constantly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.memsim import simulate_multicore, simulate_socket
from repro.memsim.machine import CacheSpec, MachineSpec

#: (L1 sets, ways, L2 sets, ways, L3 sets, ways): L2 holds at most
#: twice L1's lines, L3 a few times that.
GEOMETRIES = [
    (1, 2, 1, 4, 2, 4),
    (1, 1, 1, 2, 1, 3),
    (2, 2, 2, 4, 4, 4),
    (1, 2, 2, 2, 2, 3),
    (2, 1, 2, 2, 4, 2),
    (1, 3, 1, 3, 1, 4),
]
QUANTA = (1, 2, 64)
WINDOWS = (None, 1, 5, 64, 1000)


def toy_machine(s1, w1, s2, w2, s3, w3, cores_per_socket):
    line = 8
    return MachineSpec(
        name="toy",
        l1=CacheSpec("L1", s1 * w1 * line, w1, 1.0, line),
        l2=CacheSpec("L2", s2 * w2 * line, w2, 4.0, line),
        l3=CacheSpec("L3", s3 * w3 * line, w3, 16.0, line),
        memory_latency_cycles=64.0,
        remote_l3_extra_cycles=16.0,
        frequency_hz=1e9,
        cores_per_socket=cores_per_socket,
        num_sockets=2,
    )


def counts(result):
    return [
        (cr.core, cr.socket)
        + tuple((lv.accesses, lv.hits) for lv in cr.stats.levels())
        for cr in result.per_core
    ]


#: A core's stream as runs of one line, so long same-line runs (the
#: events the kernel drops) are common; empty streams are allowed.
core_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=40,
).map(
    lambda runs: np.repeat(
        np.array([line for line, _ in runs], dtype=np.int64),
        [n for _, n in runs],
    )
)


@given(
    streams=st.lists(core_stream, min_size=1, max_size=16),
    geometry=st.sampled_from(GEOMETRIES),
    cores_per_socket=st.integers(min_value=1, max_value=8),
    quantum=st.sampled_from(QUANTA),
    affinity=st.sampled_from(["compact", "scatter"]),
    window=st.sampled_from(WINDOWS),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_interleave(
    streams, geometry, cores_per_socket, quantum, affinity, window
):
    machine = toy_machine(*geometry, cores_per_socket)
    streams = streams[: machine.num_cores]
    want = simulate_multicore(
        streams, machine, affinity=affinity, quantum=quantum
    )
    got = simulate_multicore(
        streams,
        machine,
        config=RunConfig(sim_engine="batched", stream_window_events=window),
        affinity=affinity,
        quantum=quantum,
    )
    assert counts(got) == counts(want)


@given(
    streams=st.lists(core_stream, min_size=1, max_size=8),
    geometry=st.sampled_from(GEOMETRIES),
    quantum=st.sampled_from(QUANTA),
    window=st.sampled_from(WINDOWS),
)
@settings(max_examples=60, deadline=None)
def test_windowed_reference_matches_unwindowed(
    streams, geometry, quantum, window
):
    # The reference's one-quantum-at-a-time form is the same interleave.
    machine = toy_machine(*geometry, 8)
    cores = list(range(len(streams)))
    want = simulate_socket(0, cores, streams, machine, quantum=quantum)
    got = simulate_socket(
        0, cores, streams, machine, quantum=quantum,
        stream_window_events=window,
    )
    assert [cr.stats for cr in got] == [cr.stats for cr in want]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("quantum", QUANTA)
def test_long_runs_uneven_and_empty_streams(quantum, window):
    machine = toy_machine(1, 2, 1, 4, 2, 4, cores_per_socket=8)
    rng = np.random.default_rng(7)
    streams = [
        np.repeat(rng.integers(0, 40, 50), rng.integers(1, 30, 50)),
        np.array([], dtype=np.int64),
        np.full(500, 3, dtype=np.int64),
        rng.integers(0, 40, 7),
        np.repeat(rng.integers(0, 40, 200), 2),
    ]
    cores = list(range(len(streams)))
    want = simulate_socket(0, cores, streams, machine, quantum=quantum)
    got = simulate_socket(
        0, cores, streams, machine, quantum=quantum,
        sim_engine="batched", stream_window_events=window,
    )
    assert [cr.stats for cr in got] == [cr.stats for cr in want]
    assert got[1].stats.l1.accesses == 0
    assert got[2].stats.l1.misses == 1


def test_memmapped_streams_replay_in_windows(tmp_path):
    machine = toy_machine(2, 2, 2, 4, 4, 4, cores_per_socket=4)
    rng = np.random.default_rng(11)
    streams = []
    for k in range(3):
        path = tmp_path / f"core{k}.npy"
        np.save(path, np.repeat(rng.integers(0, 50, 300), 3))
        streams.append(np.load(path, mmap_mode="r"))
    want = simulate_socket(0, [0, 1, 2], streams, machine)
    got = simulate_socket(
        0, [0, 1, 2], streams, machine,
        sim_engine="batched", stream_window_events=100,
    )
    assert [cr.stats for cr in got] == [cr.stats for cr in want]


def test_kernel_rejects_negative_lines_and_bad_quantum():
    machine = toy_machine(1, 2, 1, 4, 2, 4, cores_per_socket=2)
    with pytest.raises(ValueError, match="non-negative"):
        simulate_socket(
            0, [0], [np.array([1, -2])], machine, sim_engine="batched"
        )
    with pytest.raises(ValueError, match="quantum"):
        simulate_socket(0, [0], [np.array([1, 2])], machine, quantum=0)
