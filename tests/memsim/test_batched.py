"""Engine-equality suite: batched simulator vs the reference replay.

The batched engine's contract is *exactness*: identical per-level
access/hit counts (and identical served-level attribution) on every
stream, machine geometry, policy and topology the reference simulator
accepts. The property tests below drive randomized streams through
both engines; the golden test re-derives the pinned fixture statistics
through the batched path; the ``slow``-marked sweep widens the
differential search to many machine geometries and stream shapes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.memsim import (
    SIM_ENGINES,
    batched_levels,
    simulate_multicore,
    simulate_trace,
    simulate_trace_batched,
    westmere_ex,
)
from repro.memsim.cache import CacheHierarchy
from repro.memsim.machine import CacheSpec, MachineSpec

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
sys.path.insert(0, str(FIXTURES))

from generate_golden import FIXTURE_DIR, golden_configs  # noqa: E402


def toy_machine(s1, w1, s2, w2, s3, w3, *, cores_per_socket=1, num_sockets=1):
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
        num_sockets=num_sockets,
    )


#: Small geometries chosen so back-invalidations actually fire (outer
#: levels barely larger than inner ones) alongside regular shapes.
GEOMETRIES = [
    (1, 2, 1, 4, 2, 4),
    (1, 1, 1, 2, 1, 3),
    (2, 2, 4, 2, 8, 4),
    (1, 4, 2, 4, 4, 8),
    (3, 2, 5, 2, 7, 3),
    (1, 2, 2, 2, 2, 3),
    (2, 1, 2, 2, 4, 2),
    (1, 3, 1, 3, 1, 4),
]

BATCHED = RunConfig(sim_engine="batched")


def reference_levels(lines, machine, **kwargs):
    hierarchy = CacheHierarchy(machine, **kwargs)
    served = np.empty(len(lines), dtype=np.int8)
    for t, line in enumerate(np.asarray(lines).tolist()):
        served[t] = hierarchy.access(line)
    return hierarchy.stats, served


def assert_stats_equal(ref, got):
    for a, b in zip(ref.levels(), got.levels()):
        assert (a.accesses, a.hits) == (b.accesses, b.hits), (
            f"{a.name}: reference=({a.accesses},{a.hits}) "
            f"batched=({b.accesses},{b.hits})"
        )


streams = st.lists(st.integers(min_value=0, max_value=25), max_size=300)


class TestBatchedMatchesReference:
    @given(
        lines=streams,
        geometry=st.sampled_from(GEOMETRIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_counts_and_levels(self, lines, geometry):
        machine = toy_machine(*geometry)
        arr = np.asarray(lines, dtype=np.int64)
        ref_stats, ref_served = reference_levels(arr, machine)
        got_stats, got_served = batched_levels(arr, machine)
        assert_stats_equal(ref_stats, got_stats)
        assert np.array_equal(ref_served, got_served)

    @given(
        lines=streams,
        geometry=st.sampled_from(GEOMETRIES),
        policy=st.sampled_from(["lru", "fifo", "random"]),
        prefetch=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_policies_and_prefetch(self, lines, geometry, policy, prefetch):
        # fifo/random/prefetch fall back to the reference internally;
        # the exactness contract holds regardless of the route taken.
        machine = toy_machine(*geometry)
        arr = np.asarray(lines, dtype=np.int64)
        ref = simulate_trace(
            arr, machine, next_line_prefetch=prefetch, policy=policy
        )
        got = simulate_trace_batched(
            arr, machine, next_line_prefetch=prefetch, policy=policy
        )
        assert_stats_equal(ref, got)

    @given(
        per_core=st.lists(streams, min_size=1, max_size=4),
        geometry=st.sampled_from(GEOMETRIES),
        affinity=st.sampled_from(["compact", "scatter"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_shared_l3_multicore(self, per_core, geometry, affinity):
        # compact packs cores onto shared-L3 sockets, scatter produces
        # single-core sockets; the socket kernel replays both and must
        # match the reference interleave exactly.
        machine = toy_machine(*geometry, cores_per_socket=2, num_sockets=2)
        arrs = [np.asarray(s, dtype=np.int64) for s in per_core]
        ref = simulate_multicore(arrs, machine, affinity=affinity)
        got = simulate_multicore(
            arrs, machine, affinity=affinity, config=BATCHED
        )
        assert len(ref.per_core) == len(got.per_core)
        for cr_ref, cr_got in zip(ref.per_core, got.per_core):
            assert (cr_ref.core, cr_ref.socket) == (cr_got.core, cr_got.socket)
            assert_stats_equal(cr_ref.stats, cr_got.stats)
        assert ref.access_counts() == got.access_counts()


class TestBatchedGolden:
    """The pinned golden traces, re-simulated through the batched engine."""

    @pytest.fixture(scope="class")
    def golden_stats(self) -> dict:
        return json.loads((FIXTURE_DIR / "golden_stats.json").read_text())

    @pytest.mark.parametrize("name", sorted(golden_configs()))
    def test_matches_pinned_levels(self, name, golden_stats):
        config = golden_configs()[name]
        machine = westmere_ex(scale=config["machine_scale"])
        with np.load(FIXTURE_DIR / f"{name}.npz") as fixture:
            lines = fixture["lines"]
        stats = simulate_trace(lines, machine, config=BATCHED)
        want = golden_stats[name]["levels"]
        for level in stats.levels():
            assert level.accesses == want[level.name]["accesses"]
            assert level.hits == want[level.name]["hits"]


class TestEngineSelection:
    def test_sim_engines_registry(self):
        assert SIM_ENGINES == ("reference", "batched")

    def test_unknown_engine_rejected(self):
        machine = toy_machine(*GEOMETRIES[0])
        with pytest.raises(ValueError, match="sim engine"):
            simulate_trace(
                np.arange(4), machine, config=RunConfig(sim_engine="nope")
            )

    def test_empty_stream(self):
        machine = toy_machine(*GEOMETRIES[0])
        stats, served = batched_levels(np.empty(0, dtype=np.int64), machine)
        assert [lv.accesses for lv in stats.levels()] == [0, 0, 0]
        assert served.size == 0


@pytest.mark.slow
def test_differential_sweep():
    """Wide randomized differential: many geometries x stream shapes."""
    rng = np.random.default_rng(987)
    for trial in range(240):
        geometry = GEOMETRIES[trial % len(GEOMETRIES)]
        machine = toy_machine(*geometry)
        n = int(rng.integers(1, 500))
        nlines = int(rng.integers(1, 40))
        kind = trial % 3
        if kind == 0:
            lines = rng.integers(0, nlines, size=n)
        elif kind == 1:  # looping pattern
            base = rng.integers(0, nlines, size=min(n, 24))
            lines = np.tile(base, n // max(1, base.size) + 1)[:n]
        else:  # strided
            lines = (np.arange(n) * int(rng.integers(1, 5))) % max(1, nlines)
        lines = lines.astype(np.int64)
        ref_stats, ref_served = reference_levels(lines, machine)
        got_stats, got_served = batched_levels(lines, machine)
        assert_stats_equal(ref_stats, got_stats)
        assert np.array_equal(ref_served, got_served), f"trial {trial}"


def test_cold_composite_is_int64_when_set_times_n_overflows_int32():
    # The (set, position) composite multiplies an int32 set id by the
    # stream length; at 262k vertices L2 reaches 6,442 sets x 753,883
    # events, past 2**31. A small stream over a huge set count reaches
    # the same product.
    from repro.memsim.batched import _LevelStream

    num_sets = 1 << 20
    n = 4096
    lines = np.arange(num_sets - n, num_sets, dtype=np.int64)
    stream = _LevelStream(lines, num_sets, 2)
    assert int(stream.sets.max()) * n >= 2**31
    pos = np.arange(n, dtype=np.int64)
    want = np.sort(stream.sets.astype(np.int64) * n + pos)
    got = stream.cold_comp
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
