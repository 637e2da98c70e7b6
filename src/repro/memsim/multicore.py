"""Multicore cache simulation: private L1/L2, shared per-socket L3.

Models the parallel runs of Section 5.3. The parallel smoother
statically partitions the interior vertices into ``p`` contiguous blocks
(the paper's OpenMP static schedule); each core's accesses are recorded
separately and fed to a private L1/L2 pair, while all cores of a socket
share one L3. Cores of one socket run "concurrently": their streams are
interleaved round-robin in small quanta, so they contend for the shared
L3 the way simultaneous threads do.

Thread placement follows an affinity policy:

``compact``
    cores fill socket 0 first (the paper's ``KMP_AFFINITY=compact``);
    aggregate L3 grows only at 8-core boundaries.
``scatter``
    cores round-robin across sockets; aggregate L3 grows with the first
    four threads — the paper invokes exactly this "scattered"
    distribution as the likely cause of its super-linear 1->4 core
    speedups.

The modeled parallel execution time is the critical path: the largest
per-core modeled time (Equation 2 plus base cost), since the smoothing
iterations are bulk-synchronous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import DEFAULT_RUN_CONFIG, RunConfig
from .cache import (
    CacheHierarchy,
    HierarchyStats,
    LevelStats,
    LRUCache,
    observe_hierarchy_stats,
)
from .machine import MachineSpec
from .timing import CostBreakdown, modeled_time

__all__ = [
    "affinity_sockets",
    "CoreResult",
    "MulticoreResult",
    "simulate_multicore",
    "simulate_socket",
]

def affinity_sockets(
    num_cores: int, machine: MachineSpec, policy: str = "compact"
) -> np.ndarray:
    """Socket id for each of ``num_cores`` threads under a placement policy."""
    if num_cores < 1 or num_cores > machine.num_cores:
        raise ValueError(
            f"num_cores must be in 1..{machine.num_cores}, got {num_cores}"
        )
    cores = np.arange(num_cores)
    if policy == "compact":
        return cores // machine.cores_per_socket
    if policy == "scatter":
        return cores % machine.num_sockets
    raise ValueError(f"unknown affinity policy {policy!r}")


@dataclass
class CoreResult:
    """Simulation outcome of one core."""

    core: int
    socket: int
    stats: HierarchyStats
    cost: CostBreakdown


@dataclass
class MulticoreResult:
    """Aggregate outcome of a ``p``-core simulation."""

    machine: MachineSpec
    affinity: str
    per_core: list[CoreResult]

    @property
    def num_cores(self) -> int:
        return len(self.per_core)

    @property
    def combined(self) -> HierarchyStats:
        total = HierarchyStats(LevelStats("L1"), LevelStats("L2"), LevelStats("L3"))
        for cr in self.per_core:
            total = total.merged_with(cr.stats)
        return total

    @property
    def modeled_seconds(self) -> float:
        """Critical-path time: the slowest core bounds the iteration."""
        return max(cr.cost.seconds(self.machine) for cr in self.per_core)

    @property
    def total_accesses(self) -> int:
        return sum(cr.cost.num_accesses for cr in self.per_core)

    def access_counts(self) -> dict[str, int]:
        """L2/L3/memory access counts (Figure 11's three panels)."""
        c = self.combined
        return {
            "L2": c.l2.accesses,
            "L3": c.l3.accesses,
            "memory": c.l3.misses,
        }


def simulate_socket(
    socket_id: int,
    member_cores: list[int],
    streams: list[np.ndarray],
    machine: MachineSpec,
    *,
    quantum: int = 64,
    sim_engine: str = "reference",
    stream_window_events: int | None = None,
) -> list[CoreResult]:
    """Simulate one socket: its cores' streams against one shared L3.

    A socket is a closed system — cores of different sockets share no
    cache state — so sockets replay one after the other. The cores'
    streams interleave round-robin, ``quantum`` events per core per
    round; a core whose stream ends drops out of later rounds.

    ``sim_engine="reference"`` replays the interleave event by event
    through one :class:`CacheHierarchy` per core over a shared
    :class:`LRUCache` L3 — the test oracle. ``sim_engine="batched"``
    replays the same interleave through one exact kernel for any number
    of cores: it drops each core's immediate repeats (L1 hits that
    change no state), rebuilds the round-robin order with one stable
    sort, and runs one inlined LRU loop over the rest. Line ids must be
    non-negative on the batched engine.

    ``stream_window_events`` bounds peak memory: the reference
    materializes one quantum of each stream at a time, and the kernel
    processes whole rounds in chunks of at most that many events (at
    least one round) — so memory-mapped streams are never pulled in
    whole. Counts are bit-identical either way.
    """
    if sim_engine not in ("reference", "batched"):
        raise ValueError(f"unknown sim engine {sim_engine!r}")
    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
    with obs.span(
        "memsim.socket",
        socket=int(socket_id),
        cores=len(member_cores),
        engine=sim_engine,
    ) as sp:
        sp.add_event(int(sum(np.asarray(s).size for s in streams)))
        if sim_engine == "batched":
            stats = _replay_socket(
                streams, machine, quantum, stream_window_events
            )
        else:
            stats = _interleave_reference(
                streams, machine, quantum, stream_window_events
            )
        results = [
            CoreResult(
                core=int(core),
                socket=int(socket_id),
                stats=st,
                cost=modeled_time(st, machine),
            )
            for core, st in zip(member_cores, stats)
        ]
        for cr in results:
            observe_hierarchy_stats(cr.stats)
        return results


def _interleave_reference(
    streams: list[np.ndarray],
    machine: MachineSpec,
    quantum: int,
    stream_window_events: int | None,
) -> list[HierarchyStats]:
    """The per-event round-robin interleave through ``CacheHierarchy``."""
    shared_l3 = LRUCache(machine.l3)
    hierarchies = [CacheHierarchy(machine, shared_l3=shared_l3) for _ in streams]
    if stream_window_events is None:
        line_lists = [
            np.asarray(stream, dtype=np.int64).tolist() for stream in streams
        ]
        sizes = [len(s) for s in line_lists]
    else:
        # Streaming mode: keep the (possibly memory-mapped) arrays and
        # materialize one quantum at a time in the interleave loop.
        line_lists = [np.asarray(stream, dtype=np.int64) for stream in streams]
        sizes = [int(s.size) for s in line_lists]
    cursors = [0] * len(streams)
    live = list(range(len(streams)))
    while live:
        still = []
        for k in live:
            stream = line_lists[k]
            lo = cursors[k]
            hi = min(lo + quantum, sizes[k])
            access = hierarchies[k].access
            chunk = (
                stream[lo:hi]
                if stream_window_events is None
                else stream[lo:hi].tolist()
            )
            for line in chunk:
                access(line)
            cursors[k] = hi
            if hi < sizes[k]:
                still.append(k)
        live = still
    return [h.stats for h in hierarchies]


#: Events converted to Python ints per kernel loop call: plain ints are
#: several times faster than NumPy scalars in the set lists, and slicing
#: bounds the list's footprint.
_KERNEL_CHUNK = 1 << 16


def _replay_socket(
    streams: list[np.ndarray],
    machine: MachineSpec,
    quantum: int,
    stream_window_events: int | None,
) -> list[HierarchyStats]:
    """Exact batched replay of one socket's round-robin interleave.

    A core's event equal to that core's previous event is an L1 hit that
    changes no state (the line is MRU in the core's L1, and only the
    core's own accesses touch its L1/L2), so it is counted and dropped.
    The kept events of ``P`` cores are tagged ``line * P + k`` and put
    in the reference's round-robin order by one stable sort on
    ``(i // quantum) * P + k`` (``i`` the event's index in its core's
    stream). Tagging gives each core private L1/L2 sets in one flat set
    table: ``tag % (P * S)`` is ``P * (line % S) + k``.
    """
    P = len(streams)
    arrays = [np.asarray(s) for s in streams]
    sizes = [int(a.size) for a in arrays]
    l1, l2, l3 = machine.l1, machine.l2, machine.l3
    # Sets start full of -1 placeholders (never a valid tag), so every
    # insert is an insert-then-pop and an empty way needs no length test.
    sets1 = [[-1] * l1.associativity for _ in range(P * l1.num_sets)]
    sets2 = [[-1] * l2.associativity for _ in range(P * l2.num_sets)]
    sets3 = [[-1] * l3.associativity for _ in range(l3.num_sets)]
    miss1, miss2, miss3 = [0] * P, [0] * P, [0] * P
    rounds = -(-max(sizes, default=0) // quantum)
    step = max(rounds, 1)
    if stream_window_events is not None:
        step = max(1, stream_window_events // (P * quantum))
    for r0 in range(0, rounds, step):
        lo, hi = r0 * quantum, (r0 + step) * quantum
        tags, keys = [], []
        for k, arr in enumerate(arrays):
            seg = np.asarray(arr[lo:hi], dtype=np.int64)
            if seg.size == 0:
                continue
            if seg.min() < 0:
                raise ValueError("line ids must be non-negative")
            # Repeats within the chunk; its first event is always kept.
            keep = np.empty(seg.size, dtype=bool)
            keep[0] = True
            np.not_equal(seg[1:], seg[:-1], out=keep[1:])
            idx = np.flatnonzero(keep)
            tag = seg[idx]
            tag *= P
            tag += k
            tags.append(tag)
            if P > 1:
                key = idx // quantum
                key *= P
                key += k
                keys.append(key)
        tagged = np.concatenate(tags)
        if P > 1:
            tagged = tagged[np.argsort(np.concatenate(keys), kind="stable")]
        for c in range(0, tagged.size, _KERNEL_CHUNK):
            _replay_tags(
                tagged[c : c + _KERNEL_CHUNK].tolist(), P,
                sets1, sets2, sets3, miss1, miss2, miss3,
            )
    return [
        HierarchyStats(
            LevelStats("L1", n, n - m1),
            LevelStats("L2", m1, m1 - m2),
            LevelStats("L3", m2, m2 - m3),
        )
        for n, m1, m2, m3 in zip(sizes, miss1, miss2, miss3)
    ]


def _replay_tags(tags, P, sets1, sets2, sets3, miss1, miss2, miss3) -> None:
    """The kernel's LRU loop over tagged events (``CacheHierarchy.access``
    inlined, per-core miss counts accumulated in ``miss1..3``)."""
    M1, M2, S3 = len(sets1), len(sets2), len(sets3)
    for t in tags:
        a = sets1[t % M1]
        # No MRU shortcut at L1: the repeat drop removed those hits.
        if t in a:
            a.remove(t)
            a.insert(0, t)
            continue
        a.insert(0, t)
        a.pop()  # L1 victims stay in L2/L3 under inclusion
        k = t % P
        miss1[k] += 1
        b = sets2[t % M2]
        if b[0] == t:
            continue
        if t in b:
            b.remove(t)
            b.insert(0, t)
            continue
        b.insert(0, t)
        v = b.pop()
        if v >= 0:
            # Inclusive: a line leaving L2 must leave L1.
            a = sets1[v % M1]
            if v in a:
                a.remove(v)
                a.append(-1)
        miss2[k] += 1
        line = t // P
        c = sets3[line % S3]
        if c[0] == line:
            continue
        if line in c:
            c.remove(line)
            c.insert(0, line)
            continue
        c.insert(0, line)
        v = c.pop()
        miss3[k] += 1
        if v >= 0:
            # Back-invalidate the shared-L3 victim from the evicting
            # core only (as CacheHierarchy does with a shared L3).
            v = v * P + k
            b = sets2[v % M2]
            if v in b:
                b.remove(v)
                b.append(-1)
            a = sets1[v % M1]
            if v in a:
                a.remove(v)
                a.append(-1)


def simulate_multicore(
    lines_per_core: list[np.ndarray],
    machine: MachineSpec,
    *,
    config: RunConfig | None = None,
    affinity: str = "compact",
    quantum: int = 64,
) -> MulticoreResult:
    """Simulate per-core line streams on the machine's cache topology.

    Parameters
    ----------
    lines_per_core:
        One line-id stream per thread (from the partitioned smoother).
    config:
        A :class:`repro.config.RunConfig`; ``config.sim_engine`` selects
        the per-socket replay (``"reference"``: the per-event interleave
        oracle; ``"batched"``: the exact socket kernel, for one core or
        many, see :func:`simulate_socket`), and
        ``config.stream_window_events`` bounds the replay's memory.
    affinity:
        ``"compact"`` or ``"scatter"`` (see module docstring).
    quantum:
        Number of consecutive accesses one core executes before the
        round-robin hands the socket to the next core; models the
        fine-grained interleaving of simultaneously running threads.
    """
    config = config or DEFAULT_RUN_CONFIG
    with obs.span(
        "memsim.multicore",
        sim_engine=config.sim_engine,
        affinity=affinity,
        cores=len(lines_per_core),
    ):
        p = len(lines_per_core)
        sockets = affinity_sockets(p, machine, affinity)
        results: list[CoreResult | None] = [None] * p
        for socket_id in np.unique(sockets):
            member_cores = [int(c) for c in np.flatnonzero(sockets == socket_id)]
            for cr in simulate_socket(
                int(socket_id),
                member_cores,
                [lines_per_core[c] for c in member_cores],
                machine,
                quantum=quantum,
                sim_engine=config.sim_engine,
                stream_window_events=config.stream_window_events,
            ):
                results[cr.core] = cr
        return MulticoreResult(
            machine=machine,
            affinity=affinity,
            per_core=[r for r in results if r is not None],
        )
