"""The benchmark's three workloads, their pipeline calls, traced replays
and correctness checks.

Each workload puts most of its time in a different layer:

* ``rect262k-rdr-fused`` — topology, ordering and smoothing of a 512x512
  perturbed rectangle through the fused summary path.
* ``carabiner20k-compare`` — reuse analysis and the materialized serial
  simulation of ori/bfs/rdr on a Delaunay mesh (the Table 2 population).
* ``carabiner10k-scaling`` — per-core traces and the multicore replay
  of ori/bfs/rdr at 1, 2, 8 and 32 cores (Figures 10-13).

Every workload runs the fast engines with observability off. The
program only ever receives the generated mesh; the workload seed feeds
mesh generation alone.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    MemoryLayout,
    LaplacianSmoother,
    TriMesh,
    apply_ordering,
    compare_orderings,
    generate_domain_mesh,
    run_ordering,
    run_parallel_ordering,
    vertex_quality,
)
from repro.config import RunConfig
from repro.core.pipeline import default_machine_for
from repro.memsim import (
    DEFAULT_FUSED_WINDOW_EVENTS,
    FusedAnalysis,
    FusedSink,
    modeled_time,
    profile_from_distances,
    reuse_distances,
    simulate_multicore,
    simulate_trace,
)
from repro.meshgen import load_chunked_mesh, write_structured_rectangle
from repro.ordering.batched import release_plan_caches
from repro.parallel import parallel_traces
from repro.quality import DEFAULT_RANK_PASSES, patch_quality
from repro.smoothing.trace import traversal_events

from spans import Tracer

#: The fast engines every timed call runs (``config.obs`` stays off:
#: enabling it adds a full reuse-distance pass).
FAST = RunConfig(
    engine="vectorized",
    sim_engine="batched",
    order_engine="batched",
    backend="numpy",
    mem_engine="sequential",
)
#: The reference engines the reduced-size cross-check compares against.
REFERENCE = RunConfig(
    engine="reference",
    sim_engine="reference",
    order_engine="reference",
    backend="numpy",
    mem_engine="sequential",
)

ORDERINGS = ("ori", "bfs", "rdr")
CORES = (1, 2, 8, 32)


# -- outcomes --------------------------------------------------------------
def is_permutation(order: np.ndarray) -> bool:
    return np.array_equal(np.sort(order), np.arange(order.size))


def serial_outcome(order, cache, cost, profile=None) -> dict:
    """Counts of one serial run, in a JSON-exact form."""
    out = {
        "order_crc32": zlib.crc32(
            np.ascontiguousarray(order, dtype=np.int64).tobytes()
        ),
        "permutation": is_permutation(order),
        "levels": [[lv.accesses, lv.hits] for lv in cache.levels()],
        "memory_accesses": int(cache.memory_accesses),
        "cycles": float(cost.total_cycles),
        "events": int(cost.num_accesses),
    }
    if profile is not None:
        out["reuse"] = [
            profile.num_accesses, profile.num_cold, float(profile.mean),
            profile.q50, profile.q75, profile.q90, profile.q100,
        ]
    return out


def multicore_outcome(result) -> dict:
    combined = result.combined
    return {
        "levels": [[lv.accesses, lv.hits] for lv in combined.levels()],
        "memory_accesses": int(combined.memory_accesses),
        "core_cycles": [float(cr.cost.total_cycles) for cr in result.per_core],
        "events": int(result.total_accesses),
    }


def outcome_events(outcome: dict) -> int:
    return sum(run["events"] for run in outcome.values())


def check_outcome(
    outcome: dict, iterations: int, events_per_iteration: int
) -> list[str]:
    """Seed-independent invariants of one pipeline call's counts."""
    errors = []
    for key, run in outcome.items():
        (a1, h1), (a2, h2), (a3, h3) = run["levels"]
        if a1 != iterations * events_per_iteration:
            errors.append(
                f"{key}: L1 accesses {a1} != {iterations} x "
                f"{events_per_iteration} traversal events"
            )
        if run["events"] != a1:
            errors.append(f"{key}: events {run['events']} != L1 accesses {a1}")
        for name, (acc, hits) in zip(("L1", "L2", "L3"), run["levels"]):
            if not 0 <= hits <= acc:
                errors.append(f"{key}: {name} hits {hits} outside [0, {acc}]")
        # Inclusive cascade: hits + misses == accesses at every level,
        # and each level's misses are the next level's accesses.
        if a2 != a1 - h1 or a3 != a2 - h2:
            errors.append(f"{key}: level cascade broken {run['levels']}")
        if run["memory_accesses"] != a3 - h3:
            errors.append(f"{key}: memory accesses != L3 misses")
        if not run.get("permutation", True):
            errors.append(f"{key}: order is not a permutation")
    return errors


# -- workloads -------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds the input mesh ``(vertices, triangles)`` from the seed.
    generate: Callable[[int, Path], tuple[np.ndarray, np.ndarray]]
    #: Number of set-ups per run; ``setup_s`` reports their median.
    setup_repeats: int
    #: The timed pipeline call: a fresh mesh in, raw results out.
    call: Callable[[TriMesh, RunConfig], dict]
    #: Raw results -> JSON-exact counts per run.
    summarise: Callable[[dict], dict]
    #: Layer-by-layer replay of ``call`` under a tracer.
    replay: Callable[[TriMesh, Tracer], tuple[dict, dict]]
    iterations: int
    #: A smaller instance of the same workload for the reference check.
    reduced: Callable[[int, Path], tuple[np.ndarray, np.ndarray]]


def _rect(rows: int, cols: int):
    def generate(seed: int, workdir: Path):
        path = write_structured_rectangle(
            workdir, rows, cols, name=f"rect-{seed}",
            perturb_amplitude=0.25, seed=seed,
        )
        mesh = load_chunked_mesh(path, mmap=True)
        return mesh.vertices, mesh.triangles

    return generate


def _carabiner(target_vertices: int):
    def generate(seed: int, workdir: Path):
        mesh = generate_domain_mesh(
            "carabiner", target_vertices=target_vertices, seed=seed
        )
        return mesh.vertices, mesh.triangles

    return generate


def _rank(tracer: Tracer, mesh: TriMesh, base: np.ndarray) -> np.ndarray:
    with tracer.span("quality.rank"):
        return patch_quality(mesh, passes=DEFAULT_RANK_PASSES, base=base)


def _topology(tracer: Tracer, mesh: TriMesh) -> None:
    # Before default_machine_for, which would otherwise build the
    # adjacency outside every layer span.
    with tracer.span("mesh.adjacency"):
        mesh.adjacency
    with tracer.span("mesh.boundary"):
        mesh.boundary_mask


def _order(tracer, mesh, name, rank_q):
    with tracer.span("ordering.apply", ordering=name):
        return apply_ordering(
            mesh, name, seed=FAST.seed, qualities=rank_q,
            order_engine=FAST.order_engine, backend=FAST.backend,
        )


def _machine(tracer, mesh, profile):
    with tracer.span("memsim.machine"):
        return default_machine_for(mesh, profile=profile)


# rect262k-rdr-fused ------------------------------------------------------
def _fused_call(mesh, config):
    run = run_ordering(
        mesh, "rdr", config=config, fixed_iterations=1, summary_only=True
    )
    return {"rdr": (run, None)}


def _serial_summary(raw):
    return {
        name: serial_outcome(run.order, run.cache, run.cost, profile)
        for name, (run, profile) in raw.items()
    }


class _TracedConsumer:
    """``FusedAnalysis.consume_window`` split into its layout and cache
    simulation calls, each under a span on the consumer thread."""

    def __init__(self, analysis: FusedAnalysis, tracer: Tracer) -> None:
        if analysis.reuse is not None:
            raise ValueError("the traced consumer replays summary runs only")
        self.analysis = analysis
        self.tracer = tracer
        self.parent: int | None = None

    def begin_iteration(self) -> None:
        self.analysis.begin_iteration()

    def consume_window(self, array_ids, indices, is_write) -> None:
        with self.tracer.span("memsim.layout", parent=self.parent):
            lines = self.analysis.layout.lines_of(array_ids, indices)
        with self.tracer.span("memsim.simulate", parent=self.parent):
            self.analysis.hierarchy.consume(lines)


def _fused_replay(mesh, tracer):
    config = FAST.replace(trace_mode="fused")
    _topology(tracer, mesh)
    machine = _machine(tracer, mesh, "serial")
    with tracer.span("quality.rank"):
        qualities = vertex_quality(mesh)
    rank_q = _rank(tracer, mesh, qualities)
    permuted, order = _order(tracer, mesh, "rdr", rank_q)
    release_plan_caches(mesh.adjacency)
    layout = MemoryLayout.for_mesh(permuted, line_size=machine.line_size)
    analysis = FusedAnalysis(
        layout, machine, sim_engine=config.sim_engine,
        reuse=False, per_iteration_profiles=False,
    )
    consumer = _TracedConsumer(analysis, tracer)
    sink = FusedSink(consumer, window_events=DEFAULT_FUSED_WINDOW_EVENTS)
    smoother = LaplacianSmoother(
        config=config, traversal="greedy", max_iterations=1, tol=-np.inf,
        rank_passes=DEFAULT_RANK_PASSES, trace_sink=sink,
    )
    with tracer.span("smoothing.smooth") as sid:
        consumer.parent = sid
        smoother.smooth(permuted)
        sink.close()
    with tracer.span("memsim.model"):
        cost = modeled_time(analysis.stats, machine)
    counts = {
        "smoothing.events": sink.events,
        "memsim.sim_events": analysis.stats.l1.accesses,
        "memsim.sink.producer_wait_s": sink.producer_wait_s,
        "memsim.sink.consumer_busy_s": sink.consumer_busy_s,
        "memsim.sink.overlap_s": sink.overlap_s,
        "memsim.sink.windows": sink.windows_emitted,
    }
    return {"rdr": serial_outcome(order, analysis.stats, cost)}, counts


# carabiner20k-compare -----------------------------------------------------
def _compare_call(mesh, config):
    runs = compare_orderings(
        mesh, list(ORDERINGS), config=config, fixed_iterations=3
    )
    return {
        name: (run, run.reuse_profile(iteration=0))
        for name, run in runs.items()
    }


def _compare_replay(mesh, tracer):
    _topology(tracer, mesh)
    with tracer.span("quality.rank"):
        qualities = vertex_quality(mesh)
    outcome, kept = {}, []
    smoothing_events = reuse_events = 0
    for name in ORDERINGS:
        machine = _machine(tracer, mesh, "serial")
        rank_q = _rank(tracer, mesh, qualities)
        permuted, order = _order(tracer, mesh, name, rank_q)
        layout = MemoryLayout.for_mesh(permuted, line_size=machine.line_size)
        smoother = LaplacianSmoother(
            config=FAST, traversal="greedy", max_iterations=3, tol=-np.inf,
            rank_passes=DEFAULT_RANK_PASSES, record_trace=True,
        )
        with tracer.span("smoothing.smooth", ordering=name):
            trace = smoother.smooth(permuted).trace
        smoothing_events += len(trace)
        with tracer.span("memsim.layout", ordering=name):
            lines = layout.lines(trace)
        with tracer.span("memsim.simulate", ordering=name):
            cache = simulate_trace(lines, machine, config=FAST)
        with tracer.span("memsim.model", ordering=name):
            cost = modeled_time(cache, machine)
        # compare_orderings keeps every run's mesh, trace and lines.
        kept.append((permuted, trace, lines))
        # OrderedRun.reuse_profile(iteration=0)
        with tracer.span("memsim.layout", ordering=name):
            first = layout.lines(trace.iteration(0))
        with tracer.span("memsim.reuse", ordering=name):
            profile = profile_from_distances(reuse_distances(first))
        reuse_events += first.size
        outcome[name] = serial_outcome(order, cache, cost, profile)
    counts = {
        "smoothing.events": smoothing_events,
        "memsim.sim_events": outcome_events(outcome),
        "memsim.reuse_events": reuse_events,
    }
    return outcome, counts


# carabiner10k-scaling -----------------------------------------------------
def _scaling_call(mesh, config):
    return {
        f"{name}/p{p}": run_parallel_ordering(
            mesh, name, p, config=config, iterations=3
        )
        for name in ORDERINGS
        for p in CORES
    }


def _scaling_summary(raw):
    return {key: multicore_outcome(run.result) for key, run in raw.items()}


def _scaling_replay(mesh, tracer):
    _topology(tracer, mesh)
    outcome = {}
    for name in ORDERINGS:
        for p in CORES:
            machine = _machine(tracer, mesh, "scaling")
            with tracer.span("quality.rank"):
                qualities = vertex_quality(mesh)
            rank_q = _rank(tracer, mesh, qualities)
            permuted, order = _order(tracer, mesh, name, rank_q)
            layout = MemoryLayout.for_mesh(
                permuted, line_size=machine.line_size
            )
            with tracer.span("parallel.traces", ordering=name, cores=p):
                traces = parallel_traces(
                    permuted, p, iterations=3, traversal="greedy",
                    qualities=rank_q[order], ordering=name,
                )
            with tracer.span("memsim.layout", ordering=name, cores=p):
                lines = [layout.lines(t) for t in traces]
            del traces
            with tracer.span("memsim.multicore", ordering=name, cores=p):
                result = simulate_multicore(
                    lines, machine, config=FAST, affinity="scatter"
                )
            outcome[f"{name}/p{p}"] = multicore_outcome(result)
    counts = {"memsim.multicore_events": outcome_events(outcome)}
    return outcome, counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rect262k-rdr-fused",
            generate=_rect(512, 512),
            setup_repeats=7,
            call=_fused_call,
            summarise=_serial_summary,
            replay=_fused_replay,
            iterations=1,
            reduced=_rect(40, 40),
        ),
        Workload(
            name="carabiner20k-compare",
            generate=_carabiner(20000),
            setup_repeats=3,
            call=_compare_call,
            summarise=_serial_summary,
            replay=_compare_replay,
            iterations=3,
            reduced=_carabiner(1500),
        ),
        Workload(
            name="carabiner10k-scaling",
            generate=_carabiner(10000),
            setup_repeats=3,
            call=_scaling_call,
            summarise=_scaling_summary,
            replay=_scaling_replay,
            iterations=3,
            reduced=_carabiner(800),
        ),
    )
}


def fresh_mesh(workload: Workload, vertices, triangles) -> TriMesh:
    """A new ``TriMesh``, so no topology or ordering plan cached by an
    earlier call is reused."""
    return TriMesh(vertices, triangles, name=workload.name)


def events_per_iteration(vertices, triangles) -> int:
    """Trace events of one sweep over every interior vertex."""
    mesh = TriMesh(vertices, triangles)
    return traversal_events(mesh.adjacency.xadj, mesh.interior_vertices())
