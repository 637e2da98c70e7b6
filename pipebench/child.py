"""One workload in its own process; launched by ``run.py``.

``--mode timed`` sets the workload up several times, then repeats the
untraced pipeline call on fresh meshes until ``--seconds`` of pipeline
time have passed (and at least twice), checking every call's counts. ``--mode traced``
replays the pipeline once, layer by layer, under the benchmark's span
recorder. Either way the process prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, rss_hwm_mb
from workloads import (
    FAST,
    WORKLOADS,
    check_outcome,
    events_per_iteration,
    fresh_mesh,
    outcome_events,
)

PINS = Path(__file__).with_name("pins.json")
#: The seed the pinned counts were recorded at.
DEFAULT_SEED = 0
#: Calls per run at least, whatever ``--seconds`` says, so that a slow
#: host does not cut a run's median down to a single call.
MIN_CALLS = 2


def warm_up(workload, workdir: Path) -> None:
    """Run the reduced instance once so lazy imports and first-call
    set-up are not charged to the first timed call or layer."""
    vertices, triangles = workload.reduced(DEFAULT_SEED, workdir)
    workload.summarise(
        workload.call(fresh_mesh(workload, vertices, triangles), FAST)
    )


def set_up(workload, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Generate the input ``setup_repeats`` times; returns the first
    mesh's arrays and the time of each set-up."""
    times, first = [], None
    for i in range(workload.setup_repeats):
        target = workdir / f"setup-{i}"
        target.mkdir()
        t0 = time.perf_counter()
        if tracer is None:
            arrays = workload.generate(seed, target)
        else:
            with tracer.span("meshgen.generate"):
                arrays = workload.generate(seed, target)
        times.append(time.perf_counter() - t0)
        if first is None:
            first = arrays
        elif not all(np.array_equal(a, b) for a, b in zip(first, arrays)):
            raise RuntimeError("mesh generation is not deterministic")
    return first, times


def pinned(workload_name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not PINS.is_file():
        return None
    return json.loads(PINS.read_text()).get(workload_name)


def timed(workload, seed: int, seconds: float, workdir: Path) -> dict:
    warm_up(workload, workdir / "warm")
    (vertices, triangles), setup_times = set_up(workload, seed, workdir)
    per_iteration = events_per_iteration(vertices, triangles)
    pins = pinned(workload.name, seed)
    reps, errors, outcome = [], [], None
    attempted = failed = 0
    elapsed = 0.0
    while elapsed < seconds or attempted < MIN_CALLS:
        mesh = fresh_mesh(workload, vertices, triangles)
        gc.collect()
        attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = workload.call(mesh, FAST)
        except Exception:  # a failed call is a failed operation
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            elapsed += time.perf_counter() - t0
            continue
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rss = rss_hwm_mb()
        elapsed += wall
        got = workload.summarise(raw)
        problems = check_outcome(got, workload.iterations, per_iteration)
        if pins is not None and got != pins:
            problems.append("counts differ from the pinned values")
        if outcome is not None and got != outcome:
            problems.append("counts differ between repeats")
        if problems:
            failed += 1
            errors.extend(problems)
        outcome = outcome or got
        reps.append({"wall_s": wall, "cpu_s": cpu, "rss_hwm_mb": rss})
        del raw, mesh
    return {
        "vertices": len(vertices),
        "setup_s": setup_times,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "pinned": pins is not None,
        "events": outcome_events(outcome) if outcome else 0,
        "outcome": outcome,
    }


def traced(workload, seed: int, workdir: Path, run_id: str) -> dict:
    warm_up(workload, workdir / "warm")
    tracer = Tracer(run_id)
    with tracer.span("setup"):
        (vertices, triangles), _ = set_up(workload, seed, workdir, tracer)
    mesh = fresh_mesh(workload, vertices, triangles)
    gc.collect()
    with tracer.span("pipeline"):
        outcome, counts = workload.replay(mesh, tracer)
    counts["mesh.edges"] = int(mesh.adjacency.xadj[-1]) // 2
    return {
        "vertices": len(vertices),
        "outcome": outcome,
        "counts": counts,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True)
    try:
        if args.mode == "timed":
            result = timed(workload, args.seed, args.seconds, args.workdir)
        else:
            result = traced(workload, args.seed, args.workdir, args.run_id)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
