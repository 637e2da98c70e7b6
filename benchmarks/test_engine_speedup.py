"""Engine speedup: vectorized smoothing against the reference loop.

Acceptance benchmark for the fast-engine work: on a 50k-vertex
unit-square mesh, ``engine="vectorized"`` must run the same
Gauss-Seidel storage sweep at least 5x faster than the reference
per-vertex loop (and the coordinates must agree to ``rtol=1e-12``).
With trace recording on — the configuration the full pipeline actually
runs — the gap widens to tens of x, because the reference engine
appends ``4 + 2*deg`` trace events per vertex in interpreted Python
while the vectorized engine builds each iteration's event block with
a handful of array ops.
"""

import time

import numpy as np
from conftest import run_once

from repro import RunConfig
from repro.bench import format_table, save_json
from repro.meshgen import perturb_interior, structured_rectangle
from repro.smoothing import laplacian_smooth

ITERATIONS = 10


def _bench_mesh():
    mesh = structured_rectangle(224, 224, name="unit-square-50k")
    return perturb_interior(mesh, amplitude=0.2 / 224, seed=0)


def _time_engines(record_trace: bool) -> dict:
    mesh = _bench_mesh()
    times, results = {}, {}
    for engine in ("reference", "vectorized"):
        t0 = time.perf_counter()
        results[engine] = laplacian_smooth(
            mesh,
            traversal="storage",
            max_iterations=ITERATIONS,
            tol=-np.inf,
            record_trace=record_trace,
            config=RunConfig(engine=engine),
        )
        times[engine] = time.perf_counter() - t0
    assert np.allclose(
        results["reference"].mesh.vertices,
        results["vectorized"].mesh.vertices,
        rtol=1e-12,
        atol=0.0,
    )
    if record_trace:
        ref, vec = results["reference"].trace, results["vectorized"].trace
        assert np.array_equal(ref.array_ids, vec.array_ids)
        assert np.array_equal(ref.indices, vec.indices)
        assert np.array_equal(ref.is_write, vec.is_write)
    return {
        "mesh": mesh.name,
        "num_vertices": mesh.num_vertices,
        "iterations": ITERATIONS,
        "record_trace": record_trace,
        "reference_s": times["reference"],
        "vectorized_s": times["vectorized"],
        "speedup": times["reference"] / times["vectorized"],
    }


def _smoothing_rows() -> list[dict]:
    return [_time_engines(False), _time_engines(True)]


def test_vectorized_engine_speedup(benchmark):
    rows = run_once(benchmark, _smoothing_rows)
    print()
    print(
        format_table(
            rows, title="Vectorized engine vs reference (50k unit square)"
        )
    )
    save_json("engine_speedup", rows)
    # The acceptance bar: >=5x on the plain (untraced) sweep; the traced
    # configuration is gated loosely since it is far past the bar.
    assert rows[0]["speedup"] >= 5.0
    assert rows[1]["speedup"] >= 10.0
