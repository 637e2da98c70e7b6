"""Pipeline benchmark: ``python3 pipebench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

Each workload runs in its own child process (one process, at most two
threads: the fused consumer thread is the second) with BLAS/OpenMP
pinned to one thread. ``--trace 0`` reports the end-to-end metrics of
the untraced pipeline; ``--trace 1`` additionally replays the pipeline
layer by layer in a second child and reports the per-layer metrics.
The last line of stdout is the result object; the full record (per-call
timings, noise diagnostics, provenance and spans) is written to
``.pipebench/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_rows

HERE = Path(__file__).resolve().parent
#: Listed here rather than imported from ``workloads`` so that a bad name
#: or a missing ``src/`` fails before any child starts.
WORKLOADS = ("rect262k-rdr-fused", "carabiner20k-compare", "carabiner10k-scaling")
#: A child that has not finished by then is killed (a benchmark run must
#: end within 180 s).
CHILD_DEADLINE_S = 170.0
#: Per-layer metrics read straight off span self times.
LAYER_TIMES = (
    "mesh.adjacency", "mesh.boundary", "quality.rank", "ordering.apply",
    "smoothing.smooth", "memsim.layout", "memsim.simulate", "memsim.reuse",
    "parallel.traces", "memsim.multicore",
)
RSS_LAYERS = LAYER_TIMES + ("meshgen.generate",)


def fail(message: str) -> int:
    print(f"pipebench: {message}", file=sys.stderr)
    return 2


def read_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's aggregate CPU line."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def host_probe() -> float:
    """Fixed host-speed probe that touches no ``repro`` code: seconds
    for a set amount of interpreter and memory work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    block = bytearray(64 << 20)
    for off in range(0, len(block), 4096):
        block[off] = off & 0xFF
    del block
    return time.perf_counter() - t0


def provenance(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or None
    src_lines = 0
    for path in (root / "src").rglob("*.py"):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "git_sha": sha,
        "cores": os.cpu_count(),
        "src_loc": src_lines,
        "python": sys.version.split()[0],
    }


def run_child(root: Path, args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    workdir = root / ".pipebench" / "work" / f"{args.workload}-{os.getpid()}-{mode}"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", str(workdir),
        "--run-id", f"{args.workload}/seed{args.seed}/{os.getpid()}",
    ]
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} child exceeded the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(timed: dict) -> dict:
    reps = timed["reps"]
    pipeline_s = median([r["wall_s"] for r in reps])
    return {
        "pipeline_s": (pipeline_s, "s"),
        "events_per_s": (timed["events"] / pipeline_s if pipeline_s else 0.0, "1/s"),
        "cpu_s": (median([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (reps[0]["rss_hwm_mb"] if reps else 0.0, "MB"),
        "setup_s": (median(timed["setup_s"]), "s"),
    }


def per_layer(timed: dict, traced: dict) -> tuple[dict, dict]:
    spans = traced["spans"]
    rows = layer_rows(spans)
    counts = traced["counts"]
    untraced_s = end_to_end(timed)["pipeline_s"][0]
    root = next(s for s in spans if s["name"] == "pipeline")

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    # Layer spans on the pipeline thread account for the wall clock;
    # consumer-thread spans overlap the producer and are left out.
    attributed = sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] == root["id"] and s["thread"] == root["thread"]
    )
    setup_spans = [s for s in spans if s["name"] == "meshgen.generate"]
    metrics = {f"{name}_s": (self_s(name), "s") for name in LAYER_TIMES}
    n_order = rows.get("ordering.apply", {}).get("calls", 0) * traced["vertices"]
    metrics.update({
        "mesh.edges": (counts["mesh.edges"], "count"),
        "ordering.vertices_per_s": (rate(n_order, self_s("ordering.apply")), "1/s"),
        "smoothing.events": (counts.get("smoothing.events", 0), "count"),
        "memsim.sim_events_per_s": (
            rate(counts.get("memsim.sim_events", 0), self_s("memsim.simulate")), "1/s"
        ),
        "memsim.sink.producer_wait_s": (counts.get("memsim.sink.producer_wait_s", 0.0), "s"),
        "memsim.sink.consumer_busy_s": (counts.get("memsim.sink.consumer_busy_s", 0.0), "s"),
        "memsim.sink.overlap_s": (counts.get("memsim.sink.overlap_s", 0.0), "s"),
        "memsim.sink.windows": (counts.get("memsim.sink.windows", 0), "count"),
        "memsim.reuse_events_per_s": (
            rate(counts.get("memsim.reuse_events", 0), self_s("memsim.reuse")), "1/s"
        ),
        "memsim.multicore_events_per_s": (
            rate(counts.get("memsim.multicore_events", 0), self_s("memsim.multicore")),
            "1/s",
        ),
        "meshgen.generate_s": (median([s["end"] - s["start"] for s in setup_spans]), "s"),
        "pipeline.unattributed_s": (untraced_s - attributed, "s"),
        "trace.overhead_ratio": (
            rate(root["end"] - root["start"], untraced_s), "ratio"
        ),
    })
    for name in RSS_LAYERS:
        metrics[f"{name}.rss_hwm_mb"] = (rows.get(name, {}).get("rss_rise_mb", 0.0), "MB")
    return metrics, dict(sorted(rows.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_DEADLINE_S
    root = Path.cwd()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("no src/repro package here; run from the repository root")

    info = provenance(root)
    info["host_probe_s"] = host_probe()
    steal0, total0 = read_cpu_ticks()
    try:
        timed = run_child(root, args, "timed", deadline)
        traced = run_child(root, args, "traced", deadline) if args.trace else None
    except RuntimeError as exc:
        return fail(str(exc))
    steal1, total1 = read_cpu_ticks()
    info["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)

    attempted, failed = timed["attempted"], timed["failed"]
    errors = list(timed["errors"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": info,
        "calls": timed["reps"], "setup_s": timed["setup_s"],
        "pinned": timed["pinned"], "vertices": timed["vertices"],
    }
    if traced is None:
        metrics = end_to_end(timed)
    else:
        # The replay must reproduce the untraced counts exactly.
        attempted += 1
        if traced["outcome"] != timed["outcome"]:
            failed += 1
            errors.append("traced replay counts differ from the untraced call")
        metrics, record["layers"] = per_layer(timed, traced)
        record["spans"] = traced["spans"]
    record["errors"] = errors
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    out_dir = root / ".pipebench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    summary = {k: record[k] for k in ("provenance", "pinned", "vertices", "errors")}
    summary["calls"] = len(timed["reps"])
    if traced is not None:
        summary["layers"] = record["layers"]
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
