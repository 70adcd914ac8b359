"""Benchmark the parallel sweep engine; record BENCH_parallel.json.

Runs the paper's 64-node figure sweep (all eight class-C NPB kernels
across the five Figure-11 L3 sizes, 256 ranks in VNM) twice:

* **baseline** — the reference oracle (:func:`repro.reference.run_job`,
  one worker): every node simulated separately, every communication
  phase costed from scratch;
* **engine** — the job engine (``Job.run``: node-equivalence classes +
  the cross-job comm-phase cache), with the 40 sweep points fanned out
  over ``--jobs 4`` workers by :func:`repro.parallel.parallel_map`.

Both legs must produce byte-identical results for every point; the
benchmark records the wall-clock ratio plus the engine's cache
statistics (summed over the workers) into ``BENCH_parallel.json`` at
the repo root.

Run with::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

from repro.compiler import O5
from repro.harness.sweep import PAPER_L3_SIZES_MB, compiled_benchmark
from repro.mem import NodeMemoryConfig
from repro.node import OperatingMode
from repro.npb import BENCHMARK_ORDER
from repro.obs import metrics
from repro.parallel import parallel_map, set_jobs
from repro.reference import run_job as reference_run_job
from repro.runtime.machine import Job, Machine, clear_comm_cache

MB = 1024 * 1024
NODES = 64
RANKS = 256
JOBS = 4


def _machine(l3_mb: int) -> Machine:
    return Machine(NODES, mode=OperatingMode.VNM,
                   mem_config=NodeMemoryConfig().with_l3_size(l3_mb * MB))


def run_point(code: str, l3_mb: int) -> str:
    """Pool target: one sweep point through the job engine."""
    result = Job(_machine(l3_mb), compiled_benchmark(code, O5()),
                 RANKS).run()
    return json.dumps(result.to_dict(), sort_keys=True)


def points():
    return [(code, l3_mb) for code in BENCHMARK_ORDER
            for l3_mb in PAPER_L3_SIZES_MB]


def run_baseline() -> tuple:
    """The whole sweep through the reference oracle, one worker."""
    start = time.perf_counter()
    results = [json.dumps(reference_run_job(
                   _machine(l3_mb), compiled_benchmark(code, O5()),
                   RANKS).to_dict(), sort_keys=True)
               for code, l3_mb in points()]
    return time.perf_counter() - start, results


def counter_value(name: str) -> int:
    return int(metrics.REGISTRY.snapshot()["counters"].get(name, 0))


def main() -> int:
    print(f"sweep: {len(points())} points ({NODES} nodes, {RANKS} ranks, "
          "VNM)")

    set_jobs(1)
    baseline, baseline_r = run_baseline()
    print(f"baseline (reference oracle, 1 worker): {baseline:.2f}s")

    clear_comm_cache()
    before = {name: counter_value(name) for name in (
        "runtime.node_classes", "runtime.node_class_hits",
        "runtime.comm_cache_hits", "runtime.comm_cache_misses")}
    start = time.perf_counter()
    engine_r = parallel_map(run_point, points(), jobs=JOBS,
                            label="bench_points")
    engine = time.perf_counter() - start
    stats = {name.split(".", 1)[1]: counter_value(name) - start_value
             for name, start_value in before.items()}
    speedup = baseline / engine if engine else 0.0
    print(f"engine (job engine, {JOBS} workers): {engine:.2f}s "
          f"-> {speedup:.2f}x")
    identical = engine_r == baseline_r
    print(f"all points byte-identical across legs: {identical}")
    if not identical:
        print("FAIL: engines disagree", file=sys.stderr)
        return 1

    record = benchlib.make_record(
        benchmark="64-node figure sweep "
                  "(8 NPB kernels x 5 L3 sizes, 256 ranks, VNM), "
                  f"points over {JOBS} workers",
        legs={"baseline": baseline, "engine": engine},
        headline=("baseline", "engine"),
        identical=identical,
        details={
            "nodes": NODES,
            "ranks": RANKS,
            "sweep_points": len(points()),
            "jobs": JOBS,
            "engine_stats": stats,
        })
    benchlib.write_record(record, os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        "BENCH_parallel.json"))
    return 0 if benchlib.check_gate(record, 2.0) else 1


if __name__ == "__main__":
    raise SystemExit(main())
