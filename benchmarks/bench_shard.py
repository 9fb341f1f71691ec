#!/usr/bin/env python
"""Shard-executor benchmark: process scaling and kill-recovery overhead.

The supervised multiprocess executor exists for two reasons: true
multicore scaling (worker processes sidestep the GIL entirely, where
thread teams only overlap inside GIL-releasing kernels) and crash
survival.  This bench quantifies both on a dense-dominated workload —
the paper's best case for parallel tile products:

* **Scaling** — one multiplication through ``execution="processes"`` at
  1, 2 and 4 workers; the speedup of N workers over the 1-worker run is
  the scaling figure.
* **Kill overhead** — the 2-worker run repeated with an injected
  ``WORKER_CRASH`` (the pair SIGKILLs its host on first dispatch); the
  wall-clock ratio over the clean 2-worker run prices one worker death,
  detection and reassignment included.

Results land in ``BENCH_shard.json``.  The ``--min-speedup`` gate
(default 1.5 at 4 workers) is **host-aware**: process scaling is
physically impossible on fewer cores than workers, so on such hosts the
gate records ``"skipped (host has N cores, need 4)"`` with ``"passed":
null`` (no evidence either way) and exits 0 — CI runs the real gate on
multicore runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py [--output PATH]
        [--min-speedup X] [--smoke]

Standalone on purpose, like bench_engine.py: a pass/fail gate cheap
enough for CI rather than a pytest-benchmark table generator.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemConfig,
    SystemTopology,
    build_at_matrix,
)
from repro.bench import host_record
from repro.core.parallel import parallel_atmult
from repro.resilience import FaultPlan, inject_faults

#: Dense-dominated operand: every tile above the read threshold, so the
#: pair work is BLAS gemm — the workload process sharding targets.
FULL_SIZE = 1024
FULL_CONFIG = SystemConfig(llc_bytes=384 * 1024, b_atomic=128)
SMOKE_SIZE = 256
SMOKE_CONFIG = SystemConfig(llc_bytes=24 * 1024, b_atomic=32)
WORKER_COUNTS = (1, 2, 4)


def build_operand(size: int, config: SystemConfig):
    rng = np.random.default_rng(42)
    array = rng.uniform(0.1, 1.0, size=(size, size))
    return build_at_matrix(COOMatrix.from_dense(array), config)


def run_processes(
    at, config: SystemConfig, workers: int, fault_plan: FaultPlan | None = None
) -> tuple[float, object]:
    topology = SystemTopology(sockets=workers, cores_per_socket=1)
    options = MultiplyOptions(
        config=config,
        execution="processes",
        workers=workers,
        heartbeat_interval_seconds=0.1,
    )
    start = time.perf_counter()
    if fault_plan is not None:
        with inject_faults(fault_plan):
            result, report = parallel_atmult(
                at, at, topology=topology, options=options
            )
    else:
        result, report = parallel_atmult(
            at, at, topology=topology, options=options
        )
    return time.perf_counter() - start, (result, report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_shard.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when the 4-worker speedup falls below this (default 1.5)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small operand for CI smoke runs (gate still host-aware)",
    )
    args = parser.parse_args(argv)

    size = SMOKE_SIZE if args.smoke else FULL_SIZE
    config = SMOKE_CONFIG if args.smoke else FULL_CONFIG
    at = build_operand(size, config)
    host = host_record()
    host_cores = host["cpu_cores"]
    max_workers = max(WORKER_COUNTS)

    # Warm-up (imports, allocator, fork machinery).
    run_processes(at, config, 1)

    seconds: dict[str, float] = {}
    reference = None
    pairs = 0
    for workers in WORKER_COUNTS:
        elapsed, (result, report) = run_processes(at, config, workers)
        seconds[str(workers)] = elapsed
        pairs = report.pairs
        dense = result.to_dense()
        if reference is None:
            reference = dense
        elif not np.array_equal(dense, reference):
            raise AssertionError(
                f"{workers}-worker result is not bit-identical to 1-worker"
            )

    speedups = {
        str(workers): seconds["1"] / seconds[str(workers)]
        for workers in WORKER_COUNTS
    }

    # Kill-one-worker overhead: the (0, 0) pair murders its first host.
    crash = FaultPlan(0, worker_crash_pairs=((0, 0),), worker_crash_attempts=1)
    kill_elapsed, (kill_result, kill_report) = run_processes(
        at, config, 2, fault_plan=crash
    )
    assert np.array_equal(kill_result.to_dense(), reference)
    assert kill_report.failure.worker_deaths >= 1
    kill_overhead = kill_elapsed / seconds["2"]

    passed: bool | None = None
    if host_cores >= max_workers:
        gate_status = "applied"
        passed = speedups[str(max_workers)] >= args.min_speedup
    else:
        gate_status = f"skipped (host has {host_cores} cores, need {max_workers})"

    report_payload = {
        "workload": {
            "matrix": f"dense uniform {size}x{size}",
            "n": size,
            "pairs": pairs,
            "kernels": "dense-dominated (gemm)",
            "smoke": args.smoke,
        },
        "config": {
            "llc_bytes": config.llc_bytes,
            "b_atomic": config.b_atomic,
        },
        "host": host,
        "seconds": seconds,
        "speedups": speedups,
        "kill_one_worker": {
            "seconds": kill_elapsed,
            "overhead_vs_clean_2_workers": kill_overhead,
            "worker_deaths": kill_report.failure.worker_deaths,
            "pairs_reassigned": kill_report.failure.pairs_reassigned,
        },
        "min_speedup": args.min_speedup,
        "gate": gate_status,
        "passed": passed,
    }
    args.output.write_text(json.dumps(report_payload, indent=2, sort_keys=True))

    scaling = ", ".join(
        f"{workers}w {seconds[str(workers)]:.2f}s ({speedups[str(workers)]:.2f}x)"
        for workers in WORKER_COUNTS
    )
    print(
        f"supervised shard multiply on {size}x{size} dense ({pairs} pairs): "
        f"{scaling} -> {args.output}"
    )
    print(
        f"kill-one-worker: {kill_elapsed:.2f}s "
        f"({kill_overhead:.2f}x of clean 2-worker run, "
        f"{kill_report.failure.pairs_reassigned} pairs reassigned)"
    )
    print(f"gate ({args.min_speedup:.2f}x at {max_workers} workers): {gate_status}")
    if passed is False:
        print(
            f"FAIL: {max_workers}-worker speedup "
            f"{speedups[str(max_workers)]:.2f}x < {args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
