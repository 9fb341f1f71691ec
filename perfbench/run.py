#!/usr/bin/env python3
"""End-to-end benchmark of the repro matrix engine and its job service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload atmult-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (plus a Chrome trace and a per-layer
self-time table under ``perfbench/results/``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric with its value and unit).  See README.md here.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # The load is at most nproc threads: executor workers only, no BLAS
    # thread pools behind them (inherited by the server and shard workers).
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import WORKLOADS, result_line, run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    for error in report["failures"]:
        print(f"FAILED {error}", file=sys.stderr)
    for name, value in report["metrics"].items():
        print(f"{name} = {value:.6g} {report['units'][name]}")
    print(f"failed_ratio = {report['failed_ratio']:.6g} "
          f"({report['failed']} of {report['attempted']} ops)")
    print(f"cpu_steal_busy_ratio = {report['cpu_steal_busy_ratio']:.3f} "
          "(share of busy CPU time the host gave other guests)")
    print(f"host_slowdown = {report['host_slowdown']:.3f} "
          "(times slower than nominal the host ran; the time metrics are scaled by it)")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
