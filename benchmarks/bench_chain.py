#!/usr/bin/env python
"""Fused-chain benchmark: repeated chain products.

The chain redesign taught the engine to cache a whole
:class:`~repro.engine.plan.FusedChainPlan` under one
:class:`~repro.engine.cache.ChainKey`: a repeated chain product replays
the recorded cross-hop schedule (dead intermediates freed eagerly)
instead of re-running dynamic-programming parenthesization, density
estimation and per-hop plan construction on every call.  This bench
quantifies that on a **repeated 4-matrix chain**: cache-less
``multiply_chain`` (a cold chain run: parenthesization and every hop's
plan rebuilt on every run, hops run in order) versus warm
:meth:`repro.Session.multiply_chain` replays of one fused plan.

Both paths run their pairs through the same chain step and identical
kernels; the difference is planning overhead plus the hop-by-hop order
of the cold run. Results land in
``BENCH_chain.json`` and the process exits non-zero when the fused path
is not at least ``--min-speedup`` times faster — CI runs this as a
regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_chain.py [--output PATH]
        [--min-speedup X] [--repeats N]

Standalone on purpose: ``bench_chain_planning.py`` next door regenerates
the paper's parenthesization tables, while this script is a pass/fail
gate cheap enough for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    COOMatrix,
    MultiplyOptions,
    Session,
    SystemConfig,
    build_at_matrix,
    multiply_chain,
)
from repro.bench import host_record

#: ``len(CHAIN_DIMS) - 1 == 4`` operands, deliberately rectangular so the
#: dynamic-programming parenthesization is non-trivial on every re-plan.
CHAIN_DIMS = (1024, 512, 1280, 384, 768)
#: Sparse enough that planning (density estimation, water-level, kernel
#: decisions, DP) is a large share of each run — the share the fused
#: replay eliminates.
CHAIN_DENSITY = 0.002
#: Chain executions per timed sample; the unfused path re-plans each one.
CHAIN_RUNS = 10
#: Small atomic blocks make the per-product decision count (and so the
#: planning share of each hop) representative of big-matrix runs.
CONFIG = SystemConfig(llc_bytes=384 * 1024, b_atomic=32)


def build_chain() -> tuple[list, int]:
    """Random sparse operands for the repeated 4-matrix chain."""
    rng = np.random.default_rng(7)
    operands = []
    nnz = 0
    for rows, cols in zip(CHAIN_DIMS[:-1], CHAIN_DIMS[1:], strict=True):
        raw = np.where(
            rng.random((rows, cols)) < CHAIN_DENSITY,
            rng.random((rows, cols)),
            0.0,
        )
        nnz += int(np.count_nonzero(raw))
        operands.append(build_at_matrix(COOMatrix.from_dense(raw), CONFIG))
    return operands, nnz


def run_unfused(operands) -> float:
    """CHAIN_RUNS cache-less chain products: cold runs, re-planned every time."""
    options = MultiplyOptions(config=CONFIG)
    start = time.perf_counter()
    for _ in range(CHAIN_RUNS):
        _, report = multiply_chain(list(operands), options=options)
        assert not report.fused
    return time.perf_counter() - start


def run_fused(operands, session: Session) -> float:
    """CHAIN_RUNS warm replays of the session's cached fused plan."""
    start = time.perf_counter()
    for _ in range(CHAIN_RUNS):
        _, report = session.multiply_chain(list(operands))
        assert report.fused and report.plan_cache_hit
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_chain.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when fused/unfused speedup falls below this (default 1.5)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per path; the best of each is compared",
    )
    args = parser.parse_args(argv)

    operands, chain_nnz = build_chain()
    session = Session(config=CONFIG)
    # Warm both paths once; the session's first run records the fused plan.
    run_unfused(operands)
    _, cold_report = session.multiply_chain(list(operands))
    assert not cold_report.plan_cache_hit

    unfused_times = [run_unfused(operands) for _ in range(args.repeats)]
    fused_times = [run_fused(operands, session) for _ in range(args.repeats)]
    best_unfused = min(unfused_times)
    best_fused = min(fused_times)
    speedup = best_unfused / best_fused

    passed = speedup >= args.min_speedup
    report = {
        "host": host_record(),
        "workload": {
            "chain_dims": list(CHAIN_DIMS),
            "chain_density": CHAIN_DENSITY,
            "chain_nnz": chain_nnz,
            "chain_runs_per_sample": CHAIN_RUNS,
        },
        "config": {
            "llc_bytes": CONFIG.llc_bytes,
            "b_atomic": CONFIG.b_atomic,
        },
        "seconds": {
            "unfused": unfused_times,
            "fused": fused_times,
            "best_unfused": best_unfused,
            "best_fused": best_fused,
        },
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "chain_cache": session.cache_stats().as_dict(),
        "passed": passed,
    }
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True))

    chain = "x".join(str(d) for d in CHAIN_DIMS)
    print(
        f"{CHAIN_RUNS}-run 4-matrix chain ({chain}, nnz={chain_nnz}): "
        f"unfused {best_unfused * 1e3:.1f} ms, "
        f"fused {best_fused * 1e3:.1f} ms, speedup {speedup:.2f}x "
        f"(gate: {args.min_speedup:.2f}x) -> {args.output}"
    )
    if not passed:
        print(
            f"FAIL: fused path is only {speedup:.2f}x faster "
            f"(required {args.min_speedup:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
