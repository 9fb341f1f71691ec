#!/usr/bin/env python
"""Kernel roofline: every registered tile kernel on suite tile windows.

The windows are the ones ATMULT actually multiplies: each suite class
(R1, R3, R4, R8, G5, generated through :mod:`repro.generate`) is built
into an AT matrix and multiplied by itself once, sequentially, while a
recorder registered in the kernel registry notes every
``(kernel, A window, B window, target)`` call.  Each kernel's recorded
calls are then replayed into fresh accumulators, best of several rounds.
Replays read the stored payloads, not the executor's per-run views, so
every call extracts its own windows as the baselines below do.

A kernel the planner never picks on a class (the sparse-target variants
of the mixed and dense products, typically) is timed on the windows of
its dense- or sparse-target sibling, and marked so.  Per kernel the bench
reports calls, milliseconds, achieved GFLOP/s and GB/s next to two peaks
measured in this process: a numpy GEMM (flop/s) and an array copy
(bytes/s).  Flops count 2 per multiply-add:
``spsp_flops`` for sparse x sparse, ``nnz * n`` multiply-adds for the
mixed kernels and ``m * k * n`` for dense x dense.  Bytes count the
operand windows read (16 B per sparse non-zero, 8 B per dense cell) plus
the accumulator writes (8 B dense, 24 B per sparse triple).

Two kernels are also timed in their previous form, kept below as the
baseline: ``spspd`` as expand-sort-compress followed by a scatter of the
merged triples, and ``spdd`` with a 4M-element expansion chunk.

The matvec section times ``A @ x`` on each class's AT matrix four ways,
per product: the tile-by-tile loop ATMV used to run (kept below as the
baseline), the :class:`~repro.core.atmv.MatvecOperator`'s apply, the
one-shot ``atmv`` (operator build + apply, what a single product pays)
and scipy CSR when scipy is installed.  Bytes read count 16 B per
non-zero of the sparse tiles and 8 B per dense-tile cell, reported
against the copy peak.

Gates (exit 1 on failure): ``spspd`` at least ``--min-speedup`` (default
1.5) times its baseline, summed over the R4 and G5 windows; the
operator's apply at least ``MIN_MATVEC_SPEEDUP`` (1.5) times the tile
loop, summed over all classes.  Results land in
``BENCH_kernels.json`` with a host record; the ``spspd`` gate is skipped
when no gated window was recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke]
        [--output PATH] [--min-speedup X]
"""

from __future__ import annotations

import argparse
import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro import SystemConfig, atmult, atmv, build_at_matrix
from repro.bench import host_record
from repro.core.atmatrix import ATMatrix
from repro.core.atmv import MatvecOperator
from repro.formats.csr import CSRMatrix, CSRRunView, _segment_gather_indices
from repro.generate.suite import load_matrix
from repro.kernels import get_kernel, make_accumulator, products, register_kernel
from repro.kernels.spmv import csr_spmv, dense_spmv
from repro.kinds import StorageKind, kernel_name

CLASSES = ("R1", "R3", "R4", "R8", "G5")
GATED = ("R4", "G5")
FULL_ROUNDS, SMOKE_ROUNDS = 5, 3
#: Smoke runs replay an evenly spaced sample of each kernel's calls.
SMOKE_CALLS = 48
BASELINE_CHUNK = 1 << 22
COMBOS = [(a, b, c) for a in StorageKind for b in StorageKind for c in StorageKind]
#: Products per timed matvec round; a round's time is divided by it.
MATVEC_CALLS = 20
#: The operator's apply must beat the tile loop by this much, summed over CLASSES.
MIN_MATVEC_SPEEDUP = 1.5


# ---------------------------------------------------------------------------
# baselines: the kernels as they were before the sort-free, L2-sized rewrite
# ---------------------------------------------------------------------------
def baseline_spsp_triples(a, wa, b, wb):
    """Expand-sort-compress with a 4M-element chunk."""
    a_rows, a_cols, a_vals = products._csr_window_triples(a, wa)
    empty = products._empty_triples()
    if not len(a_vals):
        return empty
    b_lo, b_hi = products._csr_row_ranges(b, wb)
    lens = (b_hi - b_lo)[a_cols]
    cumulative = np.cumsum(lens)
    if not int(cumulative[-1]):
        return empty
    runs = []
    start = 0
    while start < len(a_vals):
        base = cumulative[start - 1] if start else 0
        end = int(np.searchsorted(cumulative, base + BASELINE_CHUNK, side="left"))
        end = min(max(end, start + 1), len(a_vals))
        chunk_lens = lens[start:end]
        take = _segment_gather_indices(b_lo[a_cols[start:end]], chunk_lens)
        runs.append(products.compress_triples(
            np.repeat(a_rows[start:end], chunk_lens),
            b.indices[take] - wb.col0,
            np.repeat(a_vals[start:end], chunk_lens) * b.values[take],
            wb.cols,
        ))
        start = end
    if len(runs) == 1:
        return runs[0]
    return products.compress_triples(
        *(np.concatenate(part) for part in zip(*runs, strict=True)), wb.cols
    )


def baseline_spspd(a, wa, b, wb, out, row0, col0):
    """Sorted, merged triples scattered by ``bincount`` or 2-D ``add.at``."""
    rows, cols, values = baseline_spsp_triples(a, wa, b, wb)
    area = out.array.size
    if len(values) * 8 >= area:
        flat = (rows + row0) * np.int64(out.cols) + (cols + col0)
        out.array.ravel()[:] += np.bincount(flat, weights=values, minlength=area)
    else:
        np.add.at(out.array, (rows + row0, cols + col0), values)
    out.writes += len(values)


def baseline_spd_dense(a, wa, b, wb):
    """Row-scaled dense rows merged by ``reduceat`` over 4M-element chunks."""
    b_view = b.window_view(wb.row0, wb.row1, wb.col0, wb.col1)
    out = np.zeros((wa.rows, wb.cols), dtype=np.float64)
    a_rows, a_cols, a_vals = products._csr_window_triples(a, wa)
    if not len(a_vals):
        return out
    chunk = max(1, BASELINE_CHUNK // max(1, wb.cols))
    for start in range(0, len(a_vals), chunk):
        end = min(start + chunk, len(a_vals))
        rows_c = a_rows[start:end]
        expanded = a_vals[start:end, None] * b_view[a_cols[start:end]]
        boundaries = np.empty(end - start, dtype=bool)
        boundaries[0] = True
        np.not_equal(rows_c[1:], rows_c[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        out[rows_c[starts]] += np.add.reduceat(expanded, starts, axis=0)
    return out


def baseline_spdd(a, wa, b, wb, out, row0, col0):
    out.add_dense(row0, col0, baseline_spd_dense(a, wa, b, wb))


BASELINES = {"spspd_gemm": baseline_spspd, "spdd_gemm": baseline_spdd}


def baseline_atmv(at: ATMatrix, x: np.ndarray) -> np.ndarray:
    """ATMV as it was: a Python loop over the tiles, one kernel call each."""
    out = np.zeros(at.rows, dtype=np.float64)
    for tile in at.tiles:
        segment = x[tile.col0 : tile.col1]
        if isinstance(tile.data, CSRMatrix):
            out[tile.row0 : tile.row1] += csr_spmv(tile.data, segment)
        else:
            out[tile.row0 : tile.row1] += dense_spmv(tile.data, segment)
    return out


# ---------------------------------------------------------------------------
# recording and replay
# ---------------------------------------------------------------------------
def record_calls(at: ATMatrix) -> dict[tuple[StorageKind, ...], list[list[tuple]]]:
    """``(A, B, C)`` kinds -> pairs -> ``(a, wa, b, wb, out shape, row0, col0)``.

    Consecutive calls of one kernel into one accumulator form one pair,
    replayed into one fresh accumulator like the executor does.
    """
    config = at.config
    calls: dict[tuple[StorageKind, ...], list[list[tuple]]] = {}
    last_out: dict[tuple[StorageKind, ...], Any] = {}
    saved = {combo: get_kernel(*combo) for combo in COMBOS}

    def recorder(combo, kernel):
        def record(a, wa, b, wb, out, row0, col0):
            pairs = calls.setdefault(combo, [])
            if out is not last_out.get(combo):
                pairs.append([])
                last_out[combo] = out
            pairs[-1].append(
                (stored(a), wa, stored(b), wb, (out.rows, out.cols), row0, col0)
            )
            kernel(a, wa, b, wb, out, row0, col0)
        return record

    try:
        for combo, kernel in saved.items():
            register_kernel(*combo, recorder(combo, kernel))
        atmult(at, at, config=config)
    finally:
        for combo, kernel in saved.items():
            register_kernel(*combo, kernel)
    return calls


def stored(operand):
    """The payload behind a run's memoizing view, so replays extract windows."""
    return operand.source if isinstance(operand, CSRRunView) else operand


def sample(pairs: list[list[tuple]], limit: int) -> list[list[tuple]]:
    """An evenly spaced subset of at most ``limit`` calls, pair by pair."""
    total = sum(len(pair) for pair in pairs)
    if total <= limit:
        return pairs
    keep = set(np.linspace(0, total - 1, limit).astype(int).tolist())
    out, index = [], 0
    for pair in pairs:
        kept = [call for offset, call in enumerate(pair) if index + offset in keep]
        index += len(pair)
        if kept:
            out.append(kept)
    return out


def replay(kernel: Callable, pairs: list[list[tuple]], c_kind: StorageKind):
    """Seconds spent in ``kernel`` over all calls, and the final targets."""
    seconds = 0.0
    targets = []
    for pair in pairs:
        out = make_accumulator(c_kind, *pair[0][4])
        for a, wa, b, wb, _, row0, col0 in pair:
            start = time.perf_counter()
            kernel(a, wa, b, wb, out, row0, col0)
            seconds += time.perf_counter() - start
        targets.append(out)
    return seconds, targets


def best_of(rounds: int, kernel: Callable, pairs, c_kind: StorageKind):
    first, targets = replay(kernel, pairs, c_kind)
    return min([first] + [replay(kernel, pairs, c_kind)[0] for _ in range(rounds - 1)]), targets


def work(pairs: list[list[tuple]], writes: int, c_kind: StorageKind) -> tuple[int, int]:
    """``(flops, bytes)`` of the recorded calls (see the module docstring)."""
    flops = nbytes = 0
    for pair in pairs:
        for a, wa, b, wb, _, _, _ in pair:
            nnz_a = _window_nnz(a, wa)
            nnz_b = _window_nnz(b, wb)
            if isinstance(a, CSRMatrix) and isinstance(b, CSRMatrix):
                madds = products.spsp_flops(a, wa, b, wb)
            elif isinstance(a, CSRMatrix):
                madds = nnz_a * wb.cols
            elif isinstance(b, CSRMatrix):
                madds = nnz_b * wa.rows
            else:
                madds = wa.rows * wa.cols * wb.cols
            flops += 2 * madds
            nbytes += _entry_bytes(a) * nnz_a + _entry_bytes(b) * nnz_b
    per_write = 8 if c_kind is StorageKind.DENSE else 24
    return flops, nbytes + per_write * writes


def _window_nnz(matrix, window) -> int:
    if isinstance(matrix, CSRMatrix):
        lo, hi = matrix.window_ranges(window.row0, window.row1, window.col0, window.col1)
        return int((hi - lo).sum())
    return window.rows * window.cols


def _entry_bytes(matrix) -> int:
    return 16 if isinstance(matrix, CSRMatrix) else 8


# ---------------------------------------------------------------------------
# matvec
# ---------------------------------------------------------------------------
def per_call_ms(rounds: int, fn: Callable[[], object]) -> float:
    """Best over ``rounds`` of the mean time of ``MATVEC_CALLS`` calls, in ms."""
    fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(MATVEC_CALLS):
            fn()
        best = min(best, (time.perf_counter() - start) / MATVEC_CALLS)
    return best * 1e3


def scipy_matvec(at: ATMatrix, x: np.ndarray) -> Callable[[], object] | None:
    """``A @ x`` on the same matrix as a scipy CSR, or None without scipy."""
    try:
        import scipy.sparse as sp
    except ImportError:
        return None
    csr = at.to_csr()
    matrix = sp.csr_matrix((csr.values, csr.indices, csr.indptr), shape=at.shape)
    return lambda: matrix @ x


def time_matvec(at: ATMatrix, rounds: int) -> dict[str, Any]:
    """Per-product ms of the tile loop, the operator and scipy on one matrix."""
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=at.cols)
    operator = MatvecOperator(at)
    if not np.array_equal(operator(x), baseline_atmv(at, x)):
        raise AssertionError("MatvecOperator is not bitwise equal to the tile loop")
    reference = scipy_matvec(at, x)
    nbytes = sum(
        16 * tile.nnz if tile.kind is StorageKind.SPARSE else 8 * tile.rows * tile.cols
        for tile in at.tiles
    )
    row: dict[str, Any] = {
        "tiles": len(at.tiles),
        "nnz": at.nnz,
        "bytes": nbytes,
        "ms_loop": per_call_ms(rounds, lambda: baseline_atmv(at, x)),
        "ms_apply": per_call_ms(rounds, lambda: operator(x)),
        "ms_oneshot": per_call_ms(rounds, lambda: atmv(at, x)),
        "ms_scipy": None if reference is None else per_call_ms(rounds, reference),
    }
    row["speedup"] = row["ms_loop"] / row["ms_apply"]
    row["bytes_per_s"] = nbytes / (row["ms_apply"] * 1e-3)
    return row


# ---------------------------------------------------------------------------
# machine peaks
# ---------------------------------------------------------------------------
def _best_rate(amount: float, fn: Callable[[], object], budget: float = 0.5) -> float:
    """``amount`` per second of the fastest call within a time budget.

    A budget rather than a call count: BLAS thread pools and CPU clocks
    take a while to come up, and a short burst right after start-up
    measured a 512 x 512 GEMM at a tenth of its speed.
    """
    fn()
    best = float("inf")
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return amount / best


def gemm_peak(n: int = 1024) -> float:
    """Best flop/s of an ``n x n`` numpy GEMM."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    return _best_rate(2.0 * n**3, lambda: a @ b)


def copy_peak(megabytes: int = 64) -> float:
    """Best bytes/s (read + write) of a large array copy."""
    src = np.ones(megabytes * (1 << 20) // 8)
    dst = np.empty_like(src)
    return _best_rate(2.0 * src.nbytes, lambda: np.copyto(dst, src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="fail if spspd is below this multiple of its baseline on R4+G5 (default 1.5)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"replay at most {SMOKE_CALLS} calls per kernel and class, {SMOKE_ROUNDS} rounds",
    )
    args = parser.parse_args(argv)
    rounds = SMOKE_ROUNDS if args.smoke else FULL_ROUNDS

    host = host_record()
    print(f"host: {host['cpu_cores']} cores, {host['cpu_model']}, "
          f"python {host['python']}, numpy {host['numpy']}")
    before = (gemm_peak(), copy_peak())

    kernels: dict[str, dict[str, dict[str, Any]]] = {}
    baselines: dict[str, dict[str, dict[str, float]]] = {}
    matvec: dict[str, dict[str, Any]] = {}
    for key in CLASSES:
        at = build_at_matrix(load_matrix(key), SystemConfig())
        matvec[key] = time_matvec(at, rounds)
        windows = {combo: (pairs, "planned") for combo, pairs in record_calls(at).items()}
        for (a_kind, b_kind, c_kind), (pairs, _) in list(windows.items()):
            other = next(c for c in StorageKind if c is not c_kind)
            windows.setdefault(
                (a_kind, b_kind, other), (pairs, kernel_name(a_kind, b_kind, c_kind))
            )
        for combo in sorted(windows, key=lambda combo: kernel_name(*combo)):
            name, c_kind = kernel_name(*combo), combo[2]
            pairs, source = windows[combo]
            if args.smoke:
                pairs = sample(pairs, SMOKE_CALLS)
            seconds, targets = best_of(rounds, get_kernel(*combo), pairs, c_kind)
            flops, nbytes = work(pairs, sum(t.writes for t in targets), c_kind)
            kernels.setdefault(key, {})[name] = {
                "windows": source,
                "calls": sum(len(pair) for pair in pairs),
                "ms": seconds * 1e3,
                "flops_per_s": flops / seconds,
                "bytes_per_s": nbytes / seconds,
            }
            if name in BASELINES and source == "planned":
                base_seconds, base_targets = best_of(rounds, BASELINES[name], pairs, c_kind)
                for new, old in zip(targets, base_targets, strict=True):
                    np.testing.assert_allclose(
                        new.finalize().to_dense(), old.finalize().to_dense(),
                        rtol=1e-9, atol=1e-12,
                    )
                baselines.setdefault(key, {})[name] = {
                    "ms": base_seconds * 1e3, "ms_new": seconds * 1e3,
                    "speedup": base_seconds / seconds,
                }

    # Peaks are the better of a cold and a warm measurement.
    peaks = {
        "gemm_flops": max(before[0], gemm_peak()),
        "copy_bytes": max(before[1], copy_peak()),
    }
    print(f"peaks: numpy GEMM {peaks['gemm_flops'] / 1e9:.2f} GFLOP/s, "
          f"copy {peaks['copy_bytes'] / 1e9:.2f} GB/s")
    print(f"{'class':>5} {'kernel':>12} {'calls':>6} {'ms':>9} {'GFLOP/s':>8}"
          f" {'%gemm':>6} {'GB/s':>6} {'%copy':>6}  note")
    for key, rows in kernels.items():
        for name, row in rows.items():
            row["gemm_fraction"] = row["flops_per_s"] / peaks["gemm_flops"]
            row["copy_fraction"] = row["bytes_per_s"] / peaks["copy_bytes"]
            note = "" if row["windows"] == "planned" else f"on {row['windows']} windows"
            if name in baselines.get(key, {}):
                base = baselines[key][name]
                note = f"baseline {base['ms']:.2f} ms ({base['speedup']:.2f}x)"
            print(f"{key:>5} {name:>12} {row['calls']:>6} {row['ms']:>9.2f}"
                  f" {row['flops_per_s'] / 1e9:>8.2f} {100 * row['gemm_fraction']:>5.1f}%"
                  f" {row['bytes_per_s'] / 1e9:>6.2f} {100 * row['copy_fraction']:>5.1f}%"
                  f"  {note}")

    print(f"matvec, ms per product: {'class':>5} {'tiles':>5} {'loop':>7} {'apply':>7}"
          f" {'one-shot':>8} {'scipy':>7} {'speedup':>7} {'GB/s':>6} {'%copy':>6}")
    for key, row in matvec.items():
        row["copy_fraction"] = row["bytes_per_s"] / peaks["copy_bytes"]
        scipy_ms = "-" if row["ms_scipy"] is None else f"{row['ms_scipy']:.3f}"
        print(f"{'':22} {key:>5} {row['tiles']:>5} {row['ms_loop']:>7.3f}"
              f" {row['ms_apply']:>7.3f} {row['ms_oneshot']:>8.3f} {scipy_ms:>7}"
              f" {row['speedup']:>6.2f}x {row['bytes_per_s'] / 1e9:>6.2f}"
              f" {100 * row['copy_fraction']:>5.1f}%")

    gated = [baselines[key]["spspd_gemm"] for key in GATED
             if "spspd_gemm" in baselines.get(key, {})]
    spspd_passed: bool | None = None
    speedup = None
    if gated:
        speedup = sum(g["ms"] for g in gated) / sum(g["ms_new"] for g in gated)
        spspd_passed = speedup >= args.min_speedup
        gate = (f"spspd {speedup:.2f}x its expand-sort-compress baseline on "
                f"{'+'.join(GATED)} (need {args.min_speedup:.2f}x)")
    else:
        gate = f"skipped (no spspd_gemm call recorded on {'+'.join(GATED)})"
    print(("gate passed: " if spspd_passed else "FAIL: " if spspd_passed is False else "")
          + gate)
    matvec_speedup = (sum(row["ms_loop"] for row in matvec.values())
                      / sum(row["ms_apply"] for row in matvec.values()))
    matvec_passed = matvec_speedup >= MIN_MATVEC_SPEEDUP
    matvec_gate = (f"matvec operator {matvec_speedup:.2f}x the tile loop on "
                   f"{'+'.join(CLASSES)} (need {MIN_MATVEC_SPEEDUP:.2f}x)")
    print(("gate passed: " if matvec_passed else "FAIL: ") + matvec_gate)
    passed = matvec_passed and spspd_passed is not False

    payload = {
        "baselines": baselines,
        "classes": list(CLASSES),
        "gate": gate,
        "host": host,
        "kernels": kernels,
        "matvec": matvec,
        "matvec_gate": matvec_gate,
        "matvec_speedup": matvec_speedup,
        "min_matvec_speedup": MIN_MATVEC_SPEEDUP,
        "min_speedup": args.min_speedup,
        "passed": passed,
        "peaks": peaks,
        "rounds": rounds,
        "smoke": args.smoke,
        "spspd_speedup": speedup,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
