#!/usr/bin/env python
"""CRC-32C throughput: the vectorized checksum against the per-byte loop.

Every durable byte of the library — v2 operand archives, checkpoint pair
records, job results, wire results — is digested by
:func:`repro.ioutil.crc32c`.  This bench reports its MB/s at 64 B,
1 KiB, 64 KiB, 1 MiB and 4 MiB next to the table-driven per-byte loop it
replaced (kept below as the baseline), both timed in this process on the
same random input, best of several rounds.

Gates (exit 1 on failure): the new function is at least
``--min-speedup`` (default 8) times the loop's throughput at 1 MiB, and
no slower than the loop at 64 B, where it runs a scalar loop itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_crc32c.py [--min-speedup X]
"""

from __future__ import annotations

import argparse
import time
from collections.abc import Callable

import numpy as np

from repro.bench import host_record
from repro.ioutil import crc32c

SIZES = (64, 1024, 64 * 1024, 1 << 20, 4 << 20)
GATE_SIZE = 1 << 20
SMALL_SIZE = 64


def _byte_table() -> list[int]:
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _byte_table()


def per_byte_crc32c(data: bytes, value: int = 0) -> int:
    """The baseline: one table lookup per byte in a Python loop."""
    table = _TABLE
    crc = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in bytes(data):
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def best_seconds(fn: Callable[[bytes], int], data: bytes, budget: float) -> float:
    """Fastest of several rounds, each averaging enough calls to fill it."""
    start = time.perf_counter()
    fn(data)
    once = time.perf_counter() - start
    calls = max(1, int(budget / 5 / max(once, 1e-9)))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            fn(data)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=8.0,
        help="fail below this speedup over the per-byte loop at 1 MiB (default 8)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=0.5,
        help="seconds of timing per function and size (default 0.5)",
    )
    args = parser.parse_args(argv)

    host = host_record()
    print(f"host: {host['cpu_cores']} cores, {host['cpu_model']}, "
          f"python {host['python']}, numpy {host['numpy']}")
    data = np.random.default_rng(0).integers(0, 256, max(SIZES), dtype=np.uint8).tobytes()
    speedups = {}
    print(f"{'size':>8}  {'per-byte MB/s':>13}  {'crc32c MB/s':>11}  {'speedup':>7}")
    for size in SIZES:
        piece = data[:size]
        if crc32c(piece) != per_byte_crc32c(piece):
            print(f"FAIL: checksums differ at {size} B")
            return 1
        loop = best_seconds(per_byte_crc32c, piece, args.budget)
        new = best_seconds(crc32c, piece, args.budget)
        speedups[size] = loop / new
        print(f"{size:>8}  {size / loop / 1e6:>13.1f}  {size / new / 1e6:>11.1f}"
              f"  {speedups[size]:>6.1f}x")

    failures = []
    if speedups[GATE_SIZE] < args.min_speedup:
        failures.append(
            f"{speedups[GATE_SIZE]:.1f}x at {GATE_SIZE} B < {args.min_speedup:.1f}x"
        )
    if speedups[SMALL_SIZE] < 1.0:
        failures.append(f"slower than the per-byte loop at {SMALL_SIZE} B")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"gate passed: {speedups[GATE_SIZE]:.1f}x >= {args.min_speedup:.1f}x "
              f"at {GATE_SIZE} B, {speedups[SMALL_SIZE]:.2f}x at {SMALL_SIZE} B")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
