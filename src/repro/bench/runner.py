"""Timing helpers shared by the benchmark scripts.

Each paper figure compares several whole-matrix multiplication
"approaches" (spspsp/spspd/spdd/ddd/ATMULT) on a suite of matrices.
:func:`run_algorithms` times a dict of thunks once each and returns
comparable results including the output's paper-model memory footprint.
"""

from __future__ import annotations

import contextlib
import os
import platform
import time
from dataclasses import dataclass
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

import numpy as np


@dataclass
class AlgorithmResult:
    """Outcome of timing one algorithm on one workload."""

    name: str
    seconds: float
    output_bytes: int | None = None
    extra: dict | None = None

    def relative_to(self, baseline_seconds: float) -> float:
        """Speed relative to a baseline (>1 means faster than baseline)."""
        return baseline_seconds / self.seconds if self.seconds else float("inf")


def host_record() -> dict[str, Any]:
    """The facts a ``BENCH_*.json`` reader needs: cores, CPU, versions."""
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_cores": os.cpu_count() or 1,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def time_call(fn: Callable[[], object]) -> tuple[float, object]:
    """Wall-clock one call, returning ``(seconds, result)``."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_algorithms(
    algorithms: Mapping[str, Callable[[], object]],
    *,
    output_bytes: Callable[[object], int] | None = None,
) -> dict[str, AlgorithmResult]:
    """Time each algorithm once; optionally account output memory.

    ``output_bytes`` receives each algorithm's return value and reports
    its paper-model footprint (e.g. ``lambda m: m.memory_bytes()``).
    """
    results: dict[str, AlgorithmResult] = {}
    for name, fn in algorithms.items():
        seconds, value = time_call(fn)
        size = output_bytes(value) if output_bytes is not None else None
        results[name] = AlgorithmResult(name, seconds, size)
    return results
