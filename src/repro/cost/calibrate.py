"""Micro-benchmark calibration of the cost-model coefficients.

The cost model's coefficients are "seconds per unit work" constants that
depend on the host machine.  :func:`calibrate` times small, targeted
workloads for each work term and fits the coefficients, replacing the
shipped :data:`~repro.cost.model.DEFAULT_COEFFICIENTS` where measurements
are available.  Kernel choices follow the coefficients' ratios, so
coefficient error costs time: a set that charged dense flops 12x too
much planned the suite at 1.4x the measured-fastest kernels.  Check any
set with ``benchmarks/bench_regret.py`` before trusting it; this fit
times sparse x sparse into a sparse target only, and splits that time
between the expand and sort terms at the default ratio.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observe import Observation

import numpy as np

from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kernels import gemm
from .model import CostCoefficients, DEFAULT_COEFFICIENTS


def _random_csr(rng: np.random.Generator, rows: int, cols: int, density: float) -> CSRMatrix:
    nnz = max(1, int(rows * cols * density))
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    return CSRMatrix.from_arrays_unsorted(
        rows, cols, flat // cols, flat % cols, rng.random(nnz)
    )


def _time(fn: Callable[[], object], *, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate(
    *, size: int = 256, density: float = 0.05, seed: int = 0, repeats: int = 3
) -> CostCoefficients:
    """Fit machine coefficients from kernel micro-benchmarks.

    Times one representative workload per kernel family on ``size x size``
    tiles and solves each coefficient from its dominant work term.  The
    result should be passed into :class:`~repro.cost.model.CostModel`.
    """
    rng = np.random.default_rng(seed)
    a_sp = _random_csr(rng, size, size, density)
    b_sp = _random_csr(rng, size, size, density)
    a_d = DenseMatrix(rng.random((size, size)), copy=False)
    b_d = DenseMatrix(rng.random((size, size)), copy=False)
    volume = float(size) ** 3

    # dense x dense -> dense: pure BLAS flops.
    t_ddd = _time(lambda: gemm.ddd_gemm(a_d, b_d), repeats=repeats)
    dense_flop = t_ddd / volume

    # sparse x dense -> dense: flops = nnz(A) * n.
    t_spdd = _time(lambda: gemm.spdd_gemm(a_sp, b_d), repeats=repeats)
    spd_flop = t_spdd / max(1.0, a_sp.nnz * float(size))

    # dense x sparse -> dense: flops = m * nnz(B).
    t_dspd = _time(lambda: gemm.dspd_gemm(a_d, b_sp), repeats=repeats)
    dsp_flop = t_dspd / max(1.0, float(size) * b_sp.nnz)

    # sparse x sparse -> sparse: expansion + sort dominate.
    expansion = volume * a_sp.density * b_sp.density
    t_spspsp = _time(lambda: gemm.spspsp_gemm(a_sp, b_sp), repeats=repeats)
    # Split measured time between expand and sort terms at the default ratio.
    base = DEFAULT_COEFFICIENTS
    default_total = base.sparse_expand * expansion + base.sparse_sort * expansion * max(
        1.0, math.log2(max(2.0, expansion))
    )
    scale = t_spspsp / default_total if default_total > 0 else 1.0
    sparse_expand = base.sparse_expand * scale
    sparse_sort = base.sparse_sort * scale

    # dense write throughput: accumulate a block into an array.
    block = rng.random((size, size))
    target = np.zeros_like(block)

    def _dense_write() -> None:
        target2 = target
        target2 += block

    t_write = _time(_dense_write, repeats=repeats)
    dense_write = t_write / block.size

    # dense scan throughput: non-zero extraction.
    t_scan = _time(lambda: np.nonzero(block), repeats=repeats)
    dense_scan = t_scan / block.size

    # sparse write: triple merge into CSR.
    rows_c, cols_c, vals_c = (
        rng.integers(0, size, size * size // 4),
        rng.integers(0, size, size * size // 4),
        rng.random(size * size // 4),
    )
    t_merge = _time(
        lambda: CSRMatrix.from_arrays_unsorted(size, size, rows_c, cols_c, vals_c),
        repeats=repeats,
    )
    sparse_write = t_merge / len(vals_c)

    # conversion throughput: CSR -> dense.
    t_conv = _time(a_sp.to_dense, repeats=repeats)
    convert_element = t_conv / max(1, a_sp.nnz)

    return replace(
        DEFAULT_COEFFICIENTS,
        dense_flop=dense_flop,
        spd_flop=spd_flop,
        dsp_flop=dsp_flop,
        sparse_expand=sparse_expand,
        sparse_sort=sparse_sort,
        dense_write=dense_write,
        dense_scan=dense_scan,
        sparse_write=sparse_write,
        convert_element=convert_element,
    )


#: Kernel-name prefix -> the coefficient(s) dominating that kernel family.
#: Kernel names are ``{a}{b}{c}_gemm`` with storage codes ``sp``/``d``,
#: so the A/B prefix identifies the compute term of the cost model.
_KERNEL_COEFFICIENTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("spsp", ("sparse_expand", "sparse_sort")),
    ("spd", ("spd_flop",)),
    ("dsp", ("dsp_flop",)),
    ("dd", ("dense_flop",)),
)


def refine_from_observation(
    observation: Observation,
    coefficients: CostCoefficients | None = None,
    *,
    min_samples: int = 8,
    max_scale: float = 16.0,
) -> CostCoefficients:
    """Refine cost coefficients from a run's measured-vs-predicted costs.

    Closes the loop between the cost-accuracy tracker and the model: for
    every kernel family with at least ``min_samples`` recorded tile
    products, the family's dominant compute coefficient is multiplied by
    the geometric-mean measured/predicted ratio, so the next run's
    predictions center on the observed timings.  Scale corrections are
    clamped to ``[1/max_scale, max_scale]`` — a wildly skewed ratio
    means noise (tiny tiles, timer resolution), not a miscalibrated
    machine constant.

    ``observation`` is a :class:`~repro.observe.Observation` (only its
    ``cost_accuracy`` tracker is consulted).
    """
    base = coefficients or DEFAULT_COEFFICIENTS
    ratios = observation.cost_accuracy.ratio_by_kernel()
    counts = {
        kernel: accuracy.count
        for kernel, accuracy in observation.cost_accuracy.summary().items()
    }
    updates: dict[str, float] = {}
    for kernel, ratio in ratios.items():
        if counts.get(kernel, 0) < min_samples or not math.isfinite(ratio):
            continue
        scale = min(max_scale, max(1.0 / max_scale, ratio))
        for prefix, names in _KERNEL_COEFFICIENTS:
            if kernel.startswith(prefix):
                for name in names:
                    # Average scales when several kernels share a term
                    # (e.g. spspd and spspsp both refine the sparse pair).
                    previous = updates.get(name)
                    updates[name] = (
                        scale if previous is None else (previous + scale) / 2.0
                    )
                break
    if not updates:
        return base
    return replace(
        base,
        **{name: getattr(base, name) * scale for name, scale in updates.items()},
    )


def describe(coefficients: CostCoefficients) -> str:
    """Human-readable one-line-per-coefficient dump."""
    lines = [
        f"  {name:>16}: {value:.3e} s/unit"
        for name, value in vars(coefficients).items()
    ]
    return "\n".join(["CostCoefficients:"] + lines)


__all__ = ["calibrate", "describe", "refine_from_observation"]
