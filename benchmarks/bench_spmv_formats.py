"""SpMV format comparison (design-motivation ablation).

The paper justifies CSR as its sparse tile representation with Vuduc's
observation that "CSR tends to have best performance for sparse
matrix-vector multiplication on a wide class of matrices" (sections II-A
and V-A).  This bench reproduces that comparison on the suite: CSR vs.
ELLPACK vs. BCSR (3x3 register blocks) vs. dense gemv, plus the AT
Matrix vector path (ATMV), which routes dense regions through gemv.
Every format is converted once outside the timed loop; for ATMV that is
the :class:`~repro.core.atmv.MatvecOperator` build, so only its apply is
timed.

Expected shapes: CSR best-or-close on every topology; ELL collapses when
row lengths are skewed (padding); BCSR pays its fill-in except on
block-structured matrices; dense only wins at high density; ATMV tracks
the best of CSR/dense per region.
"""

import numpy as np
import pytest

from repro.bench import format_relative_table, format_table
from repro.core.atmv import MatvecOperator
from repro.formats.bcsr import BCSRMatrix
from repro.formats.ell import ELLMatrix
from repro.kernels.spmv import csr_spmv, dense_spmv

from .conftest import register_report, bench_once, selected_keys

# ELL materialization on skewed RMAT matrices can exceed memory
# (width = max row nnz); restrict to the real-world family plus G1.
KEYS = [k for k in selected_keys() if not k.startswith("G") or k == "G1"]

_SECONDS: dict[str, dict[str, float]] = {}
_STATS: dict[str, dict[str, float]] = {}

#: Iterations per measurement — SpMV is too fast for single-shot timing.
REPEATS = 10


def _vector(matrices, key):
    rng = np.random.default_rng(1)
    return rng.random(matrices.staged(key).cols)


def _record(key, fmt, seconds):
    _SECONDS.setdefault(fmt, {})[key] = seconds


@pytest.mark.parametrize("key", KEYS)
def test_csr(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    x = _vector(matrices, key)

    def run():
        for _ in range(REPEATS):
            y = csr_spmv(csr, x)
        return y

    _, seconds = bench_once(benchmark, run)
    _record(key, "CSR", seconds)
    collector.record("spmv", "CSR", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_ell(benchmark, matrices, collector, key):
    ell = ELLMatrix.from_csr(matrices.csr(key))
    x = _vector(matrices, key)
    _STATS.setdefault(key, {})["ell_padding"] = ell.padding_fraction

    def run():
        for _ in range(REPEATS):
            y = ell.spmv(x)
        return y

    _, seconds = bench_once(benchmark, run)
    _record(key, "ELL", seconds)
    collector.record("spmv", "ELL", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_bcsr(benchmark, matrices, collector, key):
    bcsr = BCSRMatrix.from_csr(matrices.csr(key), 3, 3)
    x = _vector(matrices, key)
    _STATS.setdefault(key, {})["bcsr_fill"] = bcsr.fill_ratio

    def run():
        for _ in range(REPEATS):
            y = bcsr.spmv(x)
        return y

    _, seconds = bench_once(benchmark, run)
    _record(key, "BCSR3x3", seconds)
    collector.record("spmv", "BCSR3x3", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_dense(benchmark, matrices, collector, key):
    dense = matrices.dense(key)
    x = _vector(matrices, key)

    def run():
        for _ in range(REPEATS):
            y = dense_spmv(dense, x)
        return y

    _, seconds = bench_once(benchmark, run)
    _record(key, "dense", seconds)
    collector.record("spmv", "dense", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_atmv(benchmark, matrices, collector, key):
    operator = MatvecOperator(matrices.at(key))
    x = _vector(matrices, key)

    def run():
        for _ in range(REPEATS):
            y = operator(x)
        return y

    result, seconds = bench_once(benchmark, run)
    _record(key, "ATMV", seconds)
    collector.record("spmv", "ATMV", key, seconds)
    expected = csr_spmv(matrices.csr(key), x)
    np.testing.assert_allclose(result, expected, atol=1e-8)


def test_zz_spmv_report(benchmark, capsys):
    register_report(benchmark)
    keys = [k for k in KEYS if k in _SECONDS.get("CSR", {})]
    with capsys.disabled():
        print()
        print(
            format_relative_table(
                keys,
                {f: _SECONDS.get(f, {}) for f in ["CSR", "ELL", "BCSR3x3", "dense", "ATMV"]},
                baseline="CSR",
                title="SpMV format comparison, relative to CSR (higher = faster)",
            )
        )
        rows = [
            [
                key,
                f"{_STATS.get(key, {}).get('ell_padding', 0.0):.1%}",
                f"{_STATS.get(key, {}).get('bcsr_fill', 1.0):.2f}",
            ]
            for key in keys
        ]
        print()
        print(
            format_table(
                ["matrix", "ELL padding", "BCSR fill ratio"],
                rows,
                title="format overheads explaining the timings",
            )
        )
        print(
            "paper motivation: CSR best-or-close across topologies (Vuduc), "
            "supporting CSR as the sparse tile format"
        )
