"""End-to-end integration tests: suite matrices through the full pipeline."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    COOMatrix,
    CostModel,
    MultiplyOptions,
    SystemConfig,
    SystemTopology,
    WorkerTeamScheduler,
    atmult,
    build_at_matrix,
    distribute_tile_rows,
)
from repro.core.builder import ATMatrixBuilder
from repro.formats import coo_to_csr
from repro.generate import load_matrix
from repro.kernels import spspsp_gemm

# The scaled benchmark configuration (384 KiB LLC -> b_atomic = 128).
CONFIG = SystemConfig()

# Small/medium representatives of every topology family in Table I.
FAST_KEYS = ["R1", "R2", "R3", "R7", "G1", "G5", "G9"]


def scipy_oracle(coo: COOMatrix) -> sp.csr_matrix:
    return sp.csr_matrix(
        (coo.values, (coo.row_ids, coo.col_ids)), shape=coo.shape
    )


@pytest.mark.parametrize("key", FAST_KEYS)
def test_self_multiplication_matches_scipy(key):
    staged = load_matrix(key)
    oracle = (scipy_oracle(staged) @ scipy_oracle(staged)).tocsr()
    oracle.sum_duplicates()

    at = build_at_matrix(staged, CONFIG)
    result, report = atmult(at, at, config=CONFIG)
    got = result.to_csr()

    assert got.nnz == oracle.nnz
    got_sp = sp.csr_matrix(
        (got.values, got.indices, got.indptr), shape=got.shape
    )
    delta = (got_sp - oracle)
    assert abs(delta).max() < 1e-8
    assert report.total_seconds > 0


@pytest.mark.parametrize("key", ["R3", "G1"])
def test_partitioning_is_lossless_on_suite(key):
    staged = load_matrix(key)
    at, report = ATMatrixBuilder(CONFIG).build_with_report(staged)
    assert at.nnz == staged.sum_duplicates().nnz
    back = at.to_coo().sum_duplicates()
    assert back == staged.sum_duplicates()
    assert report.tiles == len(at.tiles)


def test_mixed_sparse_dense_multiplication_on_suite():
    staged = load_matrix("R1")
    at = build_at_matrix(staged, CONFIG)
    rng = np.random.default_rng(0)
    k = staged.cols
    dense_cols = 64
    dense = COOMatrix.from_dense(rng.random((k, dense_cols)))
    result, _ = atmult(at, coo_to_csr(dense), config=CONFIG)
    expected = staged.to_dense() @ dense.to_dense()
    np.testing.assert_allclose(result.to_dense(), expected, rtol=1e-9, atol=1e-9)


def test_at_matrix_beats_baseline_on_power_network():
    """The paper's headline case: R3 has dense diagonal blocks (Fig. 8a)."""
    import time

    staged = load_matrix("R3")
    csr = coo_to_csr(staged)
    start = time.perf_counter()
    spspsp_gemm(csr, csr)
    baseline = time.perf_counter() - start

    at = build_at_matrix(staged, CONFIG)
    start = time.perf_counter()
    atmult(at, at, config=CONFIG)
    tiled = time.perf_counter() - start
    assert tiled < baseline  # ATMULT must win on the dense-block topology


def test_memory_limited_pipeline():
    staged = load_matrix("R1")
    at = build_at_matrix(staged, CONFIG)
    unlimited, _ = atmult(at, at, config=CONFIG)
    limit = unlimited.to_csr().memory_bytes() * 1.2
    bounded, report = atmult(
        at, at, options=MultiplyOptions(config=CONFIG, memory_limit_bytes=limit)
    )
    assert bounded.memory_bytes() <= limit
    assert report.water_level is not None
    assert bounded.to_csr().nnz == unlimited.to_csr().nnz


def test_numa_schedule_from_real_run():
    """ATMULT task records replay through the topology simulator."""
    staged = load_matrix("R2")
    topo = SystemTopology(sockets=2, cores_per_socket=2)
    at = distribute_tile_rows(build_at_matrix(staged, CONFIG), topo)
    _, report = atmult(at, at, config=CONFIG)
    schedule = WorkerTeamScheduler(topo).run(report.tasks)
    assert schedule.tasks == len(report.tasks)
    assert schedule.makespan_seconds > 0
    assert 0 < schedule.parallel_efficiency <= 1.0


def test_cost_model_thresholds_consistent_with_config():
    model = CostModel()
    assert model.read_threshold == 0.25  # the paper's configured rho0_R
    turnaround = model.solve_write_turnaround(
        CONFIG.b_atomic, CONFIG.b_atomic, CONFIG.b_atomic, 0.05, 0.05
    )
    # The write threshold approximates the turnaround's order of magnitude.
    assert turnaround < model.read_threshold
