"""End-to-end resilience tests for ATMULT and parallel ATMULT.

These encode the acceptance criteria of the resilience work: with a
seeded plan injecting transient kernel failures into >= 10% of the tile
products, the resilient run must converge to exactly the fault-free
sequential result, and the failure report's accounting equation

    raising faults injected == retries + degradations + failures

must hold.
"""

import numpy as np
import pytest

from repro import COOMatrix, MultiplyOptions, SystemConfig, build_at_matrix
from repro.core.atmult import atmult
from repro.core.parallel import parallel_atmult
from repro.errors import RetryExhaustedError, TaskFailedError
from repro.resilience import (
    FaultKind,
    FaultPlan,
    RetryPolicy,
    inject_faults,
)
from repro.topology.system import SystemTopology

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
TOPOLOGY = SystemTopology(sockets=4, cores_per_socket=1)
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_seconds=0.0)
RESILIENT = MultiplyOptions(config=CONFIG, resilience=FAST_RETRIES)


@pytest.fixture(scope="module")
def operands():
    """Heterogeneous operands: a dense corner embedded in a sparse sea."""
    rng = np.random.default_rng(12345)
    arr = np.where(rng.random((90, 70)) < 0.08, rng.random((90, 70)), 0.0)
    arr[:24, :24] = rng.random((24, 24))
    brr = np.where(rng.random((70, 80)) < 0.08, rng.random((70, 80)), 0.0)
    a = build_at_matrix(COOMatrix.from_dense(arr), CONFIG)
    b = build_at_matrix(COOMatrix.from_dense(brr), CONFIG)
    return a, b


@pytest.fixture(scope="module")
def square_operand():
    rng = np.random.default_rng(12345)
    arr = np.where(rng.random((80, 80)) < 0.01, rng.random((80, 80)), 0.0)
    arr[:26, :26] = rng.random((26, 26))
    return build_at_matrix(COOMatrix.from_dense(arr), CONFIG)


@pytest.fixture(scope="module")
def clean_result(operands):
    a, b = operands
    result, _ = atmult(a, b, config=CONFIG)
    return result.to_dense()


class TestAcceptanceCriterion:
    def test_retries_converge_bit_for_bit(self, operands, clean_result):
        """Seed 2 injects ~17% transient kernel failures; the resilient
        parallel run must still match fault-free sequential exactly."""
        a, b = operands
        plan = FaultPlan(2, kernel_error_rate=0.12)
        with inject_faults(plan):
            result, report = parallel_atmult(
                a, b, topology=TOPOLOGY, options=RESILIENT
            )
        injected = plan.count(FaultKind.KERNEL_ERROR)
        assert injected >= 0.10 * report.products  # >= 10% of tile products
        assert np.array_equal(result.to_dense(), clean_result)
        failure = report.failure
        assert failure.failures == 0
        assert injected == failure.retries + failure.degradations + failure.failures

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_accounting_equation_across_seeds(self, operands, clean_result, seed):
        a, b = operands
        plan = FaultPlan(seed, kernel_error_rate=0.12)
        with inject_faults(plan):
            result, report = parallel_atmult(
                a, b, topology=TOPOLOGY, options=RESILIENT
            )
        failure = report.failure
        assert plan.raising_count == (
            failure.retries + failure.degradations + failure.failures
        )
        assert np.array_equal(result.to_dense(), clean_result)

    def test_sequential_atmult_resilience(self, operands, clean_result):
        a, b = operands
        plan = FaultPlan(2, kernel_error_rate=0.12)
        with inject_faults(plan):
            result, report = atmult(a, b, options=RESILIENT)
        assert np.array_equal(result.to_dense(), clean_result)
        assert report.failure.retries == plan.raising_count


class TestExhaustion:
    def test_sequential_raises_with_pair_coordinates(self, operands):
        a, b = operands
        plan = FaultPlan(0, kernel_error_rate=1.0)
        with inject_faults(plan), pytest.raises(RetryExhaustedError) as excinfo:
            atmult(a, b, options=RESILIENT)
        pair = excinfo.value.pair
        assert isinstance(pair, tuple) and len(pair) == 2
        assert excinfo.value.attempts == FAST_RETRIES.max_attempts

    def test_parallel_aggregates_failures(self, operands):
        a, b = operands
        plan = FaultPlan(0, kernel_error_rate=1.0)
        with inject_faults(plan), pytest.raises(TaskFailedError) as excinfo:
            parallel_atmult(
                a, b, topology=TOPOLOGY, options=RESILIENT
            )
        error = excinfo.value
        assert error.pair_errors
        assert all(
            isinstance(e, RetryExhaustedError) for _, e in error.pair_errors
        )
        assert error.report is not None
        assert error.report.failure.failures == len(error.pair_errors)


class TestPartialFailureWithoutResilience:
    """Satellite 1: per-pair errors aggregate even with no policy."""

    def test_aggregated_error_and_preserved_stats(self, operands):
        a, b = operands
        plan = FaultPlan(2, kernel_error_rate=0.12)
        with inject_faults(plan), pytest.raises(TaskFailedError) as excinfo:
            parallel_atmult(a, b, topology=TOPOLOGY, config=CONFIG)
        error = excinfo.value
        assert len(error.pair_errors) == plan.raising_count
        # busy-time statistics for healthy pairs are not lost
        report = error.report
        assert report is not None
        assert sum(report.worker_busy_seconds.values()) > 0.0
        assert report.products > 0

    def test_clean_run_unaffected(self, operands, clean_result):
        a, b = operands
        result, report = parallel_atmult(a, b, topology=TOPOLOGY, config=CONFIG)
        assert np.array_equal(result.to_dense(), clean_result)
        assert report.failure.clean


class TestMemoryPressureDegradation:
    def test_degradation_respects_memory_limit(self, square_operand):
        a = square_operand
        topo = SystemTopology(sockets=2, cores_per_socket=1)
        unlimited, _ = parallel_atmult(a, a, topology=topo, config=CONFIG)
        limit = unlimited.to_csr().memory_bytes() * 1.05
        for seed in (0, 1, 2):
            plan = FaultPlan(seed, memory_pressure_rate=0.05)
            with inject_faults(plan):
                result, report = parallel_atmult(
                    a,
                    a,
                    topology=topo,
                    options=RESILIENT.replace(memory_limit_bytes=limit),
                )
            assert result.memory_bytes() <= limit
            assert np.allclose(
                result.to_dense(), unlimited.to_dense(), atol=1e-10
            )
            # Real over-budget checks may degrade too, so >= not ==.
            assert report.failure.degradations >= plan.count(
                FaultKind.MEMORY_PRESSURE
            )


class TestCorruptionGuard:
    def test_corrupted_tiles_fall_back_to_reference(self, square_operand):
        a = square_operand
        topo = SystemTopology(sockets=2, cores_per_socket=1)
        clean, _ = atmult(a, a, config=CONFIG)
        plan = FaultPlan(3, corruption_rate=0.04)
        with inject_faults(plan):
            result, report = parallel_atmult(
                a, a, topology=topo, options=RESILIENT
            )
        assert np.isfinite(result.to_dense()).all()
        assert np.array_equal(result.to_dense(), clean.to_dense())
        if plan.count(FaultKind.CORRUPTION):
            assert report.failure.fallbacks > 0
