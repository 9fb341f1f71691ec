"""Cooperative cancellation and deadline propagation (resilience/cancel.py).

The contract under test: a tripped :class:`CancelToken` stops a
multiplication at the next tile-pair boundary, flushes the checkpoint
journal first, raises the typed cancellation error, and the interrupted
run resumes bit-identically from the journal.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import (
    CancelToken,
    CheckpointStore,
    COOMatrix,
    DeadlineExceededError,
    MultiplyOptions,
    OperationCancelledError,
    PlanCache,
    Session,
    atmult,
    build_at_matrix,
    multiply_chain,
    parallel_atmult,
)
from repro.solve import conjugate_gradient, jacobi, richardson
from repro.topology.system import SystemTopology

from ..conftest import heterogeneous_array


class CancelAfterPairs(CancelToken):
    """Deterministic test token: trips after N ``check()`` polls.

    The executors poll once per tile-pair, so ``CancelAfterPairs(n)``
    lets exactly ``n`` pairs run before the cancellation surfaces.
    """

    def __init__(self, pairs: int) -> None:
        super().__init__()
        self._budget = pairs

    def check(self) -> None:
        if self._budget <= 0:
            self.cancel("test budget exhausted")
        self._budget -= 1
        super().check()


@pytest.fixture
def workload(rng, small_config):
    a = heterogeneous_array(rng, 96, 72, background=0.06)
    b = heterogeneous_array(rng, 72, 88, background=0.06)
    at_a = build_at_matrix(COOMatrix.from_dense(a), small_config)
    at_b = build_at_matrix(COOMatrix.from_dense(b), small_config)
    return a, b, at_a, at_b


class TestCancelToken:
    def test_fresh_token_is_inert(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        assert token.remaining() is None
        token.check()  # must not raise

    def test_explicit_cancel_raises_with_reason(self):
        token = CancelToken()
        token.cancel("operator stop")
        assert token.cancelled
        assert token.reason == "operator stop"
        with pytest.raises(OperationCancelledError) as excinfo:
            token.check()
        assert excinfo.value.reason == "operator stop"
        assert "operator stop" in str(excinfo.value)

    def test_first_cancel_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_deadline_expiry_raises_deadline_error(self):
        token = CancelToken(deadline_seconds=0.005)
        assert not token.deadline_expired
        time.sleep(0.02)
        assert token.deadline_expired
        assert token.cancelled
        assert token.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_deadline_error_is_a_cancellation(self):
        # Callers may catch the base class to handle both uniformly.
        assert issubclass(DeadlineExceededError, OperationCancelledError)
        assert issubclass(OperationCancelledError, RuntimeError)

    def test_remaining_counts_down(self):
        token = CancelToken(deadline_seconds=60.0)
        remaining = token.remaining()
        assert remaining is not None and 0.0 < remaining <= 60.0

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ValueError):
            CancelToken(deadline_seconds=0.0)
        with pytest.raises(ValueError):
            CancelToken(deadline_seconds=-1.0)


class TestSequentialCancellation:
    def test_pre_cancelled_token_stops_before_any_pair(
        self, workload, small_config
    ):
        _, _, at_a, at_b = workload
        token = CancelToken()
        token.cancel("never started")
        with pytest.raises(OperationCancelledError):
            atmult(
                at_a, at_b, config=small_config,
                options=MultiplyOptions(cancel=token),
            )

    def test_cancel_stops_within_one_pair_and_flushes(
        self, workload, small_config, tmp_path
    ):
        """Exactly N pairs run, every one of them is journaled."""
        _, _, at_a, at_b = workload
        token = CancelAfterPairs(3)
        store = CheckpointStore(tmp_path, resume=False)
        with pytest.raises(OperationCancelledError):
            atmult(
                at_a, at_b, config=small_config,
                options=MultiplyOptions(checkpoint=store, cancel=token),
            )
        journaled = sorted(tmp_path.glob("pairs/pair-*.npz"))
        assert len(journaled) == 3  # flushed before the error unwound

    def test_cancelled_run_resumes_bit_identically(
        self, workload, small_config, tmp_path
    ):
        a, b, at_a, at_b = workload
        baseline, _ = atmult(at_a, at_b, config=small_config)
        with pytest.raises(OperationCancelledError):
            atmult(
                at_a, at_b, config=small_config,
                options=MultiplyOptions(
                    checkpoint=CheckpointStore(tmp_path, resume=False),
                    cancel=CancelAfterPairs(2),
                ),
            )
        resumed, report = atmult(
            at_a, at_b, config=small_config,
            options=MultiplyOptions(
                checkpoint=CheckpointStore(tmp_path, resume=True)
            ),
        )
        assert report.failure.pairs_resumed == 2
        assert np.array_equal(resumed.to_dense(), baseline.to_dense())
        np.testing.assert_allclose(resumed.to_dense(), a @ b, atol=1e-10)

    def test_deadline_token_surfaces_deadline_error(
        self, workload, small_config, tmp_path
    ):
        _, _, at_a, at_b = workload
        token = CancelToken(deadline_seconds=0.001)
        time.sleep(0.01)  # expire before the first pair boundary
        with pytest.raises(DeadlineExceededError):
            atmult(
                at_a, at_b, config=small_config,
                options=MultiplyOptions(
                    checkpoint=CheckpointStore(tmp_path, resume=False),
                    cancel=token,
                ),
            )


class TestThreadBackendCancellation:
    def test_cancel_is_not_a_pair_failure(self, workload, small_config, tmp_path):
        """The thread pool reports cancellation, not TaskFailedError."""
        a, b, at_a, at_b = workload
        token = CancelToken()
        token.cancel("stop the pool")
        topology = SystemTopology.scaled_default()
        with pytest.raises(OperationCancelledError):
            parallel_atmult(
                at_a, at_b, topology=topology,
                options=MultiplyOptions(
                    checkpoint=CheckpointStore(tmp_path, resume=False),
                    cancel=token,
                    execution="threads",
                ),
            )
        # Resume with a fresh token: completes and matches numpy.
        result, _ = parallel_atmult(
            at_a, at_b, topology=topology,
            options=MultiplyOptions(
                checkpoint=CheckpointStore(tmp_path, resume=True),
                execution="threads",
            ),
        )
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)


def spd_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """A sparse, strictly diagonally dominant SPD matrix."""
    mask = rng.random((n, n)) < 0.05
    base = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
    spd = (base + base.T) / 2.0
    np.fill_diagonal(spd, spd.sum(axis=1) + 1.0)
    return spd


class TestReplayCancellation:
    """Fused chain replays and solver iterations poll the token."""

    def test_warm_chain_replay_honours_a_tripped_token(self, rng, small_config):
        operands = [
            build_at_matrix(
                COOMatrix.from_dense(heterogeneous_array(rng, rows, cols)),
                small_config,
            )
            for rows, cols in ((64, 48), (48, 80), (80, 40))
        ]
        cached_opts = MultiplyOptions(config=small_config, plan_cache=PlanCache())
        multiply_chain(list(operands), options=cached_opts)
        _, warm = multiply_chain(list(operands), options=cached_opts)
        assert warm.plan_cache_hit  # the next call is a replay
        token = CancelToken()
        token.cancel("stop the replay")
        with pytest.raises(OperationCancelledError):
            multiply_chain(list(operands), options=cached_opts.replace(cancel=token))

    def test_pinned_cg_honours_a_tripped_token(self, rng, small_config):
        n = 64
        matrix = build_at_matrix(COOMatrix.from_dense(spd_array(rng, n)), small_config)
        rhs = rng.random(n)
        session = Session(config=small_config)
        assert session.solve(matrix, rhs).converged
        token = CancelToken()
        token.cancel("stop the solve")
        with pytest.raises(OperationCancelledError):
            conjugate_gradient(
                matrix, rhs, options=session.options.replace(cancel=token)
            )


class TestSolverDeadlines:
    """Every solver polls the token once per iteration."""

    @pytest.mark.parametrize("solver", [conjugate_gradient, jacobi, richardson])
    def test_deadline_expiring_mid_solve_raises(self, rng, small_config, solver):
        # Unbounded budget: without the per-iteration poll, CG runs ~270
        # iterations to an exact zero residual (8-10 ms on a 2-core Xeon
        # with the one-pass matvec operator) and the fixed points run a
        # million; the 2 ms deadline lapses long before either ends.
        n = 128
        matrix = build_at_matrix(COOMatrix.from_dense(spd_array(rng, n)), small_config)
        token = CancelToken(deadline_seconds=0.002)
        with pytest.raises(DeadlineExceededError):
            solver(
                matrix,
                rng.random(n),
                tolerance=0.0,
                max_iterations=1_000_000,
                options=MultiplyOptions(config=small_config, cancel=token),
            )
