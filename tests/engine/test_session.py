"""Session: plan reuse across iterative workloads, solver integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    COOMatrix,
    Session,
    SystemConfig,
    SystemTopology,
    atmult,
    build_at_matrix,
    conjugate_gradient,
    execute,
    jacobi,
    observe,
    parallel_atmult,
    plan,
    richardson,
)

from repro.errors import ConfigError

from ..conftest import as_csr


def spd_system(rng: np.random.Generator, n: int) -> np.ndarray:
    """A sparse strictly-diagonally-dominant SPD matrix."""
    mask = rng.random((n, n)) < 0.05
    base = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
    symmetric = (base + base.T) / 2.0
    np.fill_diagonal(symmetric, symmetric.sum(axis=1) + 1.0)
    return symmetric


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


class TestSessionBasics:
    def test_session_owns_a_cache(self, config):
        session = Session(config=config)
        assert session.plan_cache is not None
        assert session.cache_stats().entries == 0

    def test_multiply_through_session_reuses_plan(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        session = Session(config=config)
        first, _ = session.multiply(matrix, matrix)
        second, _ = session.multiply(matrix, matrix)
        assert np.array_equal(first.to_dense(), second.to_dense())
        stats = session.cache_stats()
        assert stats.misses == 1 and stats.hits == 1
        assert repr(session) == "Session(plans=1, hits=1, misses=1)"

    def test_matvec_matches_numpy(self, rng, config):
        array = spd_system(rng, 48)
        session = Session(config=config)
        x = rng.random(48)
        product = session.matvec(as_csr(array), x)
        np.testing.assert_allclose(product, array @ x, atol=1e-10)


class TestFrontDoorOperands:
    """Unsupported operand types fail with a typed error at the front door."""

    @pytest.mark.parametrize(
        "call",
        [
            "solve_coo",
            "matvec_coo",
            "multiply_coo",
            "chain_coo",
            "solve_ndarray",
            "matvec_ndarray",
            "multiply_ndarray",
            "plan_ndarray",
            "parallel_multiply_ndarray",
            "atmult_ndarray",
            "atmult_ndarray_c",
            "parallel_atmult_ndarray",
            "repro_plan_ndarray",
            "execute_ndarray_c",
        ],
    )
    def test_rejects_unsupported_operands(self, rng, config, call):
        array = spd_system(rng, 32)
        coo = COOMatrix.from_dense(array)
        at = build_at_matrix(coo, config)
        session = Session(config=config)
        vector = rng.random(32)
        topology = SystemTopology(sockets=2, cores_per_socket=1)
        calls = {
            "solve_coo": lambda: session.solve(coo, vector),
            "matvec_coo": lambda: session.matvec(coo, vector),
            "multiply_coo": lambda: session.multiply(coo, coo),
            "chain_coo": lambda: session.multiply_chain([coo, coo]),
            "solve_ndarray": lambda: session.solve(array, vector),
            "matvec_ndarray": lambda: session.matvec(array, vector),
            "multiply_ndarray": lambda: session.multiply(array, array),
            "plan_ndarray": lambda: session.plan(array, array),
            "parallel_multiply_ndarray": lambda: session.parallel_multiply(
                array, array, topology=topology
            ),
            "atmult_ndarray": lambda: atmult(array, at, config=config),
            # a C of the wrong shape is still rejected for its type first
            "atmult_ndarray_c": lambda: atmult(at, at, np.zeros((8, 8)), config=config),
            "parallel_atmult_ndarray": lambda: parallel_atmult(
                at, array, topology=topology, config=config
            ),
            "repro_plan_ndarray": lambda: plan(array, array, config=config),
            "execute_ndarray_c": lambda: execute(
                plan(at, at, config=config), at, at, np.zeros((8, 8)), config=config
            ),
        }
        with pytest.raises(
            ConfigError, match=r"ATMatrix \| CSRMatrix \| DenseMatrix"
        ):
            calls[call]()


class TestSolverPlanReuse:
    def test_cg_without_session_still_converges(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(64)
        outcome = conjugate_gradient(matrix, rhs, tolerance=1e-8)
        np.testing.assert_allclose(array @ outcome.solution, rhs, atol=1e-6)

    def test_session_and_plain_cg_agree(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(64)
        plain = conjugate_gradient(matrix, rhs, tolerance=1e-10)
        via_session = conjugate_gradient(
            matrix, rhs, tolerance=1e-10, session=Session(config=config)
        )
        assert np.array_equal(plain.solution, via_session.solution)

    def test_jacobi_and_richardson_accept_sessions(self, rng, config):
        array = spd_system(rng, 48)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(48)
        session = Session(config=config)
        jacobi_outcome = jacobi(matrix, rhs, session=session, tolerance=1e-8)
        assert jacobi_outcome.converged
        np.testing.assert_allclose(
            array @ jacobi_outcome.solution, rhs, atol=1e-5
        )
        richardson_outcome = richardson(
            matrix,
            rhs,
            session=session,
            omega=0.2,
            tolerance=1e-6,
            max_iterations=5000,
        )
        assert richardson_outcome.converged


class TestWrapHoisting:
    """Regression: solvers must wrap the operand once, not per iteration."""

    def test_cg_wraps_csr_operand_exactly_once(self, rng, config):
        array = spd_system(rng, 64)
        csr = as_csr(array)
        rhs = rng.random(64)
        with observe() as obs:
            outcome = conjugate_gradient(
                csr, rhs, tolerance=1e-8, session=Session(config=config)
            )
        assert outcome.converged and outcome.iterations >= 2
        # one wrap for the system matrix, regardless of iteration count
        assert obs.metrics.value("operand.wraps.sparse") == 1

    def test_plain_path_also_wraps_once(self, rng, config):
        array = spd_system(rng, 64)
        csr = as_csr(array)
        rhs = rng.random(64)
        with observe() as obs:
            outcome = conjugate_gradient(csr, rhs, tolerance=1e-8)
        assert outcome.converged and outcome.iterations >= 2
        assert obs.metrics.value("operand.wraps.sparse") == 1
