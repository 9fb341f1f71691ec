"""Tests for the ATMULT operator (paper Alg. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    COOMatrix,
    CostModel,
    MultiplyOptions,
    Session,
    SystemConfig,
    atmult,
    build_at_matrix,
)
from repro.core.operands import as_at_matrix, operand_density_map
from repro.errors import MemoryLimitError, ShapeError
from repro.kinds import StorageKind

from ..conftest import as_csr, as_dense, heterogeneous_array, random_sparse_array


@pytest.fixture
def workload(rng, small_config):
    a = heterogeneous_array(rng, 90, 70)
    b = heterogeneous_array(rng, 70, 85)
    at_a = build_at_matrix(COOMatrix.from_dense(a), small_config)
    at_b = build_at_matrix(COOMatrix.from_dense(b), small_config)
    return a, b, at_a, at_b


class TestCorrectness:
    def test_at_times_at(self, workload, small_config):
        a, b, at_a, at_b = workload
        result, report = atmult(at_a, at_b, config=small_config)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert report.total_seconds > 0

    def test_every_operand_combination(self, workload, small_config):
        a, b, at_a, at_b = workload
        operands_a = {"at": at_a, "csr": as_csr(a), "dense": as_dense(a)}
        operands_b = {"at": at_b, "csr": as_csr(b), "dense": as_dense(b)}
        for ka, op_a in operands_a.items():
            for kb, op_b in operands_b.items():
                result, _ = atmult(op_a, op_b, config=small_config)
                np.testing.assert_allclose(
                    result.to_dense(), a @ b, atol=1e-10,
                    err_msg=f"A={ka}, B={kb}",
                )

    def test_c_accumulation(self, workload, small_config):
        a, b, at_a, at_b = workload
        first, _ = atmult(at_a, at_b, config=small_config)
        second, _ = atmult(at_a, at_b, c=first, config=small_config)
        np.testing.assert_allclose(second.to_dense(), 2 * (a @ b), atol=1e-9)

    def test_c_seeds_scattered_dense_targets(self, rng, small_config):
        # sp x sp products into dense targets count one accumulator write
        # per partial product; a C-seeded region must still be kept where
        # no product lands (rows 32:48 of A are empty).
        a = random_sparse_array(rng, 64, 64, 0.1)
        a[32:48] = 0.0
        c = rng.uniform(0.1, 1.0, size=(64, 64))
        at_a = build_at_matrix(COOMatrix.from_dense(a), small_config)
        at_c = build_at_matrix(COOMatrix.from_dense(c), small_config)
        result, report = atmult(at_a, at_a, c=at_c, config=small_config)
        assert report.kernel_counts.get("spspd_gemm", 0) > 0
        np.testing.assert_allclose(result.to_dense(), c + a @ a, atol=1e-10)

    def test_c_shape_checked(self, workload, small_config):
        _, _, at_a, at_b = workload
        with pytest.raises(ShapeError):
            atmult(at_a, at_b, c=at_a, config=small_config)

    def test_inner_dims_checked(self, workload, small_config):
        _, _, at_a, _ = workload
        with pytest.raises(ShapeError):
            atmult(at_a, at_a, config=small_config)

    def test_empty_operand(self, small_config):
        empty = build_at_matrix(COOMatrix.empty(48, 48), small_config)
        result, _ = atmult(empty, empty, config=small_config)
        assert result.nnz == 0

    def test_multiply_wrapper(self, workload, small_config):
        a, b, at_a, at_b = workload
        result, report = Session(config=small_config).multiply(at_a, at_b)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert report.total_seconds >= 0


class TestReport:
    def test_phases_accounted(self, workload, small_config):
        _, _, at_a, at_b = workload
        _, report = atmult(at_a, at_b, config=small_config)
        assert report.phase_seconds["estimate"] > 0
        assert report.phase_seconds["multiply"] > 0
        assert 0 <= report.estimate_fraction < 1
        assert 0 <= report.optimize_fraction < 1
        assert report.kernel_counts
        assert sum(report.kernel_counts.values()) == len(report.tasks)

    def test_estimation_disabled(self, workload, small_config):
        _, _, at_a, at_b = workload
        _, report = atmult(
            at_a,
            at_b,
            options=MultiplyOptions(config=small_config, use_estimation=False),
        )
        assert report.phase("estimate") == 0.0
        assert report.water_level is None
        # Without estimation every target tile is sparse.
        assert all(name.endswith("sp_gemm") for name in report.kernel_counts)

    def test_dynamic_conversion_disabled(self, workload, small_config):
        a, b, at_a, at_b = workload
        result, report = atmult(
            at_a,
            at_b,
            options=MultiplyOptions(config=small_config, dynamic_conversion=False),
        )
        assert report.conversions == 0
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)


class TestMemoryLimit:
    def test_generous_limit_keeps_result_exact(self, workload, small_config):
        a, b, at_a, at_b = workload
        unlimited, _ = atmult(at_a, at_b, config=small_config)
        limit = unlimited.memory_bytes() * 2.0
        result, report = atmult(
            at_a,
            at_b,
            options=MultiplyOptions(config=small_config, memory_limit_bytes=limit),
        )
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert report.water_level is not None

    def test_tight_limit_produces_sparser_layout(self, workload, small_config):
        a, b, at_a, at_b = workload
        unlimited, _ = atmult(at_a, at_b, config=small_config)
        # Force the all-sparse layout: limit just above the sparse size.
        sparse_size = unlimited.to_csr().memory_bytes()
        result, report = atmult(
            at_a,
            at_b,
            options=MultiplyOptions(
                config=small_config, memory_limit_bytes=sparse_size * 1.05
            ),
        )
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert result.memory_bytes() <= sparse_size * 1.05
        assert report.write_threshold >= CostModel().write_threshold

    def test_impossible_limit_raises(self, workload, small_config):
        _, _, at_a, at_b = workload
        with pytest.raises(MemoryLimitError):
            atmult(
                at_a,
                at_b,
                options=MultiplyOptions(config=small_config, memory_limit_bytes=16.0),
            )

    def test_limit_is_a_hard_guarantee(self, workload, small_config):
        """Even when the density estimate is off, the repair pass holds
        the SLA exactly (not just in estimation)."""
        a, b, at_a, at_b = workload
        unlimited, _ = atmult(at_a, at_b, config=small_config)
        sparse_floor = unlimited.to_csr().memory_bytes()
        for slack in (1.01, 1.2, 1.5):
            limit = sparse_floor * slack
            result, _ = atmult(
                at_a,
                at_b,
                options=MultiplyOptions(config=small_config, memory_limit_bytes=limit),
            )
            assert result.memory_bytes() <= limit
            np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)

    def test_enforce_memory_limit_demotes_sparsest_first(self, workload, small_config):
        from repro.engine.executor import enforce_memory_limit

        _, _, at_a, at_b = workload
        result, _ = atmult(at_a, at_b, config=small_config)
        dense_tiles = [t for t in result.tiles if t.kind is StorageKind.DENSE]
        if not dense_tiles:
            pytest.skip("workload produced no dense result tiles")
        target = result.to_csr().memory_bytes() * 1.05
        demoted = enforce_memory_limit(result, target)
        assert demoted > 0
        assert result.memory_bytes() <= target


class TestOperandHelpers:
    def test_as_at_matrix_wraps_plain(self, rng, small_config):
        array = random_sparse_array(rng, 40, 40, 0.2)
        wrapped = as_at_matrix(as_csr(array), small_config)
        assert wrapped.num_tiles() == 1
        assert wrapped.tiles[0].kind is StorageKind.SPARSE
        np.testing.assert_allclose(wrapped.to_dense(), array)

    def test_as_at_matrix_identity_for_at(self, workload, small_config):
        _, _, at_a, _ = workload
        assert as_at_matrix(at_a, small_config) is at_a

    def test_operand_density_map_consistent(self, rng, small_config):
        array = random_sparse_array(rng, 48, 48, 0.2)
        at = build_at_matrix(COOMatrix.from_dense(array), small_config)
        for operand in (at, as_csr(array), as_dense(array)):
            dm = operand_density_map(operand, small_config)
            assert dm.estimated_nnz() == pytest.approx(np.count_nonzero(array))


class TestMixedGranularity:
    @pytest.mark.parametrize("blocks", [(16, 32, 16), (32, 16, 16), (16, 16, 32)])
    def test_operands_with_different_b_atomic(self, rng, blocks):
        """Operands partitioned under different configs still multiply."""
        block_a, block_b, block_mult = blocks
        array = random_sparse_array(rng, 100, 100, 0.1)
        a = build_at_matrix(
            COOMatrix.from_dense(array),
            SystemConfig(llc_bytes=8 * 1024, b_atomic=block_a),
        )
        b = build_at_matrix(
            COOMatrix.from_dense(array),
            SystemConfig(llc_bytes=8 * 1024, b_atomic=block_b),
        )
        result, _ = atmult(
            a, b, config=SystemConfig(llc_bytes=8 * 1024, b_atomic=block_mult)
        )
        np.testing.assert_allclose(result.to_dense(), array @ array, atol=1e-9)


class TestAtmultProperties:
    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_matches_numpy_on_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        m = int(rng.integers(2, 80))
        k = int(rng.integers(2, 80))
        n = int(rng.integers(2, 80))
        a = random_sparse_array(rng, m, k, float(rng.uniform(0.0, 0.5)))
        b = random_sparse_array(rng, k, n, float(rng.uniform(0.0, 0.5)))
        at_a = build_at_matrix(COOMatrix.from_dense(a), config)
        at_b = build_at_matrix(COOMatrix.from_dense(b), config)
        result, _ = atmult(at_a, at_b, config=config)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-9)
