"""The plan/execute split: correctness, replayability, mismatch guards."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import (
    ATMatrix,
    COOMatrix,
    DenseMatrix,
    MultiplyOptions,
    PlanMismatchError,
    Session,
    StorageKind,
    SystemTopology,
    Tile,
    atmult,
    build_at_matrix,
    execute,
    parallel_atmult,
    plan,
    structure_fingerprint,
)
from repro.core import fixed_grid_at_matrix
from repro.formats import coo_to_csr
from repro.formats.csr import CSRMatrix
from repro.generate import banded_matrix
from repro.kernels import products

from ..conftest import as_csr, as_dense, heterogeneous_array, random_sparse_array


@pytest.fixture
def workload(rng, small_config):
    a = heterogeneous_array(rng, 90, 70, background=0.06)
    b = heterogeneous_array(rng, 70, 85, background=0.06)
    at_a = build_at_matrix(COOMatrix.from_dense(a), small_config)
    at_b = build_at_matrix(COOMatrix.from_dense(b), small_config)
    return a, b, at_a, at_b


class TestPlanStructure:
    def test_plan_captures_pairs_and_threshold(self, workload, small_config):
        _, _, at_a, at_b = workload
        execution_plan = plan(at_a, at_b, config=small_config)
        assert execution_plan.shape == (90, 85)
        assert execution_plan.pairs
        assert execution_plan.num_products >= len(execution_plan.pairs)
        assert execution_plan.write_threshold > 0
        # every planned pair carries its target geometry and kind choice
        for pair in execution_plan.pairs:
            assert 0 <= pair.r0 < pair.r1 <= 90
            assert 0 <= pair.c0 < pair.c1 <= 85

    def test_plan_is_deterministic(self, workload, small_config):
        _, _, at_a, at_b = workload
        first = plan(at_a, at_b, config=small_config)
        second = plan(at_a, at_b, config=small_config)
        assert first.a_fingerprint == second.a_fingerprint
        assert first.setup_key == second.setup_key
        assert [p.c_kind for p in first.pairs] == [p.c_kind for p in second.pairs]


class TestExecuteCorrectness:
    def test_execute_matches_atmult(self, workload, small_config):
        a, b, at_a, at_b = workload
        execution_plan = plan(at_a, at_b, config=small_config)
        planned, _ = execute(execution_plan, at_a, at_b, config=small_config)
        direct, _ = atmult(at_a, at_b, config=small_config)
        np.testing.assert_allclose(planned.to_dense(), a @ b, atol=1e-10)
        assert np.array_equal(planned.to_dense(), direct.to_dense())

    def test_execute_with_plain_operands(self, rng, small_config):
        a = random_sparse_array(rng, 64, 48, 0.15)
        b = random_sparse_array(rng, 48, 56, 0.4)
        csr_a, dense_b = as_csr(a), as_dense(b)
        execution_plan = plan(csr_a, dense_b, config=small_config)
        result, report = execute(execution_plan, csr_a, dense_b, config=small_config)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert sum(report.kernel_counts.values()) >= 1

    def test_execute_seeds_c(self, workload, rng, small_config):
        a, b, at_a, at_b = workload
        seed = random_sparse_array(rng, 90, 85, 0.1)
        execution_plan = plan(at_a, at_b, config=small_config)
        result, _ = execute(
            execution_plan, at_a, at_b, as_dense(seed), config=small_config
        )
        np.testing.assert_allclose(result.to_dense(), seed + a @ b, atol=1e-10)


class TestReplay:
    def test_replay_with_changed_values_same_pattern(self, rng, small_config):
        pattern = random_sparse_array(rng, 64, 64, 0.12)
        first = as_csr(pattern)
        # same nonzero pattern, new values
        rescaled = coo_to_csr(COOMatrix.from_dense(np.where(pattern != 0, pattern * 3.5, 0.0)))
        execution_plan = plan(first, first, config=small_config)
        result, _ = execute(execution_plan, rescaled, rescaled, config=small_config)
        dense = rescaled.to_dense()
        np.testing.assert_allclose(result.to_dense(), dense @ dense, atol=1e-10)

    def test_mismatched_topology_raises(self, rng, small_config):
        a = as_csr(random_sparse_array(rng, 64, 64, 0.12))
        other = as_csr(random_sparse_array(rng, 64, 64, 0.3))
        execution_plan = plan(a, a, config=small_config)
        with pytest.raises(PlanMismatchError):
            execute(execution_plan, other, other, config=small_config)

    def test_describe_and_histogram(self, workload, small_config):
        _, _, at_a, at_b = workload
        execution_plan = plan(at_a, at_b, config=small_config)
        text = execution_plan.describe()
        assert "pairs" in text
        histogram = execution_plan.kernel_histogram()
        assert sum(histogram.values()) == execution_plan.num_products


class TestAblationFlagsInPlan:
    def test_no_estimation_plan_is_all_sparse(self, workload, small_config):
        _, _, at_a, at_b = workload
        execution_plan = plan(
            at_a,
            at_b,
            options=MultiplyOptions(config=small_config, use_estimation=False),
        )
        assert execution_plan.use_estimation is False
        assert execution_plan.estimate is None
        assert np.isinf(execution_plan.write_threshold)


class TestJustInTimeConversions:
    """The executor converts a tile at most once per run, however many
    products read it, and leaves hypersparse tiles sparse."""

    def sparse_grid(self, array, small_config):
        # Every 16 x 16 cell becomes one CSR tile, whatever its density.
        return fixed_grid_at_matrix(COOMatrix.from_dense(array), small_config)

    @pytest.mark.parametrize("execution", ["sequential", "threads"])
    def test_one_conversion_per_tile(self, rng, small_config, execution):
        array = rng.uniform(0.5, 1.0, (64, 64))
        at = self.sparse_grid(array, small_config)
        options = MultiplyOptions(config=small_config)
        if execution == "sequential":
            result, report = atmult(at, at, options=options)
        else:
            result, report = parallel_atmult(
                at, at, topology=SystemTopology(sockets=4, cores_per_socket=1),
                options=options,
            )
        # 16 full tiles, each read by 8 of the 64 products: dense kernels
        # on converted copies, one conversion per tile.
        assert len(at.tiles) == 16
        assert report.kernel_counts == {"ddd_gemm": 64}
        assert report.conversions == len(at.tiles)
        np.testing.assert_allclose(result.to_dense(), array @ array, rtol=1e-12)

    def test_hypersparse_tiles_stay_sparse(self, small_config):
        array = np.zeros((64, 64))
        array[::16, ::16] = 1.0  # one entry per tile
        at = self.sparse_grid(array, small_config)
        result, report = atmult(at, at, config=small_config)
        assert report.conversions == 0
        assert all(name.startswith("spsp") for name in report.kernel_counts)
        np.testing.assert_array_equal(result.to_dense(), array @ array)


def integer_banded(n, nnz, bandwidth, seed):
    """A hypersparse band with small integer values, so sums are exact."""
    coo = banded_matrix(n, nnz, bandwidth=bandwidth, seed=seed)
    values = np.random.default_rng(seed).integers(1, 4, len(coo.values))
    array = np.zeros((n, n))
    array[coo.row_ids, coo.col_ids] = values
    return array


def unpruned_products(execution_plan, at_a, at_b):
    """Tile products of every pair whose A and B tiles share inner indices."""
    count = 0
    for pair in execution_plan.pairs:
        for a_index in pair.a_strip:
            a_tile = at_a.tiles[a_index]
            for b_index in pair.b_strip:
                b_tile = at_b.tiles[b_index]
                count += max(a_tile.col0, b_tile.row0) < min(a_tile.col1, b_tile.row1)
    return count


class TestStructuralPruning:
    """Tile products whose sparse operand window is empty are planned away."""

    @pytest.fixture
    def band(self, small_config):
        array = integer_banded(256, 1200, 6, seed=3)
        return array, build_at_matrix(COOMatrix.from_dense(array), small_config)

    def test_no_planned_sparse_window_is_empty(self, band, small_config):
        _, at = band
        execution_plan = plan(at, at, config=small_config)
        for pair in execution_plan.pairs:
            for product in pair.products:
                for tile, window in (
                    (at.tiles[product.a_index], product.wa),
                    (at.tiles[product.b_index], product.wb),
                ):
                    if tile.kind is StorageKind.SPARSE:
                        lo, hi = tile.data.window_ranges(
                            window.row0, window.row1, window.col0, window.col1
                        )
                        assert (hi - lo).sum() > 0

    def test_plan_has_fewer_products_than_enumeration(self, band, small_config):
        _, at = band
        execution_plan = plan(at, at, config=small_config)
        enumerated = unpruned_products(execution_plan, at, at)
        assert execution_plan.num_products < enumerated
        assert execution_plan.pruned_products == enumerated - execution_plan.num_products
        assert execution_plan.describe()["pruned_products"] == execution_plan.pruned_products

    def test_backends_bit_identical_and_exact(self, band, small_config):
        array, at = band
        topology = SystemTopology(sockets=2, cores_per_socket=1)
        sequential, _ = atmult(at, at, config=small_config)
        results = [sequential.to_dense()]
        for execution in ("threads", "processes"):
            result, _ = parallel_atmult(
                at, at, topology=topology,
                options=MultiplyOptions(
                    config=small_config, execution=execution,
                    heartbeat_interval_seconds=0.05,
                ),
            )
            results.append(result.to_dense())
        for result in results[1:]:
            assert result.tobytes() == results[0].tobytes()
        np.testing.assert_array_equal(results[0], array @ array)

    def test_zero_dense_tile_keeps_its_products(self, rng, small_config):
        # A dense tile's structural density is quantized to two decimals,
        # so an all-zero tile and one holding a single value share a
        # fingerprint; a plan built on the zero tile must still multiply it.
        sparse = (random_sparse_array(rng, 64, 64, 0.1) * 10).round()
        sparse[16:32, 16:32] = 0.0
        base = fixed_grid_at_matrix(COOMatrix.from_dense(sparse), small_config)
        b = as_csr((random_sparse_array(rng, 64, 64, 0.5) * 10).round())

        def with_dense_tile(block):
            tile = Tile(16, 16, 16, 16, StorageKind.DENSE, DenseMatrix(block))
            return ATMatrix(64, 64, small_config, [*base.tiles, tile])

        zero = with_dense_tile(np.zeros((16, 16)))
        filled_block = np.zeros((16, 16))
        filled_block[3, 5] = 2.0
        filled = with_dense_tile(filled_block)
        assert structure_fingerprint(filled) == structure_fingerprint(zero)

        dense_index = len(base.tiles)
        execution_plan = plan(zero, b, config=small_config)
        assert any(
            product.a_index == dense_index
            for pair in execution_plan.pairs for product in pair.products
        )

        session = Session(config=small_config)
        session.multiply(zero, b)
        result, _ = session.multiply(filled, b)
        assert session.cache_stats().hits == 1
        expected = sparse.copy()
        expected[16:32, 16:32] = filled_block
        np.testing.assert_array_equal(result.to_dense(), expected @ b.to_dense())


class TestPerRunWindowMemo:
    """Sparse windows are extracted once per run, and only within it."""

    def test_memo_is_dropped_with_the_run(self, monkeypatch, small_config):
        array = integer_banded(256, 1200, 6, seed=5)
        at = build_at_matrix(COOMatrix.from_dense(array), small_config)
        execution_plan = plan(at, at, config=small_config)
        extract = products._csr_window_triples
        calls = []

        def counting(matrix, window):
            calls.append(window)
            return extract(matrix, window)

        monkeypatch.setattr(products, "_csr_window_triples", counting)
        counts = []
        for _ in range(2):
            calls.clear()
            result, _ = execute(execution_plan, at, at, config=small_config)
            counts.append(len(calls))
            for tile in at.tiles:
                # Stored payloads are plain matrices: no memo survives.
                assert type(tile.data) in (CSRMatrix, DenseMatrix)
        np.testing.assert_array_equal(result.to_dense(), array @ array)

        # One extraction per distinct (tile, window) the kernels read as
        # triples: A of sparse x anything, B of dense x sparse.  A and B
        # are one matrix here, so they share the tiles' views.
        read = set()
        for pair in execution_plan.pairs:
            for product in pair.products:
                if product.kind_a is StorageKind.SPARSE:
                    read.add((product.a_index, product.wa))
                elif product.kind_b is StorageKind.SPARSE:
                    read.add((product.b_index, product.wb))
        assert counts == [len(read), len(read)]
        assert len(read) < execution_plan.num_products

    def test_threads_sharing_views_stay_bit_identical(self, small_config):
        # Worker threads fill one view's memo concurrently; a lost or
        # doubled fill may only cost time, never change a result bit.
        array = integer_banded(256, 1200, 6, seed=7)
        at = build_at_matrix(COOMatrix.from_dense(array), small_config)
        expected = atmult(at, at, config=small_config)[0].to_dense().tobytes()
        options = MultiplyOptions(config=small_config, workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                result, _ = parallel_atmult(
                    at, at, topology=SystemTopology(sockets=2, cores_per_socket=1),
                    options=options,
                )
                assert result.to_dense().tobytes() == expected
        finally:
            sys.setswitchinterval(interval)
