"""Tests for ATMV, its matvec operator and power iteration."""

import functools
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import COOMatrix, SystemConfig, atmv, atmv_transposed, build_at_matrix, power_iteration
from repro.core.atmatrix import ATMatrix
from repro.core.atmv import MatvecOperator
from repro.core.tile import Tile
from repro.errors import ShapeError
from repro.formats.csr import CSRMatrix
from repro.generate.synthetic import banded_matrix, power_network_matrix
from repro.kernels.spmv import csr_spmv, dense_spmv
from repro.kinds import StorageKind
from repro.solve import conjugate_gradient, jacobi, richardson

from ..conftest import as_csr, as_dense, heterogeneous_array, random_sparse_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
# ``repro.core`` re-exports the ``atmv`` function under the module's name.
atmv_module = importlib.import_module("repro.core.atmv")
solve_module = importlib.import_module("repro.solve")


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


def reference_atmv(matrix, vector):
    """The tile-by-tile loop the operator replaced: the bitwise oracle."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    out = np.zeros(matrix.rows, dtype=np.float64)
    for tile in matrix.tiles:
        segment = vector[tile.col0 : tile.col1]
        if isinstance(tile.data, CSRMatrix):
            out[tile.row0 : tile.row1] += csr_spmv(tile.data, segment)
        else:
            out[tile.row0 : tile.row1] += dense_spmv(tile.data, segment)
    return out


def reference_operator(matrix):
    return functools.partial(reference_atmv, matrix)


def tiled(rows, cols, placed):
    """An AT Matrix from explicit ``(row0, col0, array, kind)`` tiles."""
    tiles = []
    for row0, col0, array, kind in placed:
        payload = as_csr(array) if kind is StorageKind.SPARSE else as_dense(array)
        tiles.append(Tile(row0, col0, *array.shape, kind, payload))
    return ATMatrix(rows, cols, CONFIG, tiles)


def assert_parity(at, x):
    got = atmv(at, x)
    assert np.array_equal(got, reference_atmv(at, x))
    np.testing.assert_allclose(got, at.to_dense() @ x, atol=1e-9)


def spd_system(coo):
    """``(M + M^T) / 2`` plus a diagonal of absolute row sums + 1, as COO."""
    rows = np.concatenate([coo.row_ids, coo.col_ids])
    cols = np.concatenate([coo.col_ids, coo.row_ids])
    values = np.concatenate([coo.values, coo.values]) * 0.5
    diagonal = np.bincount(rows, weights=np.abs(values), minlength=coo.rows) + 1.0
    ids = np.arange(coo.rows)
    return COOMatrix(
        coo.rows, coo.cols,
        np.concatenate([rows, ids]), np.concatenate([cols, ids]),
        np.concatenate([values, diagonal]),
    )


#: The two solve systems of the plan-replay benchmark workload.
SYSTEMS = {
    "banded": lambda: banded_matrix(2048, 24_000, bandwidth=32, seed=3),
    "power": lambda: power_network_matrix(
        1024, block_size=64, num_blocks=12, block_fill=0.85,
        background_density=0.002, seed=3,
    ),
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def system(request):
    """``(at, rhs, omega)``; ``omega`` keeps Richardson inside its stability bound."""
    coo = spd_system(SYSTEMS[request.param]())
    at = build_at_matrix(coo, SystemConfig())
    rhs = np.random.default_rng(3).uniform(-1.0, 1.0, size=at.rows)
    row_sums = np.bincount(coo.row_ids, weights=np.abs(coo.values), minlength=coo.rows)
    return at, rhs, 1.0 / float(row_sums.max())


class TestAtmv:
    def test_matches_numpy(self, rng):
        array = heterogeneous_array(rng, 90, 70)
        x = rng.random(70)
        np.testing.assert_allclose(atmv(build(array), x), array @ x, atol=1e-10)

    def test_transposed_matches_numpy(self, rng):
        array = heterogeneous_array(rng, 90, 70)
        x = rng.random(90)
        np.testing.assert_allclose(
            atmv_transposed(build(array), x), array.T @ x, atol=1e-10
        )

    def test_empty_matrix(self):
        at = build(np.zeros((32, 24)))
        assert np.array_equal(atmv(at, np.ones(24)), np.zeros(32))
        assert np.array_equal(atmv_transposed(at, np.ones(32)), np.zeros(24))

    def test_length_checked(self, rng):
        at = build(random_sparse_array(rng, 16, 16, 0.3))
        with pytest.raises(ShapeError):
            atmv(at, np.ones(15))
        with pytest.raises(ShapeError):
            atmv_transposed(at, np.ones(15))

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_matches_numpy_property(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 80))
        cols = int(rng.integers(2, 80))
        array = random_sparse_array(rng, rows, cols, float(rng.uniform(0, 0.5)))
        x = rng.random(cols)
        np.testing.assert_allclose(atmv(build(array), x), array @ x, atol=1e-9)


class TestOperatorParity:
    """The operator is bitwise equal to the tile-by-tile loop."""

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_tile_loop(self, seed, dense_block):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 120))
        cols = int(rng.integers(1, 120))
        if dense_block:
            array = heterogeneous_array(rng, rows, cols, background=float(rng.uniform(0, 0.3)))
        else:
            array = random_sparse_array(rng, rows, cols, float(rng.uniform(0, 0.5)))
        array[rng.random(array.shape) < 0.5] *= -1.0
        assert_parity(build(array), rng.uniform(-1.0, 1.0, size=cols))

    def test_only_empty_csr_tiles(self):
        empty = np.zeros((16, 16))
        at = tiled(32, 32, [(0, 0, empty, StorageKind.SPARSE),
                            (16, 16, empty, StorageKind.SPARSE)])
        assert np.array_equal(atmv(at, np.ones(32)), np.zeros(32))

    def test_all_dense(self, rng):
        at = build(rng.uniform(-1.0, 1.0, size=(70, 50)))
        assert at.num_tiles(StorageKind.SPARSE) == 0
        assert_parity(at, rng.uniform(-1.0, 1.0, size=50))

    def test_all_sparse(self, rng):
        at = build(random_sparse_array(rng, 90, 110, 0.05))
        assert at.num_tiles(StorageKind.DENSE) == 0
        assert at.num_tiles() > 1
        assert_parity(at, rng.uniform(-1.0, 1.0, size=110))

    def test_empty_csr_tiles_between_filled_ones(self, rng):
        filled = random_sparse_array(rng, 16, 16, 0.3)
        at = tiled(32, 48, [
            (0, 0, filled, StorageKind.SPARSE),
            (0, 16, np.zeros((16, 16)), StorageKind.SPARSE),
            (0, 32, rng.random((16, 16)), StorageKind.DENSE),
            (16, 0, np.zeros((16, 16)), StorageKind.SPARSE),
            (16, 16, filled, StorageKind.SPARSE),
        ])
        assert_parity(at, rng.uniform(-1.0, 1.0, size=48))

    def test_dense_tile_between_sparse_tiles_of_one_row_band(self, rng):
        sparse = random_sparse_array(rng, 16, 16, 0.4)
        at = tiled(16, 48, [
            (0, 0, sparse, StorageKind.SPARSE),
            (0, 16, rng.uniform(-1.0, 1.0, size=(16, 16)), StorageKind.DENSE),
            (0, 32, sparse, StorageKind.SPARSE),
        ])
        assert_parity(at, rng.uniform(-1.0, 1.0, size=48))

    def test_trailing_empty_rows(self, rng):
        upper = random_sparse_array(rng, 16, 16, 0.4)
        upper[10:] = 0.0
        at = tiled(40, 16, [(0, 0, upper, StorageKind.SPARSE)])
        got = atmv(at, np.ones(16))
        assert len(got) == 40
        assert_parity(at, rng.uniform(-1.0, 1.0, size=16))

    def test_non_square_and_one_row_tiles(self, rng):
        at = tiled(21, 19, [
            (0, 0, random_sparse_array(rng, 1, 19, 0.6), StorageKind.SPARSE),
            (1, 0, random_sparse_array(rng, 16, 3, 0.5), StorageKind.SPARSE),
            (1, 3, rng.random((16, 16)), StorageKind.DENSE),
            (17, 0, random_sparse_array(rng, 3, 19, 0.3), StorageKind.SPARSE),
            (20, 0, rng.random((1, 19)), StorageKind.DENSE),
        ])
        assert_parity(at, rng.uniform(-1.0, 1.0, size=19))

    def test_operator_reused_across_vectors(self, rng):
        at = build(heterogeneous_array(rng, 90, 70))
        apply = MatvecOperator(at)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, size=70)
            assert np.array_equal(apply(x), reference_atmv(at, x))

    def test_kernel_hook_fires_once_per_tile_in_tile_order(self, rng, monkeypatch):
        at = build(heterogeneous_array(rng, 90, 70))
        sites = []
        monkeypatch.setattr(
            atmv_module, "fire_hooks", lambda site, extra: sites.append((site, extra))
        )
        atmv(at, np.ones(70))
        assert sites == [("kernel", (tile.row0, tile.col0)) for tile in at.tiles]
        assert len(sites) == len(at.tiles) > 1


class TestSolverParity:
    """Solvers on the operator match the same solvers on the tile loop."""

    @pytest.mark.parametrize("solver", ["cg", "jacobi", "richardson"])
    def test_solution_bit_identical(self, system, solver, monkeypatch):
        at, rhs, omega = system
        run = {
            "cg": lambda: conjugate_gradient(at, rhs, tolerance=1e-8),
            "jacobi": lambda: jacobi(at, rhs, max_iterations=40),
            "richardson": lambda: richardson(at, rhs, omega=omega, max_iterations=40),
        }[solver]
        got = run()
        monkeypatch.setattr(solve_module, "MatvecOperator", reference_operator)
        expected = run()
        assert got.iterations == expected.iterations
        assert got.residual_norm == expected.residual_norm
        assert np.array_equal(got.solution, expected.solution)
        if solver == "cg":
            assert got.converged

    def test_power_iteration_bit_identical(self, system, monkeypatch):
        at, _, _ = system
        got = power_iteration(at, max_iterations=30)
        monkeypatch.setattr(atmv_module, "MatvecOperator", reference_operator)
        expected = power_iteration(at, max_iterations=30)
        assert got.iterations == expected.iterations
        assert got.eigenvalue == expected.eigenvalue
        assert np.array_equal(got.eigenvector, expected.eigenvector)


class TestPowerIteration:
    def test_finds_dominant_eigenvalue(self, rng):
        # Symmetric matrix with a known dominant eigenvector structure.
        base = random_sparse_array(rng, 40, 40, 0.2)
        symmetric = (base + base.T) / 2
        at = build(symmetric)
        result = power_iteration(at, max_iterations=500, tolerance=1e-12)
        expected = np.max(np.abs(np.linalg.eigvalsh(symmetric)))
        assert result.converged
        assert abs(abs(result.eigenvalue) - expected) < 1e-6 * max(1.0, expected)

    def test_eigenvector_is_normalized_fixed_point(self, rng):
        base = random_sparse_array(rng, 30, 30, 0.3)
        symmetric = (base + base.T) / 2
        at = build(symmetric)
        result = power_iteration(at, max_iterations=500, tolerance=1e-12)
        assert np.linalg.norm(result.eigenvector) == pytest.approx(1.0)
        np.testing.assert_allclose(
            atmv(at, result.eigenvector),
            result.eigenvalue * result.eigenvector,
            atol=1e-4,
        )

    def test_zero_matrix_converges_immediately(self):
        at = build(np.zeros((8, 8)))
        result = power_iteration(at)
        assert result.converged
        assert result.eigenvalue == 0.0

    def test_requires_square_matrix(self, rng):
        at = build(random_sparse_array(rng, 8, 9, 0.5))
        with pytest.raises(ShapeError):
            power_iteration(at)

    def test_iteration_budget_respected(self, rng):
        base = random_sparse_array(rng, 20, 20, 0.4)
        at = build((base + base.T) / 2)
        result = power_iteration(at, max_iterations=2, tolerance=0.0)
        assert result.iterations == 2
        assert not result.converged
