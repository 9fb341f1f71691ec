"""Cross-cutting edge cases: degenerate shapes, fuzzed inputs, extremes."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemConfig,
    atmult,
    atmv,
    build_at_matrix,
    multiply_chain,
)
from repro.errors import ParseError
from repro.formats import matrix_market as mm
from repro.formats.convert import coo_to_csr

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


class TestDegenerateShapes:
    def test_one_by_one(self):
        staged = COOMatrix(1, 1, [0], [0], [3.0])
        at = build_at_matrix(staged, CONFIG)
        result, _ = atmult(at, at, config=CONFIG)
        assert result.to_dense()[0, 0] == 9.0

    def test_single_row_matrix(self, rng):
        row = np.zeros((1, 100))
        row[0, ::7] = rng.random(15)[: len(row[0, ::7])]
        at = build_at_matrix(COOMatrix.from_dense(row), CONFIG)
        col_at = build_at_matrix(COOMatrix.from_dense(row.T), CONFIG)
        outer, _ = atmult(col_at, at, config=CONFIG)  # (100x1) @ (1x100)
        np.testing.assert_allclose(outer.to_dense(), row.T @ row, atol=1e-12)
        inner, _ = atmult(at, col_at, config=CONFIG)  # (1x100) @ (100x1)
        np.testing.assert_allclose(inner.to_dense(), row @ row.T, atol=1e-12)

    def test_extreme_aspect_ratio(self, rng):
        tall = np.where(rng.random((200, 3)) < 0.3, 1.0, 0.0)
        wide = np.where(rng.random((3, 150)) < 0.3, 1.0, 0.0)
        a = build_at_matrix(COOMatrix.from_dense(tall), CONFIG)
        b = build_at_matrix(COOMatrix.from_dense(wide), CONFIG)
        result, _ = atmult(a, b, config=CONFIG)
        np.testing.assert_allclose(result.to_dense(), tall @ wide)

    def test_identity_chain(self, rng):
        n = 24
        eye = build_at_matrix(COOMatrix.from_dense(np.eye(n)), CONFIG)
        data = rng.random((n, n))
        at = build_at_matrix(COOMatrix.from_dense(data), CONFIG)
        result, _ = multiply_chain(
            [eye, at, eye], options=MultiplyOptions(config=CONFIG)
        )
        np.testing.assert_allclose(result.to_dense(), data, atol=1e-12)

    def test_atmv_single_column(self):
        staged = COOMatrix(5, 1, [0, 4], [0, 0], [2.0, 3.0])
        at = build_at_matrix(staged, CONFIG)
        np.testing.assert_allclose(atmv(at, [2.0]), [4.0, 0, 0, 0, 6.0])


class TestNumericalExtremes:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_tiny_and_huge_values_survive(self):
        staged = COOMatrix(2, 2, [0, 1], [0, 1], [1e-300, 1e300])
        at = build_at_matrix(staged, CONFIG)
        result, _ = atmult(at, at, config=CONFIG)
        dense = result.to_dense()
        assert dense[0, 0] == pytest.approx(1e-600, abs=1e-290)
        assert np.isinf(dense[1, 1]) or dense[1, 1] == pytest.approx(1e600)

    def test_negative_values(self, rng):
        array = rng.standard_normal((40, 40))
        array[np.abs(array) < 1.0] = 0.0
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        result, _ = atmult(at, at, config=CONFIG)
        np.testing.assert_allclose(result.to_dense(), array @ array, atol=1e-10)

    def test_exact_cancellation_in_product(self):
        # A @ A has a structural non-zero that cancels numerically.
        a = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
        at = build_at_matrix(COOMatrix.from_dense(a), CONFIG)
        result, _ = atmult(at, at, config=CONFIG)
        np.testing.assert_allclose(result.to_dense(), a @ a)


class TestMatrixMarketFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        """The parser either succeeds or raises ParseError — nothing else."""
        with contextlib.suppress(ParseError):
            mm.loads(text)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-10, 10)),
            max_size=10,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_valid_matrix(self, rows, cols, entries):
        valid = [(r, c, v) for r, c, v in entries if r < rows and c < cols and v]
        coo = COOMatrix(
            rows,
            cols,
            [e[0] for e in valid],
            [e[1] for e in valid],
            [e[2] for e in valid],
        ).sum_duplicates()
        back = mm.loads(mm.dumps(coo))
        np.testing.assert_allclose(back.to_dense(), coo.to_dense())


class TestConfigExtremes:
    def test_tiny_llc(self):
        config = SystemConfig(llc_bytes=64)
        assert config.b_atomic >= 2
        assert config.max_dense_tile_dim() >= 1

    def test_huge_llc(self):
        config = SystemConfig(llc_bytes=1 << 36)  # 64 GiB
        assert config.b_atomic & (config.b_atomic - 1) == 0
        assert config.max_sparse_tile_dim(1e-9) > config.max_dense_tile_dim()

    def test_b_atomic_larger_than_matrix(self, rng):
        """Matrix smaller than one atomic block: a single tile."""
        array = np.where(rng.random((10, 12)) < 0.3, 1.0, 0.0)
        at = build_at_matrix(COOMatrix.from_dense(array), SystemConfig(b_atomic=128))
        assert at.num_tiles() <= 1
        np.testing.assert_allclose(at.to_dense(), array)

    def test_duplicate_heavy_staging(self, rng):
        """Many duplicates collapsing to few entries partition correctly."""
        rows = rng.integers(0, 4, 500)
        cols = rng.integers(0, 4, 500)
        values = rng.random(500)
        staged = COOMatrix(32, 32, rows, cols, values)
        at = build_at_matrix(staged, CONFIG)
        np.testing.assert_allclose(at.to_dense(), staged.to_dense())
        result, _ = atmult(at, at, config=CONFIG)
        expected = staged.to_dense() @ staged.to_dense()
        np.testing.assert_allclose(result.to_dense(), expected, atol=1e-9)

    def test_csr_of_duplicates(self):
        csr = coo_to_csr(COOMatrix(2, 2, [0, 0, 0], [1, 1, 1], [1.0, 1.0, 1.0]))
        assert csr.nnz == 1
        assert csr.to_dense()[0, 1] == 3.0
