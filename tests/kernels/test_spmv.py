"""Tests for the matrix-vector kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.kernels.spmv import csr_spmv, dense_spmv

from ..conftest import as_csr, as_dense, random_sparse_array


class TestCsrSpmv:
    def test_matches_numpy(self, rng):
        array = random_sparse_array(rng, 25, 17, 0.25)
        x = rng.random(17)
        np.testing.assert_allclose(csr_spmv(as_csr(array), x), array @ x)

    def test_empty_matrix(self):
        from repro.formats.csr import CSRMatrix

        matrix = CSRMatrix.empty(4, 3)
        np.testing.assert_allclose(csr_spmv(matrix, np.ones(3)), np.zeros(4))

    def test_empty_rows_handled(self, rng):
        array = random_sparse_array(rng, 10, 10, 0.2)
        array[3] = 0.0
        array[7] = 0.0
        x = rng.random(10)
        np.testing.assert_allclose(csr_spmv(as_csr(array), x), array @ x)

    def test_length_mismatch(self, rng):
        array = random_sparse_array(rng, 5, 5, 0.5)
        with pytest.raises(ShapeError):
            csr_spmv(as_csr(array), np.ones(4))


class TestDenseSpmv:
    def test_matches_numpy(self, rng):
        array = rng.random((12, 9))
        x = rng.random(9)
        np.testing.assert_allclose(dense_spmv(as_dense(array), x), array @ x)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            dense_spmv(as_dense(rng.random((3, 3))), np.ones(2))


class TestSpmvProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_all_kernels_agree(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = (int(v) for v in rng.integers(1, 40, 2))
        array = random_sparse_array(rng, rows, cols, 0.3)
        x = rng.random(cols)
        expected = array @ x
        np.testing.assert_allclose(csr_spmv(as_csr(array), x), expected, atol=1e-12)
        np.testing.assert_allclose(dense_spmv(as_dense(array), x), expected, atol=1e-12)
