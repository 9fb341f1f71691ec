"""Tests for the dense and sparse output accumulators."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import (
    DenseAccumulator,
    SparseAccumulator,
    Window,
    make_accumulator,
    products,
    run_tile_product,
)
from repro.kinds import StorageKind

from ..conftest import as_csr, random_sparse_array


class TestDenseAccumulator:
    def test_add_dense_at_offset(self):
        acc = DenseAccumulator(4, 4)
        acc.add_dense(1, 2, np.ones((2, 2)))
        out = acc.finalize().to_dense()
        assert out[1, 2] == 1.0 and out[2, 3] == 1.0
        assert out.sum() == 4.0

    def test_add_triples_accumulates_duplicates(self):
        acc = DenseAccumulator(2, 2)
        acc.add_triples(0, 0, np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0]))
        assert acc.finalize().to_dense()[0, 1] == 5.0

    def test_writes_counted(self):
        acc = DenseAccumulator(3, 3)
        acc.add_dense(0, 0, np.ones((2, 2)))
        assert acc.writes == 4

    def test_sparse_product_writes_count_partial_products(self, rng):
        # sp x sp scatters its expansion uncompressed into a dense target.
        a = as_csr(random_sparse_array(rng, 20, 20, 0.3))
        window = Window.full((20, 20))
        acc = DenseAccumulator(20, 20)
        run_tile_product(a, window, a, window, acc)
        flops = products.spsp_flops(a, window, a, window)
        assert acc.writes == flops > np.count_nonzero(acc.array)

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            DenseAccumulator(0, 2)


class TestSparseAccumulator:
    def test_merges_runs(self):
        acc = SparseAccumulator(3, 3)
        acc.add_triples(0, 0, np.array([0]), np.array([0]), np.array([1.0]))
        acc.add_triples(0, 0, np.array([0]), np.array([0]), np.array([2.0]))
        result = acc.finalize()
        assert result.nnz == 1
        assert result.to_dense()[0, 0] == 3.0

    def test_offsets_applied(self):
        acc = SparseAccumulator(4, 4)
        acc.add_triples(2, 2, np.array([1]), np.array([1]), np.array([5.0]))
        assert acc.finalize().to_dense()[3, 3] == 5.0

    def test_add_dense_extracts_nonzeros(self):
        acc = SparseAccumulator(2, 2)
        acc.add_dense(0, 0, np.array([[0.0, 1.5], [0.0, 0.0]]))
        result = acc.finalize()
        assert result.nnz == 1
        assert result.to_dense()[0, 1] == 1.5

    def test_empty_finalize(self):
        acc = SparseAccumulator(2, 3)
        result = acc.finalize()
        assert result.nnz == 0
        assert result.shape == (2, 3)

    def test_pending_counts_buffered(self):
        acc = SparseAccumulator(4, 4)
        acc.add_triples(0, 0, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 1.0]))
        assert acc.pending == 2

    def test_cancellation_dropped(self):
        acc = SparseAccumulator(2, 2)
        acc.add_triples(0, 0, np.array([0]), np.array([0]), np.array([1.0]))
        acc.add_triples(0, 0, np.array([0]), np.array([0]), np.array([-1.0]))
        assert acc.finalize().nnz == 0


class TestFactory:
    def test_kind_dispatch(self):
        assert isinstance(make_accumulator(StorageKind.DENSE, 2, 2), DenseAccumulator)
        assert isinstance(make_accumulator(StorageKind.SPARSE, 2, 2), SparseAccumulator)

    def test_kind_attribute(self):
        assert make_accumulator(StorageKind.DENSE, 2, 2).kind is StorageKind.DENSE
        assert make_accumulator(StorageKind.SPARSE, 2, 2).kind is StorageKind.SPARSE
