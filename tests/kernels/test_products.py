"""Tests for the windowed tile-product primitives against numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.kernels import Window, make_accumulator, products, run_tile_product
from repro.kinds import StorageKind

from ..conftest import as_csr, as_dense, random_sparse_array


def triples_to_dense(shape, triples):
    rows, cols, vals = triples
    out = np.zeros(shape)
    out[rows, cols] = vals
    return out


@pytest.fixture
def operands(rng):
    a = random_sparse_array(rng, 17, 23, 0.25)
    b = random_sparse_array(rng, 23, 13, 0.3)
    return a, b


class TestFullProducts:
    def test_spsp_triples(self, operands):
        a, b = operands
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        got = triples_to_dense((17, 13), products.spsp_triples(as_csr(a), wa, as_csr(b), wb))
        np.testing.assert_allclose(got, a @ b)

    def test_spsp_dense(self, operands):
        a, b = operands
        got = products.spsp_dense(
            as_csr(a), Window.full(a.shape), as_csr(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_spd_dense(self, operands):
        a, b = operands
        got = products.spd_dense(
            as_csr(a), Window.full(a.shape), as_dense(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_dsp_dense(self, operands):
        a, b = operands
        got = products.dsp_dense(
            as_dense(a), Window.full(a.shape), as_csr(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_dd_dense(self, operands):
        a, b = operands
        got = products.dd_dense(
            as_dense(a), Window.full(a.shape), as_dense(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_triples_variants_match_dense(self, operands):
        a, b = operands
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        for fn in (products.spd_triples, products.dsp_triples, products.dd_triples):
            a_op = as_csr(a) if fn is products.spd_triples else as_dense(a)
            b_op = as_csr(b) if fn is products.dsp_triples else as_dense(b)
            got = triples_to_dense((17, 13), fn(a_op, wa, b_op, wb))
            np.testing.assert_allclose(got, a @ b)

    def test_flops_counts_scalar_products(self, operands):
        a, b = operands
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        flops = products.spsp_flops(as_csr(a), wa, as_csr(b), wb)
        expected = sum(
            int((a[:, k] != 0).sum()) * int((b[k] != 0).sum()) for k in range(23)
        )
        assert flops == expected


class TestWindowedProducts:
    def test_inner_mismatch_rejected(self, operands):
        a, b = operands
        with pytest.raises(ShapeError):
            products.spsp_triples(
                as_csr(a), Window(0, 2, 0, 5), as_csr(b), Window(0, 4, 0, 2)
            )

    def test_empty_window_product(self, operands):
        a, b = operands
        rows, cols, vals = products.spsp_triples(
            as_csr(a), Window(0, 0, 0, 0), as_csr(b), Window(0, 0, 0, 0)
        )
        assert len(vals) == 0

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_random_windows_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(2, 25, 3)
        a = random_sparse_array(rng, m, k, 0.35)
        b = random_sparse_array(rng, k, n, 0.35)
        r0, r1 = sorted(map(int, rng.integers(0, m + 1, 2)))
        k0, k1 = sorted(map(int, rng.integers(0, k + 1, 2)))
        c0, c1 = sorted(map(int, rng.integers(0, n + 1, 2)))
        wa = Window(r0, r1, k0, k1)
        wb = Window(k0, k1, c0, c1)
        expected = a[r0:r1, k0:k1] @ b[k0:k1, c0:c1]
        if expected.size == 0:
            return
        shape = (r1 - r0, c1 - c0)
        results = [
            triples_to_dense(shape, products.spsp_triples(as_csr(a), wa, as_csr(b), wb)),
            products.spd_dense(as_csr(a), wa, as_dense(b), wb),
            products.dsp_dense(as_dense(a), wa, as_csr(b), wb),
            products.dd_dense(as_dense(a), wa, as_dense(b), wb),
        ]
        for got in results:
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestChunking:
    def test_spsp_chunked_matches_unchunked(self, rng, monkeypatch):
        a = random_sparse_array(rng, 40, 40, 0.3)
        b = random_sparse_array(rng, 40, 40, 0.3)
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        expected = a @ b
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 64)
        got = triples_to_dense((40, 40), products.spsp_triples(as_csr(a), wa, as_csr(b), wb))
        np.testing.assert_allclose(got, expected)

    def test_spd_chunked(self, rng, monkeypatch):
        a = random_sparse_array(rng, 30, 30, 0.3)
        b = random_sparse_array(rng, 30, 20, 0.5)
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 50)
        got = products.spd_dense(
            as_csr(a), Window.full(a.shape), as_dense(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_dsp_chunked(self, rng, monkeypatch):
        a = random_sparse_array(rng, 20, 30, 0.5)
        b = random_sparse_array(rng, 30, 30, 0.3)
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 50)
        got = products.dsp_dense(
            as_dense(a), Window.full(a.shape), as_csr(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)


class TestCompressTriples:
    def test_merges_and_sorts(self):
        rows = np.array([1, 0, 1])
        cols = np.array([1, 0, 1])
        vals = np.array([2.0, 1.0, 3.0])
        r, c, v = products.compress_triples(rows, cols, vals, 4)
        assert r.tolist() == [0, 1]
        assert c.tolist() == [0, 1]
        assert v.tolist() == [1.0, 5.0]

    def test_drops_exact_zero_sums(self):
        r, c, v = products.compress_triples(
            np.array([0, 0]), np.array([0, 0]), np.array([1.0, -1.0]), 2
        )
        assert len(v) == 0

    def test_empty_input(self):
        r, c, v = products.compress_triples(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 3
        )
        assert len(v) == 0


def dense_kernel_product(a, wa, b, wb, shape, row0, col0):
    """The sp x sp kernel run into a fresh dense accumulator."""
    out = make_accumulator(StorageKind.DENSE, *shape)
    run_tile_product(as_csr(a), wa, as_csr(b), wb, out, row0, col0)
    return out.finalize().to_dense()


def triples_product(a, wa, b, wb, shape, row0, col0):
    """The compressed-triples path placed at the same offset."""
    out = np.zeros(shape)
    rows, cols, vals = products.spsp_triples(as_csr(a), wa, as_csr(b), wb)
    out[rows + row0, cols + col0] = vals
    return out


class TestDenseScatter:
    """Sparse x sparse into a dense target scatters without sorting."""

    def test_kernel_never_compresses(self, rng, monkeypatch):
        a = random_sparse_array(rng, 30, 30, 0.3)
        expected = a @ a

        def no_sort(*args):
            raise AssertionError("dense target must not sort the expansion")

        monkeypatch.setattr(products, "compress_triples", no_sort)
        got = dense_kernel_product(a, Window.full(a.shape), a, Window.full(a.shape),
                                   (30, 30), 0, 0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        block = products.spsp_dense(
            as_csr(a), Window.full(a.shape), as_csr(a), Window.full(a.shape)
        )
        np.testing.assert_allclose(block, expected, rtol=1e-12)

    @pytest.mark.parametrize("chunk", [3, 17, 1 << 16])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_triples_path(self, seed, chunk, monkeypatch):
        # Small chunks split the expansion of one output row across chunks.
        monkeypatch.setattr(products, "EXPANSION_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        m, k, n = (int(x) for x in rng.integers(8, 30, 3))
        a = random_sparse_array(rng, m, k, 0.35)
        b = random_sparse_array(rng, k, n, 0.35)
        r0, r1 = sorted(int(x) for x in rng.integers(0, m + 1, 2))
        k0, k1 = sorted(int(x) for x in rng.integers(0, k + 1, 2))
        c0, c1 = sorted(int(x) for x in rng.integers(0, n + 1, 2))
        if r0 == r1 or k0 == k1 or c0 == c1:
            return
        wa, wb = Window(r0, r1, k0, k1), Window(k0, k1, c0, c1)
        shape = (r1 - r0 + 5, c1 - c0 + 3)
        row0, col0 = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        got = dense_kernel_product(a, wa, b, wb, shape, row0, col0)
        want = triples_product(a, wa, b, wb, shape, row0, col0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            products.spsp_dense(as_csr(a), wa, as_csr(b), wb),
            want[row0 : row0 + r1 - r0, col0 : col0 + c1 - c0],
            rtol=1e-12, atol=0,
        )

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 16])
    def test_duplicates_summed_and_cancelling_to_zero(self, chunk, monkeypatch):
        monkeypatch.setattr(products, "EXPANSION_CHUNK", chunk)
        # C[0,0] = 1*2 + 1*(-2) cancels exactly; C[0,1] and C[1,1] merge
        # two partial products each.
        a = np.array([[1.0, 1.0, 0.0], [0.0, 3.0, 4.0]])
        b = np.array([[2.0, 1.0], [-2.0, 1.0], [0.0, 0.5]])
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        assert products.spsp_flops(as_csr(a), wa, as_csr(b), wb) > np.count_nonzero(a @ b)
        got = dense_kernel_product(a, wa, b, wb, (4, 4), 1, 2)
        assert got[1, 2] == 0.0
        np.testing.assert_array_equal(got[1:3, 2:4], a @ b)
        rows, cols, vals = products.spsp_triples(as_csr(a), wa, as_csr(b), wb)
        assert (0, 0) not in set(zip(rows.tolist(), cols.tolist(), strict=True))
        np.testing.assert_array_equal(got, triples_product(a, wa, b, wb, (4, 4), 1, 2))
