"""Matrix-vector multiplication kernels.

The paper's related work (section V-A) leans on SpMV results — notably
Vuduc's observation that "CSR tends to have best performance for sparse
matrix-vector multiplication on a wide class of matrices", which
motivated CSR as the sparse tile format.  These are the per-matrix
vector kernels the format comparison bench times; the AT Matrix's own
vector path, which batches all tiles into one operator, is
:class:`repro.core.atmv.MatvecOperator`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix


def csr_spmv(matrix: CSRMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for CSR: the classic row-wise kernel, vectorized.

    Products are formed per stored element and reduced per row with a
    segmented sum — the numpy equivalent of Gustavson's row loop.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != matrix.cols:
        raise ShapeError(f"vector length {len(vector)} != cols {matrix.cols}")
    out = np.zeros(matrix.rows, dtype=np.float64)
    if not matrix.nnz:
        return out
    products = matrix.values * vector[matrix.indices]
    row_nnz = matrix.row_nnz()
    occupied = np.flatnonzero(row_nnz)
    starts = matrix.indptr[occupied]
    out[occupied] = np.add.reduceat(products, starts)
    return out


def dense_spmv(matrix: DenseMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for the dense representation (BLAS gemv)."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != matrix.cols:
        raise ShapeError(f"vector length {len(vector)} != cols {matrix.cols}")
    return matrix.array @ vector

