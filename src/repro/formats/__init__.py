"""Plain matrix storage formats used beneath the AT Matrix.

These are the "common matrix representations" of paper section III-A:
row-major dense arrays, CSR with per-row sorted column ids, and a COO
staging table used while loading/reordering.  The AT Matrix composes tiles
of these formats; the multiplication kernels consume them directly so any
library providing the same layouts could be plugged in.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .dense import DenseMatrix
from .convert import coo_to_csr, coo_to_dense, csr_to_coo, csr_to_dense, dense_to_coo, dense_to_csr
from .matrix_market import read_matrix_market, write_matrix_market
from .serialize import load_at_matrix, save_at_matrix
from .interop import csr_from_scipy, from_numpy, from_scipy, to_scipy_coo, to_scipy_csr

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "DenseMatrix",
    "coo_to_csr",
    "coo_to_dense",
    "csr_to_coo",
    "csr_to_dense",
    "dense_to_coo",
    "dense_to_csr",
    "read_matrix_market",
    "write_matrix_market",
    "save_at_matrix",
    "load_at_matrix",
    "from_scipy",
    "csr_from_scipy",
    "to_scipy_coo",
    "to_scipy_csr",
    "from_numpy",
]
