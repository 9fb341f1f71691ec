"""Output accumulators for tile-granular multiplication.

A target tile ``C_(ti,tj)`` is written accumulatively by every tile
product of its block-row/block-column pair (paper Fig. 4).  Two
accumulator flavors mirror the paper's write-side representations:

:class:`DenseAccumulator`
    wraps a dense array; every product adds in place (cheap writes, the
    reason ``spspd_gemm`` beats ``spspsp_gemm`` on dense outputs).

:class:`SparseAccumulator`
    the classical SPA realized as a triple buffer: products append
    coordinate runs, and :meth:`finalize` sorts/merges them into CSR once
    (expensive writes — the paper's read/write cost asymmetry).
"""

from __future__ import annotations

import numpy as np

from .._types import FloatArray, IndexArray
from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kinds import StorageKind
from .products import scatter_add


class DenseAccumulator:
    """Accumulates tile products into a dense array.

    :attr:`writes` counts block cells for dense products and scattered
    triples otherwise.  A sparse x sparse product scatters its partial
    products uncompressed, so it counts one write per partial product,
    not one per merged output coordinate.
    """

    kind = StorageKind.DENSE

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"accumulator dims must be positive, got ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.array = np.zeros((rows, cols), dtype=np.float64)
        #: Number of scalar writes performed (cost-model bookkeeping).
        self.writes = 0

    def add_dense(self, row0: int, col0: int, block: FloatArray) -> None:
        """Add a dense product block at offset ``(row0, col0)``."""
        rows, cols = block.shape
        self.array[row0 : row0 + rows, col0 : col0 + cols] += block
        self.writes += block.size

    def add_triples(
        self, row0: int, col0: int, rows: IndexArray, cols: IndexArray, values: FloatArray
    ) -> None:
        """Scatter-add coordinate triples at offset ``(row0, col0)``.

        Duplicate coordinates are summed (see
        :func:`~repro.kernels.products.scatter_add`), so callers may pass
        an uncompressed expansion.
        """
        scatter_add(self.array, row0, col0, rows, cols, values)
        self.writes += len(values)

    def finalize(self) -> DenseMatrix:
        """The accumulated tile as a dense matrix (owns the array)."""
        return DenseMatrix(self.array, copy=False)


class SparseAccumulator:
    """Accumulates tile products as coordinate runs, merged once at the end."""

    kind = StorageKind.SPARSE

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"accumulator dims must be positive, got ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self._row_runs: list[IndexArray] = []
        self._col_runs: list[IndexArray] = []
        self._val_runs: list[FloatArray] = []
        self.writes = 0

    def add_dense(self, row0: int, col0: int, block: FloatArray) -> None:
        """Add a dense product block (non-zeros extracted) at an offset."""
        nz_rows, nz_cols = np.nonzero(block)
        self.add_triples(row0, col0, nz_rows, nz_cols, block[nz_rows, nz_cols])

    def add_triples(
        self, row0: int, col0: int, rows: IndexArray, cols: IndexArray, values: FloatArray
    ) -> None:
        """Append coordinate triples at offset ``(row0, col0)``."""
        if len(values) == 0:
            return
        self._row_runs.append(np.asarray(rows, dtype=np.int64) + row0)
        self._col_runs.append(np.asarray(cols, dtype=np.int64) + col0)
        self._val_runs.append(np.asarray(values, dtype=np.float64))
        self.writes += len(values)

    @property
    def pending(self) -> int:
        """Number of buffered (pre-merge) triples."""
        return sum(len(run) for run in self._val_runs)

    def finalize(self) -> CSRMatrix:
        """Merge all runs into a CSR matrix (duplicates summed)."""
        if not self._val_runs:
            return CSRMatrix.empty(self.rows, self.cols)
        return CSRMatrix.from_arrays_unsorted(
            self.rows,
            self.cols,
            np.concatenate(self._row_runs),
            np.concatenate(self._col_runs),
            np.concatenate(self._val_runs),
            sum_duplicates=True,
        )


Accumulator = DenseAccumulator | SparseAccumulator


def make_accumulator(kind: StorageKind, rows: int, cols: int) -> Accumulator:
    """Accumulator factory keyed by target storage kind."""
    if kind is StorageKind.DENSE:
        return DenseAccumulator(rows, cols)
    return SparseAccumulator(rows, cols)
