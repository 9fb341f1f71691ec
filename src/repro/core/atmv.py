"""ATMV: matrix-vector multiplication over AT Matrices.

The tile-granular analogue of ATMULT for the vector case: every tile
contributes ``y[tile rows] += tile @ x[tile cols]``.  Because a vector
operand has no representation choice, there is no optimizer pass; the
win comes purely from the heterogeneous tile storage — dense regions hit
the BLAS gemv path.

A :class:`MatvecOperator` is built from an AT Matrix in one pass over
its tiles and then applies ``A @ x`` in a fixed number of numpy calls
instead of a Python loop of small calls per tile:

* all CSR tiles are concatenated in tile order into one ``values``
  array and one array of global column ids; every non-empty
  ``(tile, row)`` segment is one entry of a segmented sum
  (``np.add.reduceat``) over ``values * x[cols]``;
* every dense tile is one gemv on its ``x`` slice;
* the segment sums and gemv outputs, laid out in tile order, are summed
  into ``y`` by one ``np.bincount`` over their output rows.

``bincount`` adds in input order starting from zero, and a segment's
sum does not depend on where the segment sits in the array, so every
output row is summed in the same order as a tile-by-tile loop would sum
it: the result is bit-identical to that loop.

Also provides :func:`power_iteration`, the iterative-workload driver the
examples and benches use (dominant eigenvector, PageRank-style loops).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..resilience.faults import fire_hooks
from .atmatrix import ATMatrix
from .tile import Tile


class MatvecOperator:
    """``x -> A @ x`` for one AT Matrix, with the tile walk done up front.

    Build it once per sequence of products (a solve, a power iteration)
    and call it per product.  It snapshots the tile directory, so it does
    not see tiles swapped in later by :meth:`ATMatrix.replace_tile`;
    build a new one after that.
    """

    __slots__ = ("rows", "cols", "_sites", "_values", "_columns", "_starts",
                 "_out_rows", "_pieces")

    def __init__(self, matrix: ATMatrix) -> None:
        self.rows, self.cols = matrix.rows, matrix.cols
        #: ``(row0, col0)`` of every tile: the ``"kernel"`` hook sites.
        self._sites = [(tile.row0, tile.col0) for tile in matrix.tiles]
        # The one pass over the tiles: tile order as dense tiles and runs
        # of consecutive non-empty CSR tiles (stored as their count).
        sparse: list[Tile] = []
        payloads: list[CSRMatrix] = []
        runs: list[tuple[Tile, DenseMatrix] | int] = []
        for tile in matrix.tiles:
            data = tile.data
            if isinstance(data, DenseMatrix):
                runs.append((tile, data))
            elif data.nnz:
                sparse.append(tile)
                payloads.append(data)
                last = runs[-1] if runs else None
                if isinstance(last, int):
                    runs[-1] = last + 1
                else:
                    runs.append(1)
        rows = np.array([tile.rows for tile in sparse], dtype=np.int64)
        nnz = np.array([payload.nnz for payload in payloads], dtype=np.int64)
        ends = np.cumsum(rows)
        # Every row of every sparse tile, concatenated: its entry range in
        # the concatenated payloads and its row in the matrix.
        lo = _join([payload.indptr[:-1] for payload in payloads], np.int64)
        hi = _join([payload.indptr[1:] for payload in payloads], np.int64)
        occupied = np.flatnonzero(hi > lo)
        self._starts = (lo + np.repeat(np.cumsum(nnz) - nnz, rows))[occupied]
        row0 = np.array([tile.row0 for tile in sparse], dtype=np.int64)
        segment_rows = occupied + np.repeat(row0 - (ends - rows), rows)[occupied]
        self._values = _join([payload.values for payload in payloads], np.float64)
        col0 = np.array([tile.col0 for tile in sparse], dtype=np.int64)
        self._columns = _join([payload.indices for payload in payloads], np.int64)
        self._columns += np.repeat(col0, nnz)
        #: Contributions in tile order: ``(lo, hi, None)`` is the run
        #: ``sums[lo:hi]`` of segment sums, ``(col0, col1, array)`` the
        #: gemv of a dense tile.
        self._pieces: list[tuple[int, int, np.ndarray | None]] = []
        out_rows: list[np.ndarray] = []
        segment_ends = np.searchsorted(occupied, ends).tolist()
        tiles_done = segment = 0
        for run in runs:
            if isinstance(run, int):
                tiles_done += run
                end = int(segment_ends[tiles_done - 1])
                self._pieces.append((segment, end, None))
                out_rows.append(segment_rows[segment:end])
                segment = end
            else:
                tile, dense = run
                self._pieces.append((tile.col0, tile.col1, dense.array))
                out_rows.append(np.arange(tile.row0, tile.row1, dtype=np.int64))
        self._out_rows = _join(out_rows, np.int64)

    def __call__(self, vector: np.ndarray) -> np.ndarray:
        """``y = A @ x``, after firing the ``"kernel"`` hook once per tile.

        Every tile is a ``"kernel"`` fault-injection site, fired in tile
        order like the tile products of ATMULT, so matrix-vector jobs and
        solves stay a stall/fault target.
        """
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if len(vector) != self.cols:
            raise ShapeError(f"vector length {len(vector)} != cols {self.cols}")
        for site in self._sites:
            fire_hooks("kernel", site)
        if not self._pieces:
            return np.zeros(self.rows, dtype=np.float64)
        products = vector.take(self._columns)
        products *= self._values
        sums = np.add.reduceat(products, self._starts)
        parts = [
            sums[lo:hi] if array is None else array @ vector[lo:hi]
            for lo, hi, array in self._pieces
        ]
        weights = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.bincount(self._out_rows, weights=weights, minlength=self.rows)


def _join(arrays: list[np.ndarray], dtype: type) -> np.ndarray:
    """The per-tile pieces as one new array (empty of ``dtype`` for none)."""
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


def atmv(matrix: ATMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A @ x`` over the adaptive tiles.

    Builds a :class:`MatvecOperator` and applies it once; code that
    multiplies the same matrix repeatedly builds the operator once
    instead.
    """
    return MatvecOperator(matrix)(vector)


def atmv_transposed(matrix: ATMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A.T @ x`` without materializing the transpose.

    Each tile contributes ``y[tile cols] += tile.T @ x[tile rows]``;
    for CSR tiles this is the column-scatter form of the row kernel.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != matrix.rows:
        raise ShapeError(f"vector length {len(vector)} != rows {matrix.rows}")
    out = np.zeros(matrix.cols, dtype=np.float64)
    for tile in matrix.tiles:
        segment = vector[tile.row0 : tile.row1]
        if isinstance(tile.data, CSRMatrix):
            data = tile.data
            if data.nnz:
                weights = np.repeat(segment, data.row_nnz()) * data.values
                out[tile.col0 : tile.col1] += np.bincount(
                    data.indices, weights=weights, minlength=data.cols
                )
        else:
            out[tile.col0 : tile.col1] += tile.data.array.T @ segment
    return out


@dataclass(frozen=True)
class PowerIterationResult:
    """Outcome of :func:`power_iteration`."""

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool


def power_iteration(
    matrix: ATMatrix,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-9,
    seed: int = 0,
) -> PowerIterationResult:
    """Dominant eigenpair of a square AT Matrix by power iteration.

    Every step applies one :class:`MatvecOperator`, built once before
    the loop; convergence is measured by the change of the Rayleigh
    quotient.
    """
    if matrix.rows != matrix.cols:
        raise ShapeError(f"power iteration needs a square matrix, got {matrix.shape}")
    apply = MatvecOperator(matrix)
    rng = np.random.default_rng(seed)
    vector = rng.random(matrix.rows)
    vector /= np.linalg.norm(vector)
    eigenvalue = 0.0
    for iteration in range(1, max_iterations + 1):
        product = apply(vector)
        norm = np.linalg.norm(product)
        if norm == 0.0:
            return PowerIterationResult(0.0, vector, iteration, True)
        vector = product / norm
        rayleigh = float(vector @ apply(vector))
        if abs(rayleigh - eigenvalue) <= tolerance * max(1.0, abs(rayleigh)):
            return PowerIterationResult(rayleigh, vector, iteration, True)
        eigenvalue = rayleigh
    return PowerIterationResult(eigenvalue, vector, max_iterations, False)
