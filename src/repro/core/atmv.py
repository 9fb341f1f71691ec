"""ATMV: matrix-vector multiplication over AT Matrices.

The tile-granular analogue of ATMULT for the vector case: every tile
contributes ``y[tile rows] += tile @ x[tile cols]`` through its
representation's best kernel (CSR row kernel or BLAS gemv).  Because a
vector operand has no representation choice, there is no optimizer pass;
the win comes purely from the heterogeneous tile storage — dense regions
hit the dense gemv path.

Also provides :func:`power_iteration`, the iterative-workload driver the
examples and benches use (dominant eigenvector, PageRank-style loops).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..kernels.spmv import csr_spmv, dense_spmv
from ..resilience.faults import fire_hooks
from .atmatrix import ATMatrix


def atmv(matrix: ATMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A @ x`` over the adaptive tiles.

    Every tile product is a ``"kernel"`` fault-injection site, like the
    tile products of ATMULT, so matrix-vector jobs and solves stay a
    stall/fault target.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != matrix.cols:
        raise ShapeError(f"vector length {len(vector)} != cols {matrix.cols}")
    out = np.zeros(matrix.rows, dtype=np.float64)
    for tile in matrix.tiles:
        fire_hooks("kernel", (tile.row0, tile.col0))
        segment = vector[tile.col0 : tile.col1]
        if isinstance(tile.data, CSRMatrix):
            out[tile.row0 : tile.row1] += csr_spmv(tile.data, segment)
        else:
            out[tile.row0 : tile.row1] += dense_spmv(tile.data, segment)
    return out


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

    Every step is one :func:`atmv`; convergence is measured by the
    change of the Rayleigh quotient.
    """
    if matrix.rows != matrix.cols:
        raise ShapeError(f"power iteration needs a square matrix, got {matrix.shape}")
    rng = np.random.default_rng(seed)
    vector = rng.random(matrix.rows)
    vector /= np.linalg.norm(vector)
    eigenvalue = 0.0
    for iteration in range(1, max_iterations + 1):
        product = atmv(matrix, vector)
        norm = np.linalg.norm(product)
        if norm == 0.0:
            return PowerIterationResult(0.0, vector, iteration, True)
        vector = product / norm
        rayleigh = float(vector @ atmv(matrix, vector))
        if abs(rayleigh - eigenvalue) <= tolerance * max(1.0, abs(rayleigh)):
            return PowerIterationResult(rayleigh, vector, iteration, True)
        eigenvalue = rayleigh
    return PowerIterationResult(eigenvalue, vector, max_iterations, False)
