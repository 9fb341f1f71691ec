"""Operand coercion helpers shared by the execution engine and ATMULT.

ATMULT accepts "plain matrix structures such as dense arrays or sparse
CSR matrices" next to AT Matrices; these helpers provide the uniform
view the engine plans against.  They live in their own module (rather
than :mod:`repro.core.atmult`) so :mod:`repro.engine` can import them
without a circular dependency on the operator front-ends.

:func:`as_at_matrix` is the one coercion point: every front door
(``Session``, ``atmult``, chains, the solvers) wraps through it, and it
rejects any other operand type with a typed error.  Front doors that
check shapes before wrapping call :func:`check_operands` first.

Observability: every wrap of a plain operand bumps the
``operand.wraps.sparse`` / ``operand.wraps.dense`` counters of the active
session — the solver-hoisting regression tests count these to prove the
wrappers are built once per solve, not once per iteration.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..density.estimate import coarsen
from ..density.map import DensityMap
from ..errors import ConfigError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kinds import StorageKind
from ..observe import session as observe_session
from .atmatrix import ATMatrix, tile_density_map
from .tile import Tile

MatrixOperand = ATMatrix | CSRMatrix | DenseMatrix


def check_operands(*operands: object) -> None:
    """Raise :class:`~repro.errors.ConfigError` for an unsupported operand.

    Front doors call this before reading any shape, so an ``ndarray`` or
    a staged :class:`~repro.formats.coo.COOMatrix` fails with the typed
    error rather than an ``AttributeError``.  ``None`` (an absent
    optional operand) passes.
    """
    for operand in operands:
        if operand is not None and not isinstance(
            operand, (ATMatrix, CSRMatrix, DenseMatrix)
        ):
            raise ConfigError(
                f"unsupported matrix operand {type(operand).__name__}; expected "
                "ATMatrix | CSRMatrix | DenseMatrix (partition a COOMatrix with "
                "build_at_matrix)"
            )


def as_at_matrix(operand: MatrixOperand, config: SystemConfig) -> ATMatrix:
    """View a plain operand as a single-tile AT Matrix (zero partitioning).

    This is how ATMULT supports "plain matrix structures such as dense
    arrays or sparse CSR matrices" as independent operand types.  Any
    other type raises :class:`~repro.errors.ConfigError` (see
    :func:`check_operands`); staged :class:`~repro.formats.coo.COOMatrix`
    input is partitioned with :func:`~repro.core.builder.build_at_matrix`
    first.
    """
    if isinstance(operand, ATMatrix):
        return operand
    check_operands(operand)
    kind = StorageKind.SPARSE if isinstance(operand, CSRMatrix) else StorageKind.DENSE
    observe_session.counter(f"operand.wraps.{kind.value}").inc()
    tile = Tile(0, 0, operand.rows, operand.cols, kind, operand)
    return ATMatrix(operand.rows, operand.cols, config, [tile])


def operand_density_map(
    operand: MatrixOperand, config: SystemConfig, *, structural: bool = False
) -> DensityMap:
    """Block-density map of any operand type at ``config.b_atomic``.

    An AT Matrix partitioned under a *different* granularity has its
    cached map brought to the requested block size: coarsened when the
    requested size is a multiple of the matrix's own, recomputed from the
    tile content otherwise.

    ``structural=True`` requests the view the planner consumes — dense
    payloads contribute their fingerprinted (two-decimal quantized)
    density uniformly over their extent, so the plan stays a pure
    function of its cache key (a CSR pattern is fingerprinted exactly,
    so the sparse path is unchanged).
    """
    block = config.b_atomic
    assert block is not None
    if isinstance(operand, ATMatrix):
        own = operand.density_map(structural=structural)
        if own.block == block:
            return own
        if block % own.block == 0:
            return coarsen(own, block // own.block)
        return tile_density_map(
            operand.tiles, operand.rows, operand.cols, block,
            structural=structural,
        )
    if isinstance(operand, CSRMatrix):
        coo_rows = _csr_row_ids(operand)
        return DensityMap.from_coordinates(
            operand.rows, operand.cols, coo_rows, operand.indices, block
        )
    if structural:
        grid_shape = (-(-operand.rows // block), -(-operand.cols // block))
        return DensityMap(
            operand.rows,
            operand.cols,
            block,
            np.full(grid_shape, round(operand.density, 2)),
        )
    return DensityMap.from_dense(operand.array, block)


def _csr_row_ids(matrix: CSRMatrix) -> np.ndarray:
    return np.repeat(np.arange(matrix.rows, dtype=np.int64), matrix.row_nnz())
