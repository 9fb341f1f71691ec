"""Iterative linear solvers over AT Matrices.

"Solving linear systems" is the first application the paper's
introduction lists.  These solvers accept any matrix operand (AT Matrix,
CSR or dense); the operand is wrapped **once** before the iteration loop
and turned into one :class:`~repro.core.atmv.MatvecOperator`, and every
matrix-vector product applies it: one gather, one segmented sum and one
ordered scatter over the sparse tiles, a BLAS gemv per dense tile.  A
vector operand has no representation choice, so there is nothing to
plan: a ``session=`` or ``options=`` only supplies the configuration the
operand is wrapped with and the cancel token polled once per iteration.

Provided methods:

* :func:`jacobi` — diagonal preconditioned fixed point; needs a
  diagonally dominant system.
* :func:`conjugate_gradient` — for symmetric positive definite systems.
* :func:`richardson` — plain damped fixed point (the building block the
  others refine; exposed mostly for teaching/tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from .core.atmv import MatvecOperator
from .core.operands import MatrixOperand, as_at_matrix
from .engine.options import MultiplyOptions, reject_checkpoint
from .errors import ReproError, ShapeError
from .resilience.faults import fire_hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.atmatrix import ATMatrix
    from .engine.session import Session


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach the tolerance in its budget."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an iterative solve."""

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool

    def raise_if_failed(self) -> SolveResult:
        if not self.converged:
            raise ConvergenceError(
                f"no convergence after {self.iterations} iterations "
                f"(residual {self.residual_norm:.3e})"
            )
        return self


def _setup(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    session: Session | None,
    options: MultiplyOptions | None,
) -> tuple[ATMatrix, MatvecOperator, np.ndarray, Callable[[int], None]]:
    """Wrap the operand once, check the system, build matvec and tick.

    The operand is wrapped with :func:`as_at_matrix` exactly once, here,
    before any iteration runs (the regression tests count
    ``operand.wraps.*`` metric increments to pin this down), under the
    session's or options' configuration, and its
    :class:`~repro.core.atmv.MatvecOperator` is built once, so the
    iterations only apply it.  The returned tick runs at the
    top of every iteration: it fires the ``"iteration"`` fault-injection
    hook, then polls the options' cancel token.  A checkpoint store
    raises :class:`~repro.errors.ConfigError`: it journals a single
    product, not a solve's many.
    """
    if session is not None:
        options = session.options
    elif options is None:
        options = MultiplyOptions()
    reject_checkpoint(options, "an iterative solver")
    at = as_at_matrix(matrix, options.resolved_config())
    if at.rows != at.cols:
        raise ShapeError(f"solver needs a square matrix, got {at.shape}")
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if len(rhs) != at.rows:
        raise ShapeError(f"rhs length {len(rhs)} != dimension {at.rows}")
    cancel = options.cancel

    def tick(iteration: int) -> None:
        fire_hooks("iteration", iteration)
        if cancel is not None:
            cancel.check()

    return at, MatvecOperator(at), rhs, tick


def richardson(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    *,
    omega: float = 0.1,
    tolerance: float = 1e-8,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
    session: Session | None = None,
    options: MultiplyOptions | None = None,
) -> SolveResult:
    """Damped Richardson iteration ``x += omega * (b - A x)``."""
    _, matvec, rhs, tick = _setup(matrix, rhs, session, options)
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    norm_b = np.linalg.norm(rhs) or 1.0
    residual_norm = np.inf
    for iteration in range(1, max_iterations + 1):
        tick(iteration)
        residual = rhs - matvec(x)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tolerance * norm_b:
            return SolveResult(x, iteration - 1, residual_norm, True)
        x = x + omega * residual
    return SolveResult(x, max_iterations, residual_norm, False)


def jacobi(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
    session: Session | None = None,
    options: MultiplyOptions | None = None,
) -> SolveResult:
    """Jacobi iteration ``x = D^-1 (b - (A - D) x)``.

    Converges for strictly diagonally dominant systems; raises
    :class:`ShapeError` when the diagonal contains zeros.
    """
    at, matvec, rhs, tick = _setup(matrix, rhs, session, options)
    diagonal = at.to_csr().diagonal()
    if np.any(diagonal == 0.0):
        raise ShapeError("Jacobi requires a zero-free diagonal")
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    norm_b = np.linalg.norm(rhs) or 1.0
    residual_norm = np.inf
    for iteration in range(1, max_iterations + 1):
        tick(iteration)
        ax = matvec(x)
        residual_norm = float(np.linalg.norm(rhs - ax))
        if residual_norm <= tolerance * norm_b:
            return SolveResult(x, iteration - 1, residual_norm, True)
        # x_{k+1} = x_k + D^-1 (b - A x_k)
        x = x + (rhs - ax) / diagonal
    return SolveResult(x, max_iterations, residual_norm, False)


def conjugate_gradient(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    *,
    tolerance: float = 1e-10,
    max_iterations: int | None = None,
    x0: np.ndarray | None = None,
    session: Session | None = None,
    options: MultiplyOptions | None = None,
) -> SolveResult:
    """Conjugate gradients for symmetric positive definite systems."""
    at, matvec, rhs, tick = _setup(matrix, rhs, session, options)
    budget = max_iterations if max_iterations is not None else 10 * at.rows
    if x0 is None:
        # Default zero start: r0 = b - A 0 = b, no product needed.
        x = np.zeros_like(rhs)
        residual = rhs.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        residual = rhs - matvec(x)
    direction = residual.copy()
    rho = float(residual @ residual)
    norm_b = np.linalg.norm(rhs) or 1.0
    for iteration in range(1, budget + 1):
        tick(iteration)
        if np.sqrt(rho) <= tolerance * norm_b:
            return SolveResult(x, iteration - 1, float(np.sqrt(rho)), True)
        a_direction = matvec(direction)
        curvature = float(direction @ a_direction)
        if curvature <= 0.0:
            # Not SPD (or numerically singular): stop honestly.
            return SolveResult(x, iteration - 1, float(np.sqrt(rho)), False)
        alpha = rho / curvature
        x = x + alpha * direction
        residual = residual - alpha * a_direction
        rho_next = float(residual @ residual)
        direction = residual + (rho_next / rho) * direction
        rho = rho_next
    return SolveResult(x, budget, float(np.sqrt(rho)), False)
