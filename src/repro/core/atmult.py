"""ATMULT: the tile-granular, cost-optimized multiplication operator.

Implements paper Algorithm 2 for ``C' = C + A x B`` where each operand is
independently a plain matrix (dense array or CSR) or an AT Matrix:

1. estimate the result's block-density map by probability propagation;
2. derive the effective write density threshold from the static
   ``rho0_W`` and the water-level method under the memory limit;
3. iterate tile-row/tile-column pairs; allocate each target tile dense or
   sparse according to its estimated final density;
4. for every matching inner tile pair, compute the reference windows and
   let the dynamic optimizer pick (and JIT-convert to) the cheapest input
   representations before dispatching the kernel.

Since the engine redesign, steps 1-3 plus the per-product kernel
decisions are the *planning* half (:func:`repro.engine.plan.build_plan`)
and the kernel dispatch is the *execution* half
(:func:`repro.engine.executor.execute_plan`); this module is the
operator front-end gluing them together.  Pass
``options=MultiplyOptions(plan_cache=PlanCache())`` (or drive the call
through a :class:`repro.Session`) and repeated multiplications over the
same operand topology skip estimation, partitioning and optimization
entirely.

Note on the threshold combination: Alg. 2 line 3 of the paper prints
``min{rho0_W, waterlevel(...)}``; since lowering the threshold *increases*
memory for sub-half densities, honoring the memory SLA requires the
*stricter* (larger) of the two thresholds, so this implementation combines
them with ``max``.  With an unbounded memory limit the water level drops
to 0 and the static ``rho0_W`` decides alone, which reproduces the
paper's described behavior in both regimes.

Observability: pass ``options=MultiplyOptions(observer=...)`` (or run
inside ``repro.observe()``) to record estimate/water-level/pair/optimize/
kernel spans, the metric catalogue of docs/OBSERVABILITY.md, and
per-product predicted-vs-measured cost samples.  With no active session
every hook is a strict no-op.
"""

from __future__ import annotations

import logging

from ..config import SystemConfig
from ..cost.model import CostModel
from ..engine.api import _fold_plan_phases, resolve_plan
from ..engine.cache import PlanCache
from ..engine.executor import execute_plan
from ..engine.options import MultiplyOptions, coerce_options
from ..errors import ShapeError
from ..observe import session as observe_session
from .atmatrix import ATMatrix
from .operands import MatrixOperand, as_at_matrix, check_operands
from .report import MultiplyReport

__all__ = ["atmult"]

logger = logging.getLogger("repro.atmult")


def atmult(
    a: MatrixOperand,
    b: MatrixOperand,
    c: MatrixOperand | None = None,
    *,
    options: MultiplyOptions | None = None,
    config: SystemConfig | None = None,
    cost_model: CostModel | None = None,
    plan_cache: PlanCache | None = None,
) -> tuple[ATMatrix, MultiplyReport]:
    """Multiply ``C' = C + A x B`` with tile-granular optimization.

    Parameters
    ----------
    a, b, c:
        Operands; each may be an :class:`ATMatrix`, :class:`CSRMatrix`
        or :class:`DenseMatrix`.  ``c`` is an optional matrix added into
        the result.
    options:
        A :class:`~repro.engine.options.MultiplyOptions` consolidating
        the execution knobs (memory limit, ablation flags, resilience,
        observer, plan cache).
    config:
        System configuration; defaults to the library default.
    cost_model:
        Cost oracle for the optimizer; a default model is created if
        omitted.
    plan_cache:
        A :class:`~repro.engine.cache.PlanCache`; when set (here or in
        ``options``), planning is skipped whenever a cached plan matches
        the operand topologies and configuration.

    Returns
    -------
    (result, report):
        The product as an :class:`ATMatrix` plus the phase report.
    """
    opts = coerce_options(
        options, config=config, cost_model=cost_model, plan_cache=plan_cache
    )
    check_operands(a, b, c)
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if c is not None and c.shape != (a.rows, b.cols):
        raise ShapeError(f"C shape {c.shape} != result shape {(a.rows, b.cols)}")
    resolved_config = opts.resolved_config()
    resolved_model = opts.resolved_cost_model()
    with observe_session.resolve(opts.observer) as obs:
        at_a = as_at_matrix(a, resolved_config)
        at_b = as_at_matrix(b, resolved_config)
        at_c = as_at_matrix(c, resolved_config) if c is not None else None
        plan, fresh = resolve_plan(
            at_a,
            at_b,
            config=resolved_config,
            cost_model=resolved_model,
            options=opts,
            obs=obs,
        )
        result, report = execute_plan(
            plan,
            at_a,
            at_b,
            at_c,
            config=resolved_config,
            cost_model=resolved_model,
            options=opts,
            obs=obs,
            check_fingerprints=False,  # resolve_plan keyed/built on these operands
        )
        assert isinstance(report, MultiplyReport)
        if fresh:
            _fold_plan_phases(report, plan)
    logger.debug(
        "atmult %sx%s @ %sx%s -> nnz=%d in %.3fs "
        "(estimate %.1f%%, optimize %.1f%%, %d conversions, kernels %s, "
        "plan %s)",
        a.rows, a.cols, b.rows, b.cols, result.nnz, report.total_seconds,
        100 * report.estimate_fraction, 100 * report.optimize_fraction,
        report.conversions, dict(report.kernel_counts),
        "fresh" if fresh else "cached",
    )
    return result, report
