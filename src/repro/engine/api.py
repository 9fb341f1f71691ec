"""The plan/execute front door of the execution engine.

:func:`plan` resolves every decision of ``A x B`` into an
:class:`~repro.engine.plan.ExecutionPlan` (through the options' plan
cache when one is configured); :func:`execute` replays a plan against
same-topology operands.  ``atmult(a, b)`` is exactly
``execute(plan(a, b), a, b)`` — the operator front-ends in
:mod:`repro.core` route through :func:`resolve_plan` so iterative
workloads skip estimation, partitioning and optimization from the
second call on.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..config import SystemConfig
from ..core.atmatrix import ATMatrix
from ..core.operands import MatrixOperand, as_at_matrix, check_operands
from ..core.report import BaseReport, MultiplyReport
from ..cost.model import CostModel
from ..errors import PlanMismatchError, ShapeError
from ..observe import Observation
from ..observe import session as observe_session
from .cache import ChainKey, PlanCache, PlanKey
from .executor import ChainRun, FusedChainOutcome, execute_fused_chain, execute_plan
from .options import MultiplyOptions, coerce_options
from .plan import (
    ExecutionPlan,
    FusedChainPlan,
    HopSource,
    PlannedHop,
    build_plan,
    fused_chain_schedule,
)
from .fingerprint import config_fingerprint, structure_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.chain import ChainPlan, ChainReport


def resolve_plan(
    at_a: ATMatrix,
    at_b: ATMatrix,
    *,
    config: SystemConfig,
    cost_model: CostModel,
    options: MultiplyOptions,
    obs: Observation | None,
) -> tuple[ExecutionPlan, bool]:
    """The plan for ``at_a x at_b`` under ``options``: cached or fresh.

    Returns ``(plan, fresh)`` — ``fresh`` is True when the plan was
    built by this call (its planning-phase durations then belong in the
    caller's report).
    """
    cache = options.plan_cache
    key: PlanKey | None = None
    if cache is not None:
        key = PlanKey(
            structure_fingerprint(at_a),
            structure_fingerprint(at_b),
            _setup_key(options, config, cost_model),
        )
        cached = cache.get(key)
        if cached is not None:
            return cached, False
    built = build_plan(
        at_a,
        at_b,
        config=config,
        cost_model=cost_model,
        memory_limit_bytes=options.memory_limit_bytes,
        dynamic_conversion=options.dynamic_conversion,
        use_estimation=options.use_estimation,
        obs=obs,
    )
    if cache is not None and key is not None:
        cache.put(key, built)
    return built, True


def _fold_plan_phases(report: BaseReport, plan: ExecutionPlan) -> None:
    """Attribute a freshly built plan's phase durations to this report.

    Cached replays skip this — their reports show (near) zero estimate
    and decision time, which is the whole point of plan reuse.
    """
    if plan.use_estimation:
        report.add_phase("estimate", plan.estimate_seconds)
    report.add_phase("optimize", plan.optimize_seconds)


def _setup_key(options: MultiplyOptions, config: SystemConfig, cost_model: CostModel) -> str:
    """The configuration half of plan and chain cache keys."""
    return config_fingerprint(
        config,
        cost_model,
        memory_limit_bytes=options.memory_limit_bytes,
        dynamic_conversion=options.dynamic_conversion,
        use_estimation=options.use_estimation,
    )


def plan(
    a: MatrixOperand,
    b: MatrixOperand,
    *,
    options: MultiplyOptions | None = None,
    config: SystemConfig | None = None,
    cost_model: CostModel | None = None,
) -> ExecutionPlan:
    """Resolve the execution plan for ``A x B`` without running kernels.

    Consults (and fills) ``options.plan_cache`` when one is set.
    """
    opts = coerce_options(options, config=config, cost_model=cost_model)
    check_operands(a, b)
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    resolved_config = opts.resolved_config()
    resolved_model = opts.resolved_cost_model()
    with observe_session.resolve(opts.observer) as obs:
        at_a = as_at_matrix(a, resolved_config)
        at_b = as_at_matrix(b, resolved_config)
        resolved, _ = resolve_plan(
            at_a,
            at_b,
            config=resolved_config,
            cost_model=resolved_model,
            options=opts,
            obs=obs,
        )
    return resolved


def execute(
    execution_plan: ExecutionPlan,
    a: MatrixOperand,
    b: MatrixOperand,
    c: MatrixOperand | None = None,
    *,
    options: MultiplyOptions | None = None,
    config: SystemConfig | None = None,
    cost_model: CostModel | None = None,
) -> tuple[ATMatrix, MultiplyReport]:
    """Replay a plan against operands of matching topology.

    Raises :class:`~repro.errors.PlanMismatchError` when either
    operand's structure fingerprint differs from the plan's.
    """
    opts = coerce_options(options, config=config, cost_model=cost_model)
    resolved_config = opts.resolved_config()
    resolved_model = opts.resolved_cost_model()
    check_operands(a, b, c)
    if c is not None and c.shape != execution_plan.shape:
        raise ShapeError(
            f"C shape {c.shape} != result shape {execution_plan.shape}"
        )
    with observe_session.resolve(opts.observer) as obs:
        at_a = as_at_matrix(a, resolved_config)
        at_b = as_at_matrix(b, resolved_config)
        at_c = as_at_matrix(c, resolved_config) if c is not None else None
        result, report = execute_plan(
            execution_plan,
            at_a,
            at_b,
            at_c,
            config=resolved_config,
            cost_model=resolved_model,
            options=opts,
            obs=obs,
        )
    assert isinstance(report, MultiplyReport)
    return result, report


def chain_cache(options: MultiplyOptions) -> PlanCache | None:
    """The cache a chain is stored in and looked up from, if any.

    None with a retry policy or a memory limit: under a policy an injected
    memory spike re-runs a pair sparse, and a limit demotes tiles at the
    end of a hop; a replay would repeat neither.
    """
    if options.resilience is not None or options.memory_limit_bytes is not None:
        return None
    return options.plan_cache


def _chain_report(
    chain: ChainPlan, outcome: FusedChainOutcome, obs: Observation | None, *, replay: bool
) -> ChainReport:
    from ..core.chain import ChainReport

    report = ChainReport(
        observation=obs,
        plan=chain,
        fused=replay,
        plan_cache_hit=replay,
        intermediates_freed=outcome.intermediates_freed,
        peak_intermediate_bytes=outcome.peak_intermediate_bytes,
    )
    for step in outcome.steps:
        report.merge_step(step)
    return report


def run_chain(
    operands: Sequence[MatrixOperand],
    *,
    options: MultiplyOptions,
    obs: Observation | None,
) -> tuple[ATMatrix, ChainReport, FusedChainPlan]:
    """Run a matrix chain of two or more operands.

    Replays the :class:`~repro.engine.plan.FusedChainPlan` cached under
    :func:`chain_cache`, if any; otherwise runs cold, hop by hop through
    :class:`ChainRun`, each hop's plan resolved through
    :func:`resolve_plan`, and records (and caches) the fused plan.
    Returns ``(result, report, fused_plan)``.
    """
    from ..core.chain import plan_chain

    if len(operands) < 2:
        raise ShapeError(
            f"a fused chain needs at least two operands, got {len(operands)}"
        )
    resolved_config = options.resolved_config()
    resolved_model = options.resolved_cost_model()
    ats = [as_at_matrix(operand, resolved_config) for operand in operands]
    fingerprints = tuple(structure_fingerprint(at) for at in ats)
    setup = _setup_key(options, resolved_config, resolved_model)
    key = ChainKey(fingerprints, setup)
    cache = chain_cache(options)

    if cache is not None:
        cached = cache.get(key)
        if isinstance(cached, FusedChainPlan):
            try:
                result, outcome = execute_fused_chain(
                    cached,
                    ats,
                    config=resolved_config,
                    cost_model=resolved_model,
                    obs=obs,
                    check_fingerprints=False,
                    cancel=options.cancel,
                )
            except PlanMismatchError:
                # Operand values changed the intermediate topology the
                # cached plan recorded; rebuild below (the put overwrites
                # the stale entry).
                pass
            else:
                report = _chain_report(cached.chain, outcome, obs, replay=True)
                return result, report, cached

    with observe_session.tracer_span(obs, "chain_plan"):
        chain = plan_chain(list(ats), config=resolved_config, cost_model=resolved_model)
    run = ChainRun(
        ats,
        len(chain.order),
        config=resolved_config,
        cost_model=resolved_model,
        obs=obs,
        resilience=options.resilience,
        cancel=options.cancel,
    )
    # Sub-chain (i, j) -> where its product comes from, and the product.
    done: dict[tuple[int, int], tuple[HopSource, ATMatrix]] = {
        (i, i): (HopSource("leaf", i), at) for i, at in enumerate(ats)
    }
    hops: list[PlannedHop] = []
    for h, (i, k, j) in enumerate(chain.order):
        (a_source, left), (b_source, right) = done[(i, k)], done[(k + 1, j)]
        hop_plan, fresh = resolve_plan(
            left,
            right,
            config=resolved_config,
            cost_model=resolved_model,
            options=options,
            obs=obs,
        )
        product, step_report = run.run_hop(hop_plan, a_source, b_source)
        if fresh:
            _fold_plan_phases(step_report, hop_plan)
        hops.append(
            PlannedHop(
                i=i,
                k=k,
                j=j,
                a_source=a_source,
                b_source=b_source,
                plan=hop_plan,
                tile_of_pair=tuple(run.tile_of_pair[h]),
                expected_tiles=tuple(run.expected_tiles[h]),
            )
        )
        done[(i, j)] = (HopSource("hop", h), product)

    schedule, frees = fused_chain_schedule(tuple(hops))
    fused = FusedChainPlan(
        operand_fingerprints=fingerprints,
        setup_key=setup,
        chain=chain,
        hops=tuple(hops),
        schedule=schedule,
        frees=frees,
        shape=(product.rows, product.cols),
    )
    if cache is not None:
        cache.put(key, fused)
    report = _chain_report(chain, run.outcome(), obs, replay=False)
    return product, report, fused
