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
from ..core.operands import MatrixOperand, as_at_matrix
from ..core.report import MultiplyReport
from ..cost.model import CostModel
from ..errors import PlanMismatchError, ShapeError
from ..observe import Observation
from ..observe import session as observe_session
from .cache import ChainKey, PlanKey
from .executor import execute_fused_chain, execute_plan
from .options import MultiplyOptions, coerce_options
from .plan import (
    ExecutionPlan,
    FusedChainPlan,
    HopSource,
    PlannedHop,
    build_plan,
    fused_chain_schedule,
)
from .fingerprint import (
    config_fingerprint,
    payload_fingerprint,
    structure_fingerprint,
)

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
    if cache is None:
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
        return built, True
    key = PlanKey(
        structure_fingerprint(at_a),
        structure_fingerprint(at_b),
        config_fingerprint(
            config,
            cost_model,
            memory_limit_bytes=options.memory_limit_bytes,
            dynamic_conversion=options.dynamic_conversion,
            use_estimation=options.use_estimation,
        ),
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
    cache.put(key, built)
    return built, True


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
            resilience=opts.resilience,
            obs=obs,
            check_fingerprints=True,
            checkpoint=opts.checkpoint,
            checkpoint_flush_pairs=opts.checkpoint_flush_pairs,
            cancel=opts.cancel,
        )
    assert isinstance(report, MultiplyReport)
    return result, report


def _expected_tiles(
    execution_plan: ExecutionPlan, result: ATMatrix
) -> tuple[
    tuple[int | None, ...], tuple[tuple[int, int, int, int, str, str], ...]
]:
    """Per-pair output-tile indices and tile identities of one hop.

    Sequential execution appends each pair's result tile (when any) in
    pair order, so walking pairs and tiles in lockstep — matching on the
    pair's output region origin — recovers which pair produced which
    tile.  The identity tuples (geometry, storage kind, payload
    fingerprint) are what the fused executor validates replayed tiles
    against.
    """
    tiles = result.tiles
    tile_of_pair: list[int | None] = []
    cursor = 0
    for pair in execution_plan.pairs:
        if (
            cursor < len(tiles)
            and tiles[cursor].row0 == pair.r0
            and tiles[cursor].col0 == pair.c0
        ):
            tile_of_pair.append(cursor)
            cursor += 1
        else:
            tile_of_pair.append(None)
    assert cursor == len(tiles)  # every result tile belongs to some pair
    expected = tuple(
        (
            tile.row0,
            tile.col0,
            tile.rows,
            tile.cols,
            tile.kind.value,
            payload_fingerprint(tile.data),
        )
        for tile in tiles
    )
    return tuple(tile_of_pair), expected


def _run_chain_cold(
    ats: list[ATMatrix],
    chain: ChainPlan,
    *,
    options: MultiplyOptions,
    config: SystemConfig,
    cost_model: CostModel,
    report: ChainReport,
    obs: Observation | None,
) -> tuple[ATMatrix, list[PlannedHop]]:
    """Execute a chain hop-by-hop, recording fused replay metadata.

    Each hop resolves through the options' plan cache (sharing per-hop
    entries with plain ``atmult`` calls) and executes sequentially, so
    the recorded ``tile_of_pair``/``expected_tiles`` describe exactly
    what a fused replay must reproduce.
    """
    from ..core.atmult import _fold_plan_phases

    sources: dict[tuple[int, int], HopSource] = {
        (i, i): HopSource("leaf", i) for i in range(len(ats))
    }
    results: dict[tuple[int, int], ATMatrix] = {
        (i, i): at for i, at in enumerate(ats)
    }
    hops: list[PlannedHop] = []
    product: ATMatrix | None = None
    for i, k, j in chain.order:
        left = results[(i, k)]
        right = results[(k + 1, j)]
        hop_plan, fresh = resolve_plan(
            left,
            right,
            config=config,
            cost_model=cost_model,
            options=options,
            obs=obs,
        )
        product, step_report = execute_plan(
            hop_plan,
            left,
            right,
            config=config,
            cost_model=cost_model,
            obs=obs,
            check_fingerprints=False,
            cancel=options.cancel,
        )
        assert isinstance(step_report, MultiplyReport)
        if fresh:
            _fold_plan_phases(step_report, hop_plan)
        report.merge_step(step_report)
        tile_of_pair, expected = _expected_tiles(hop_plan, product)
        hops.append(
            PlannedHop(
                i=i,
                k=k,
                j=j,
                a_source=sources[(i, k)],
                b_source=sources[(k + 1, j)],
                plan=hop_plan,
                out_fingerprint=structure_fingerprint(product),
                tile_of_pair=tile_of_pair,
                expected_tiles=expected,
            )
        )
        sources[(i, j)] = HopSource("hop", len(hops) - 1)
        results[(i, j)] = product
    assert product is not None
    return product, hops


def run_chain(
    operands: Sequence[MatrixOperand],
    *,
    options: MultiplyOptions,
    obs: Observation | None,
) -> tuple[ATMatrix, ChainReport, FusedChainPlan | None]:
    """Run a matrix chain through the fused chain planner.

    With a plan cache in ``options`` and a matching
    :class:`~repro.engine.plan.FusedChainPlan` cached, the whole chain
    replays as one interleaved fused execution (intermediates consumed
    while resident, freed eagerly).  Otherwise the chain is planned and
    run cold — hop by hop, recording replay metadata — and the resulting
    fused plan is cached for the next run.  Returns
    ``(result, report, fused_plan)``; the report's ``fused`` /
    ``plan_cache_hit`` flags say which path ran.
    """
    from ..core.chain import ChainReport, plan_chain

    if len(operands) < 2:
        raise ShapeError(
            f"a fused chain needs at least two operands, got {len(operands)}"
        )
    resolved_config = options.resolved_config()
    resolved_model = options.resolved_cost_model()
    ats = [as_at_matrix(operand, resolved_config) for operand in operands]
    fingerprints = tuple(structure_fingerprint(at) for at in ats)
    setup = config_fingerprint(
        resolved_config,
        resolved_model,
        memory_limit_bytes=options.memory_limit_bytes,
        dynamic_conversion=options.dynamic_conversion,
        use_estimation=options.use_estimation,
    )
    key = ChainKey(fingerprints, setup)
    cache = options.plan_cache

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
                )
            except PlanMismatchError:
                # Operand values changed the intermediate topology the
                # cached plan recorded; rebuild below (the put overwrites
                # the stale entry).
                pass
            else:
                report = ChainReport(observation=obs)
                report.plan = cached.chain
                report.fused = True
                report.plan_cache_hit = True
                for step in outcome.steps:
                    report.merge_step(step)
                report.intermediates_freed = outcome.intermediates_freed
                report.peak_intermediate_bytes = outcome.peak_intermediate_bytes
                return result, report, cached

    report = ChainReport(observation=obs)
    with observe_session.tracer_span(obs, "chain_plan"):
        chain = plan_chain(
            list(ats),
            config=resolved_config,
            cost_model=resolved_model,
            structural=True,
        )
    report.plan = chain
    result, hops = _run_chain_cold(
        ats,
        chain,
        options=options,
        config=resolved_config,
        cost_model=resolved_model,
        report=report,
        obs=obs,
    )
    schedule, frees = fused_chain_schedule(tuple(hops))
    fused = FusedChainPlan(
        operand_fingerprints=fingerprints,
        setup_key=setup,
        chain=chain,
        hops=tuple(hops),
        schedule=schedule,
        frees=frees,
        shape=(result.rows, result.cols),
    )
    if cache is not None:
        cache.put(key, fused)
    return result, report, fused
