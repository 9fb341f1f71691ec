"""Plan execution: the kernel-dispatch half of ATMULT.

:func:`execute_plan` replays an :class:`~repro.engine.plan.ExecutionPlan`
against concrete operands.  All *deciding* (estimation, water level,
kernel choice) already happened at plan time; execution walks the
planned pair list, materializes accumulators, performs the (cached)
just-in-time conversions the decisions call for and dispatches the
kernels through one of three backends:

``"sequential"``
    the pair loop run inline on the calling thread, returning a
    :class:`~repro.core.report.MultiplyReport` with
    :class:`~repro.topology.trace.TaskRecord` entries;
``"threads"``
    the same pair loop with each pair dispatched to a thread pool, one
    worker team per simulated socket
    (:class:`~repro.core.report.ParallelReport` with per-worker busy
    time);
``"processes"``
    the supervised multiprocess shard executor
    (:mod:`repro.resilience.supervisor`): pairs are sharded across OS
    worker processes, heartbeats and per-pair deadlines detect dead or
    hung workers, and their unfinished pairs are reassigned.

The per-pair logic all three backends share lives in
:class:`PairComputer`: accumulator setup, planned-decision replay (or a
live re-derivation when degradation changed the target kind), kernel
dispatch, and the resilience wrapper —
:class:`~repro.resilience.retry.ResilientPairRunner` when a policy is
given: bounded retries, result validation with reference fallback and
memory-pressure degradation.  :func:`finish` folds each pair's outcome
into the run, on every backend.

Replaying against operands whose structure fingerprint differs from the
plan's raises :class:`~repro.errors.PlanMismatchError`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..config import SystemConfig
from ..cost.model import CostModel
from ..core.atmatrix import ATMatrix
from ..core.report import (
    PHASE_MULTIPLY,
    PHASE_OPTIMIZE,
    MultiplyReport,
    ParallelReport,
)
from ..core.tile import Tile, TilePayload
from ..errors import (
    ConfigError,
    MemoryLimitError,
    OperationCancelledError,
    PlanMismatchError,
    TaskFailedError,
)
from ..formats.convert import csr_to_dense, dense_to_csr
from ..formats.csr import CSRMatrix, CSRRunView
from ..formats.dense import DenseMatrix
from ..kernels.accumulator import Accumulator, DenseAccumulator, make_accumulator
from ..kernels.registry import run_tile_product
from ..kinds import StorageKind, kernel_name
from ..observe import Observation
from ..observe import session as observe_session
from ..resilience.cancel import CancelToken
from ..resilience.checkpoint import CheckpointStore
from ..resilience.degrade import DegradationState
from ..resilience.faults import fire_hooks, task_scope
from ..resilience.guard import reference_tile_product, validate_tile
from ..resilience.report import PairOutcome, aggregate_message
from ..resilience.retry import ResilientPairRunner, RetryPolicy
from ..topology.trace import TaskRecord
from .fingerprint import payload_fingerprint, structure_fingerprint
from .plan import (
    ExecutionPlan,
    FusedChainPlan,
    HopSource,
    PlannedHop,
    PlannedPair,
    _DecisionMemo,
)

_span = observe_session.tracer_span

#: The execution backends :func:`execute_plan` dispatches between.
EXECUTION_MODES = ("sequential", "threads", "processes")


@dataclass
class _PairStats:
    """Per-attempt bookkeeping, merged into the report only on success."""

    optimize_seconds: float = 0.0
    multiply_seconds: float = 0.0
    products: int = 0
    kernel_counts: dict[str, int] = field(default_factory=dict)
    tasks: list[TaskRecord] = field(default_factory=list)


@dataclass
class _PairOutcome:
    """A pair's whole result: its tile, statistics and resilience record."""

    tile: Tile | None
    stats: _PairStats
    record: PairOutcome


class _ConversionCache:
    """The payloads one run hands its kernels, prepared once per tile.

    Decisions live in the plan, but these payloads are runtime state
    keyed by tile identity and kind.  A tile converted for one product
    is reused by every later product of the same run, and every sparse
    payload, stored or converted, reaches the kernels as a
    :class:`~repro.formats.csr.CSRRunView`, so each of its windows is
    extracted once per run.  The cache lives as long as the run's
    :class:`PairComputer`; the tiles themselves are never touched.
    """

    def __init__(self) -> None:
        self._payloads: dict[tuple[int, StorageKind], TilePayload] = {}
        # Uncontended acquisition is ~100ns, once per sparse operand of a
        # product, so sequential runs share the locked path.
        self._lock = threading.Lock()
        self.conversions = 0
        self.conversion_seconds = 0.0

    def payload(self, tile: Tile, kind: StorageKind) -> TilePayload:
        if kind is StorageKind.DENSE and tile.kind is StorageKind.DENSE:
            return tile.data
        with self._lock:
            return self._payload_locked(tile, kind)

    def _payload_locked(self, tile: Tile, kind: StorageKind) -> TilePayload:
        # id()-keyed on purpose: the key is runtime tile identity within
        # one run and never reaches plan or fingerprint content.
        key = (id(tile), kind)  # repro-lint: disable=RPR011
        cached = self._payloads.get(key)
        if cached is not None:
            return cached
        prepared: TilePayload
        if kind is tile.kind:
            assert isinstance(tile.data, CSRMatrix)
            prepared = CSRRunView(tile.data)
        else:
            start = time.perf_counter()
            if kind is StorageKind.DENSE:
                assert isinstance(tile.data, CSRMatrix)
                prepared = csr_to_dense(tile.data)
            else:
                assert isinstance(tile.data, DenseMatrix)
                prepared = CSRRunView(dense_to_csr(tile.data))
            elapsed = time.perf_counter() - start
            self.conversions += 1
            self.conversion_seconds += elapsed
            observe_session.counter("optimizer.conversions").inc()
            observe_session.histogram("optimizer.conversion_seconds").observe(elapsed)
        self._payloads[key] = prepared
        return prepared


@dataclass
class TileListView:
    """A growing result-tile list standing in for an operand.

    The fused chain executor feeds each hop's freshly produced C-tiles
    to the consuming hop as A/B tiles before the producing hop has
    finished; plans reference operand tiles by index, which is all
    :class:`PairComputer` reads, so this minimal view is enough to
    multiply against an intermediate that is still being materialized.
    """

    tiles: list[Tile] = field(default_factory=list)


#: What :class:`PairComputer` multiplies: complete AT Matrices or the
#: fused executor's in-flight intermediates.
TileOperand = ATMatrix | TileListView


def check_plan_applies(
    plan: ExecutionPlan, at_a: ATMatrix, at_b: ATMatrix
) -> None:
    """Raise :class:`PlanMismatchError` unless the plan fits the operands."""
    fp_a = structure_fingerprint(at_a)
    fp_b = structure_fingerprint(at_b)
    if fp_a != plan.a_fingerprint or fp_b != plan.b_fingerprint:
        raise PlanMismatchError(
            "operand topology does not match the plan's structure "
            f"fingerprints (A: {fp_a[:12]} vs {plan.a_fingerprint[:12]}, "
            f"B: {fp_b[:12]} vs {plan.b_fingerprint[:12]}); re-plan against "
            "the new operands"
        )


class PairComputer:
    """One pair's worth of plan replay, shared by every backend.

    Holds the per-run execution state — conversion cache, decision memo,
    degradation state, resilience runner — and computes single planned
    pairs against the operands.  The sequential loop, the thread pool
    and the supervised worker processes all drive the same instance
    shape, which is what makes the backends interchangeable: a worker
    process builds its own ``PairComputer`` from the shipped operands
    and produces outcomes indistinguishable from the in-process ones.

    ``record_tasks`` controls whether per-product
    :class:`~repro.topology.trace.TaskRecord` entries are collected
    (sequential reports only); ``busy_hook`` — when set — receives the
    wall seconds of every attempt (the thread backend attributes them to
    the current worker thread, the process backend to its shard).
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        at_a: TileOperand,
        at_b: TileOperand,
        *,
        cost_model: CostModel,
        at_c: ATMatrix | None = None,
        obs: Observation | None = None,
        resilience: RetryPolicy | None = None,
        record_tasks: bool = False,
        busy_hook: Callable[[float], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.plan = plan
        self.at_a = at_a
        self.at_b = at_b
        self.at_c = at_c
        self.cost_model = cost_model
        self.obs = obs
        self.record_tasks = record_tasks
        self.busy_hook = busy_hook
        self.cancel = cancel
        self.conversions = _ConversionCache()
        self.memo = _DecisionMemo(cost_model, plan.dynamic_conversion)
        self.degradation: DegradationState | None = None
        self.runner: ResilientPairRunner | None = None
        self._policy = resilience

    def bind_resilience(self, config: SystemConfig) -> None:
        """Create the degradation state and runner for ``config``.

        Separate from ``__init__`` because a worker process learns its
        system config from the shipped shard contract, not the plan.
        """
        if self._policy is None:
            return
        # Both writes happen on the orchestrating thread before any
        # worker thread is started; threaded pair execution only reads
        # these attributes, so no lock is needed.
        self.degradation = DegradationState(  # repro-lint: disable=RPR012
            self.plan.estimate,
            self.plan.memory_limit_bytes,
            config,
            self.plan.write_threshold,
        )
        self.runner = ResilientPairRunner(  # repro-lint: disable=RPR012
            self._policy, self.degradation
        )

    # -- per-pair execution ----------------------------------------------
    def compute(
        self, pair: PlannedPair, force_sparse: bool, use_reference: bool = False
    ) -> _PairOutcome:
        """One full pair computation (one attempt), stats kept local so a
        retried attempt cannot double-count into the report."""
        attempt_start = time.perf_counter()
        stats = _PairStats()
        record = PairOutcome(pair=(pair.ti, pair.tj), attempts=1)
        obs = self.obs
        plan = self.plan
        degradation = self.degradation
        attrs = (
            {"ti": pair.ti, "tj": pair.tj, "force_sparse": force_sparse}
            if obs is not None
            else None
        )
        try:
            with _span(obs, "pair", "pair", attrs):
                fire_hooks("pair", (pair.ti, pair.tj))
                if not pair.products and self.at_c is None:
                    # Nothing to add up (every product may have been
                    # pruned at plan time): no accumulator, no tile.
                    return _PairOutcome(None, stats, record)
                threshold = (
                    degradation.threshold
                    if degradation is not None
                    else plan.write_threshold
                )
                c_kind = (
                    StorageKind.SPARSE
                    if force_sparse or pair.rho_c < threshold
                    else StorageKind.DENSE
                )
                # A degraded target kind invalidates the planned input
                # decisions for this pair; re-derive them live.
                replan = c_kind is not pair.c_kind
                accumulator = make_accumulator(
                    c_kind, pair.r1 - pair.r0, pair.c1 - pair.c0
                )
                if self.at_c is not None:
                    _seed_accumulator(
                        accumulator, self.at_c, pair.r0, pair.r1, pair.c0, pair.c1
                    )
                seeded = accumulator.writes > 0
                for product in pair.products:
                    a_tile = self.at_a.tiles[product.a_index]
                    b_tile = self.at_b.tiles[product.b_index]
                    start = time.perf_counter()
                    if use_reference:
                        payload_a, payload_b = a_tile.data, b_tile.data
                        opt_elapsed = time.perf_counter() - start
                        start = time.perf_counter()
                        reference_tile_product(
                            payload_a, product.wa, payload_b, product.wb,
                            accumulator, product.target_row, product.target_col,
                        )
                        name = kernel_name(
                            a_tile.kind, b_tile.kind, c_kind
                        )
                    else:
                        if replan:
                            kind_a, kind_b = self.memo.decide(
                                a_tile.kind, b_tile.kind, c_kind,
                                product.wa.rows, product.wa.cols, product.wb.cols,
                                a_tile.structural_density,
                                b_tile.structural_density,
                                pair.rho_c,
                            )
                        else:
                            kind_a, kind_b = product.kind_a, product.kind_b
                        name = kernel_name(kind_a, kind_b, c_kind)
                        payload_a = self.conversions.payload(a_tile, kind_a)
                        payload_b = self.conversions.payload(b_tile, kind_b)
                        opt_elapsed = time.perf_counter() - start
                        start = time.perf_counter()
                        run_tile_product(
                            payload_a, product.wa, payload_b, product.wb,
                            accumulator, product.target_row, product.target_col,
                        )
                    mult_elapsed = time.perf_counter() - start
                    stats.optimize_seconds += opt_elapsed
                    stats.multiply_seconds += mult_elapsed
                    stats.products += 1
                    stats.kernel_counts[name] = (
                        stats.kernel_counts.get(name, 0) + 1
                    )
                    if self.record_tasks:
                        stats.tasks.append(
                            TaskRecord(
                                pair=(pair.ti, pair.tj),
                                team_node=pair.team_node,
                                seconds=opt_elapsed + mult_elapsed,
                                bytes_by_node={
                                    a_tile.numa_node: a_tile.memory_bytes(),
                                    b_tile.numa_node: b_tile.memory_bytes(),
                                },
                            )
                        )
                    if obs is not None and not use_reference:
                        obs.metrics.histogram(
                            f"kernel.seconds.{name}"
                        ).observe(mult_elapsed)
                        predicted = self.cost_model.product_cost(
                            kind_a, kind_b, c_kind,
                            product.wa.rows, product.wa.cols, product.wb.cols,
                            a_tile.density, b_tile.density, pair.rho_c,
                        )
                        obs.cost_accuracy.record(name, predicted, mult_elapsed)

                start = time.perf_counter()
                tile: Tile | None = None
                if stats.products or seeded:
                    payload = accumulator.finalize()
                    if payload.nnz or isinstance(accumulator, DenseAccumulator):
                        candidate = Tile(
                            pair.r0,
                            pair.c0,
                            pair.r1 - pair.r0,
                            pair.c1 - pair.c0,
                            c_kind,
                            payload,
                            numa_node=pair.team_node,
                        )
                        if candidate.nnz:
                            tile = candidate
                stats.multiply_seconds += time.perf_counter() - start
                if obs is not None:
                    obs.metrics.counter("accumulator.writes").inc(
                        accumulator.writes
                    )
                    for index in pair.a_strip:
                        t = self.at_a.tiles[index]
                        obs.metrics.counter(
                            f"numa.bytes.node{t.numa_node}"
                        ).inc(t.memory_bytes())
                    for index in pair.b_strip:
                        t = self.at_b.tiles[index]
                        obs.metrics.counter(
                            f"numa.bytes.node{t.numa_node}"
                        ).inc(t.memory_bytes())
                if (
                    degradation is not None
                    and not force_sparse
                    and tile is not None
                    and tile.kind is StorageKind.DENSE
                    and degradation.over_budget(tile.memory_bytes())
                ):
                    raise MemoryLimitError(
                        f"pair {(pair.ti, pair.tj)} dense tile of "
                        f"{tile.memory_bytes()} B would exceed the memory budget"
                    )
                return _PairOutcome(tile, stats, record)
        finally:
            if self.busy_hook is not None:
                self.busy_hook(time.perf_counter() - attempt_start)

    def validate(self, pair: PlannedPair, outcome: _PairOutcome) -> None:
        if outcome.tile is None:
            return
        validate_tile(
            outcome.tile.data,
            pair.r1 - pair.r0,
            pair.c1 - pair.c0,
            pair.rho_c if self.plan.estimate is not None else None,
            pair=(pair.ti, pair.tj),
        )

    def run_pair(self, pair: PlannedPair) -> _PairOutcome:
        """Execute one pair under the resilience policy, if any.

        Returns the pair's tile, statistics and record (one attempt
        without a policy) after spending the tile's bytes from the
        degradation budget, in a worker process too.

        Checks the cancel token first, so cancellation/deadline expiry
        is observed at tile-pair granularity: a pair that already
        started runs to completion (and is journaled), the next one
        raises before doing any work.
        """
        if self.cancel is not None:
            self.cancel.check()
        coords = (pair.ti, pair.tj)
        if self.runner is None:
            with task_scope(coords, 1):
                outcome = self.compute(pair, False)
        else:
            result, record = self.runner.run(
                coords,
                lambda force_sparse: self.compute(pair, force_sparse),
                validate=lambda res: self.validate(pair, res),
                fallback=lambda force_sparse: self.compute(
                    pair, force_sparse, use_reference=True
                ),
            )
            outcome = _PairOutcome(result.tile, result.stats, record)
        if outcome.tile is not None:
            self.note_completed(pair, outcome.tile.memory_bytes())
        return outcome

    def note_completed(self, pair: PlannedPair, nbytes: int) -> None:
        """Account a finished pair's memory against the degradation budget."""
        if self.degradation is not None:
            self.degradation.note_completed(pair.r0, pair.r1, pair.c0, pair.c1, nbytes)

    def note_resumed(self, resumed: Sequence[tuple[int, int]]) -> None:
        """Spend the ``(plan pair index, tile bytes)`` of checkpointed pairs."""
        for index, nbytes in resumed:
            self.note_completed(self.plan.pairs[index], nbytes)


def finish(
    report: MultiplyReport | ParallelReport,
    coords: tuple[int, int],
    result: _PairOutcome | Exception,
    settle: Callable[[Tile | None], None],
    guard: AbstractContextManager[object] = nullcontext(),
) -> None:
    """Fold one pair's :meth:`PairComputer.run_pair` result (or error) into its run.

    Merges the record and statistics under ``guard`` (the thread
    backend's report lock), then hands the tile to ``settle``.  An error
    is recorded with the failed record it carries as ``outcome``, or,
    without one (no policy), as the one attempt that ran.
    """
    failure = report.failure
    if isinstance(result, Exception):
        record = getattr(result, "outcome", None) or PairOutcome(coords, attempts=1)
        with guard:
            failure.merge_outcome(record)
            failure.record_error(coords, result)
        return
    with guard:
        failure.merge_outcome(result.record)
        _account(report, result.stats)
    settle(result.tile)


def execute_plan(
    plan: ExecutionPlan,
    at_a: ATMatrix,
    at_b: ATMatrix,
    at_c: ATMatrix | None = None,
    *,
    config: SystemConfig,
    cost_model: CostModel,
    resilience: RetryPolicy | None = None,
    obs: Observation | None = None,
    workers: int = 1,
    execution: str = "sequential",
    heartbeat_interval: float,
    pair_deadline_seconds: float | None = None,
    check_fingerprints: bool = True,
    checkpoint: CheckpointStore | None = None,
    checkpoint_flush_pairs: int = 1,
    cancel: CancelToken | None = None,
    startup_grace_seconds: float,
) -> tuple[ATMatrix, MultiplyReport | ParallelReport]:
    """Execute a plan against operands of matching topology.

    ``execution`` selects the backend (:data:`EXECUTION_MODES`).  The
    backends differ only in who runs the pending pairs:

    * ``"sequential"`` runs them inline on the calling thread, fails
      fast with the pair's own error and returns a
      :class:`MultiplyReport` with per-product phases and task records;
    * ``"threads"`` dispatches them to a ``workers``-sized thread pool
      (one per simulated socket) and returns a :class:`ParallelReport`
      with per-worker busy time and the pair-loop wall time;
    * ``"processes"`` hands them to
      :func:`repro.resilience.supervisor.run_supervised` — worker
      processes with ``heartbeat_interval``-spaced liveness reporting,
      an optional per-pair dispatch deadline and
      ``startup_grace_seconds`` for a run's first heartbeat —
      and returns a :class:`ParallelReport` that also carries the
      worker records, deaths and reassignments.

    Everything around that is shared: the report, checkpoint resume,
    the :func:`finish` step every completed or failed pair goes
    through, the aggregated :class:`~repro.errors.TaskFailedError` of
    the parallel backends (raised after every pair has settled), the
    result assembled in plan pair order and the memory-SLA repair.
    ``at_c`` seeding is sequential-only.

    With a ``checkpoint`` store, pairs already present in its journal
    are restored instead of re-executed (counted as
    ``failure.pairs_resumed``), and every completed pair is journaled by
    this process — durably flushed after each ``checkpoint_flush_pairs``
    completions on every backend — so a killed process resumes from the
    last flush.  A :class:`KeyboardInterrupt` in any backend flushes the
    buffered records before propagating, so Ctrl-C costs nothing that
    was already computed.

    A ``cancel`` token is polled at tile-pair boundaries in every
    backend; when it trips, the run flushes the checkpoint exactly like
    Ctrl-C and unwinds with
    :class:`~repro.errors.OperationCancelledError` (or its
    :class:`~repro.errors.DeadlineExceededError` specialization), so a
    cancelled or deadline-expired multiplication is resumable.
    """
    if execution not in EXECUTION_MODES:
        raise ConfigError(
            f"unknown execution mode {execution!r}; expected one of "
            f"{EXECUTION_MODES}"
        )
    if execution != "sequential" and at_c is not None:
        raise PlanMismatchError("C seeding is not supported in parallel execution")
    if check_fingerprints:
        check_plan_applies(plan, at_a, at_b)

    report: MultiplyReport | ParallelReport
    if execution == "sequential":
        report = MultiplyReport(
            observation=obs,
            write_threshold=plan.write_threshold,
            water_level=plan.water_level,
        )
    else:
        report = ParallelReport(
            pairs=len(plan.pairs), workers=max(1, workers), observation=obs
        )
        if obs is not None:
            obs.metrics.gauge("workers").set(report.workers)

    # Result tiles by pair index, so every backend (and resumed runs)
    # assembles the result in plan pair order.
    tiles: list[Tile | None] = [None] * len(plan.pairs)
    completed: dict[tuple[int, int], Tile | None] = (
        checkpoint.begin(plan) if checkpoint is not None else {}
    )
    pending: list[int] = []
    resumed: list[tuple[int, int]] = []  # (index, tile bytes), for the budget
    for index, pair in enumerate(plan.pairs):
        coords = (pair.ti, pair.tj)
        if coords in completed:
            tile = tiles[index] = completed[coords]
            report.failure.pairs_resumed += 1
            if tile is not None:
                resumed.append((index, tile.memory_bytes()))
        else:
            pending.append(index)

    # The in-process backends share one PairComputer; worker threads
    # finish pairs under a lock, the sequential loop on one thread takes
    # none, and the supervisor finishes them on this thread.
    computer: PairComputer | None = None
    guard: AbstractContextManager[object] = nullcontext()
    if execution != "processes":
        busy_hook: Callable[[float], None] | None = None
        if isinstance(report, ParallelReport):
            lock = threading.Lock()
            guard = lock
            busy_hook = _thread_busy_hook(report, obs, lock)
        computer = PairComputer(
            plan,
            at_a,
            at_b,
            cost_model=cost_model,
            at_c=at_c,
            obs=obs,
            resilience=resilience,
            record_tasks=isinstance(report, MultiplyReport),
            busy_hook=busy_hook,
            cancel=cancel,
        )
        computer.bind_resilience(config)
        computer.note_resumed(resumed)

    def settle(index: int, tile: Tile | None) -> None:
        """Keep one completed pair's tile and journal it."""
        tiles[index] = tile
        if checkpoint is not None:
            pair = plan.pairs[index]
            checkpoint.record((pair.ti, pair.tj), tile)
            if checkpoint.pending() >= checkpoint_flush_pairs:
                checkpoint.flush()

    def finish_pair(index: int, result: _PairOutcome | Exception) -> None:
        pair = plan.pairs[index]
        finish(report, (pair.ti, pair.tj), result, partial(settle, index), guard)

    def run(index: int) -> None:
        assert computer is not None
        finish_pair(index, computer.run_pair(plan.pairs[index]))

    start = time.perf_counter()
    try:
        with _span(
            obs, "pair_loop", attrs={"pairs": len(plan.pairs)} if obs else None
        ):
            if computer is None:
                assert isinstance(report, ParallelReport)
                # Imported lazily: the supervisor reaches back into this
                # module (through engine.shard) for the worker-side
                # PairComputer.
                from ..resilience.supervisor import run_supervised

                index_of = {
                    (plan.pairs[index].ti, plan.pairs[index].tj): index
                    for index in pending
                }
                run_supervised(
                    plan,
                    at_a,
                    at_b,
                    [plan.pairs[index] for index in pending],
                    lambda coords, result: finish_pair(index_of[coords], result),
                    resumed,
                    report=report,
                    config=config,
                    cost_model=cost_model,
                    resilience=resilience,
                    obs=obs,
                    heartbeat_interval=heartbeat_interval,
                    pair_deadline_seconds=pair_deadline_seconds,
                    cancel=cancel,
                    startup_grace_seconds=startup_grace_seconds,
                )
            elif isinstance(report, ParallelReport):
                _run_on_pool(run, finish_pair, pending, report.workers)
            else:
                for index in pending:
                    run(index)
        if cancel is not None and cancel.cancelled:
            # Worker threads skip their pairs once the token trips;
            # raise once here, with everything that finished journaled.
            cancel.check()
    except (KeyboardInterrupt, OperationCancelledError):
        if checkpoint is not None:
            checkpoint.flush()
            report.checkpoint_flushes = checkpoint.flushes
        raise
    if isinstance(report, ParallelReport):
        report.phase_seconds[PHASE_MULTIPLY] = time.perf_counter() - start
    if computer is not None:
        report.conversions = computer.conversions.conversions
    if checkpoint is not None:
        checkpoint.flush()
        report.checkpoint_flushes = checkpoint.flushes
    if report.failure.pair_errors:
        raise TaskFailedError(
            aggregate_message(report.failure.pair_errors, len(plan.pairs)),
            pair_errors=report.failure.pair_errors,
            report=report,
        )

    result = ATMatrix(
        plan.shape[0],
        plan.shape[1],
        config,
        [tile for tile in tiles if tile is not None],
    )
    limit = plan.memory_limit_bytes
    if limit is not None and not np.isinf(limit):
        start = time.perf_counter()
        with _span(obs, "memory_limit_enforce"):
            enforce_memory_limit(result, limit)
        report.add_phase(PHASE_OPTIMIZE, time.perf_counter() - start)
    return result, report


def _account(report: MultiplyReport | ParallelReport, stats: _PairStats) -> None:
    """Merge one executed pair's statistics into the run's report."""
    report.pairs_executed += 1
    report.merge_kernel_counts(stats.kernel_counts)
    if isinstance(report, ParallelReport):
        report.products += stats.products
    else:
        report.add_phase(PHASE_OPTIMIZE, stats.optimize_seconds)
        report.add_phase(PHASE_MULTIPLY, stats.multiply_seconds)
        report.tasks.extend(stats.tasks)


def _thread_busy_hook(
    report: ParallelReport, obs: Observation | None, lock: threading.Lock
) -> Callable[[float], None]:
    """Attribute each attempt's wall seconds to the worker thread running it."""

    def hook(elapsed: float) -> None:
        name = threading.current_thread().name
        with lock:
            report.worker_busy_seconds[name] = (
                report.worker_busy_seconds.get(name, 0.0) + elapsed
            )
        if obs is not None:
            obs.metrics.counter(f"worker.busy_seconds.{name}").inc(elapsed)

    return hook


def _run_on_pool(
    run: Callable[[int], None],
    finish_pair: Callable[[int, Exception], None],
    pending: list[int],
    workers: int,
) -> None:
    """Run the pending pair indices on a ``workers``-sized thread pool.

    A failing pair does not stop the others: its error is finished and
    the caller raises one aggregated error after the pool drains.
    """

    def run_captured(index: int) -> None:
        try:
            run(index)
        except OperationCancelledError:
            # Not a pair failure: the token tripped before this pair
            # started, and the caller re-raises after the drain.
            pass
        except Exception as error:  # noqa: BLE001 — aggregated after the pool drains
            finish_pair(index, error)

    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="team")
    try:
        for _ in pool.map(run_captured, pending):
            pass
    except KeyboardInterrupt:
        # Tear the pool down without waiting for queued pairs; the
        # caller flushes what finished before the CLI prints its exit.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        pool.shutdown(wait=True)


def enforce_memory_limit(result: ATMatrix, memory_limit_bytes: float) -> int:
    """Demote dense result tiles to CSR until the matrix fits the limit.

    The water-level threshold acts on *estimated* densities, so the
    materialized result can overshoot the SLA by the estimation error.
    This repair pass converts dense tiles to sparse in ascending density
    order (each such conversion shrinks a tile with density < S_d/S_sp)
    until the limit holds.  Returns the number of demoted tiles; raises
    :class:`MemoryLimitError` when even the all-sparse layout does not
    fit.
    """
    total = result.memory_bytes()
    if total <= memory_limit_bytes:
        return 0
    demotable = sorted(
        (
            tile
            for tile in result.tiles
            if isinstance(tile.data, DenseMatrix)
        ),
        key=lambda tile: tile.density,
    )
    demoted = 0
    for tile in demotable:
        if total <= memory_limit_bytes:
            break
        sparse_payload = dense_to_csr(tile.data)
        if sparse_payload.memory_bytes() >= tile.memory_bytes():
            continue  # denser than S_d/S_sp: demotion would not shrink it
        total += sparse_payload.memory_bytes() - tile.memory_bytes()
        result.replace_tile(tile, tile.with_payload(sparse_payload))
        demoted += 1
    if total > memory_limit_bytes:
        raise MemoryLimitError(
            f"result needs {total:.0f} B even all-sparse; limit is "
            f"{memory_limit_bytes:.0f} B"
        )
    return demoted


@dataclass
class FusedChainOutcome:
    """Execution-side summary of one chain run.

    One sequential-style :class:`~repro.core.report.MultiplyReport` per
    hop (in hop order), plus the lifetime accounting the eager freeing
    produced: how many intermediate tiles were released before the end
    of the run and the peak number of intermediate bytes ever resident.
    """

    steps: list[MultiplyReport]
    intermediates_freed: int = 0
    peak_intermediate_bytes: int = 0


def _tile_identity(tile: Tile) -> tuple[int, int, int, int, str, str]:
    """What a fused plan records of one output tile: geometry, kind, payload."""
    geometry = (tile.row0, tile.col0, tile.rows, tile.cols)
    return (*geometry, tile.kind.value, payload_fingerprint(tile.data))


class ChainRun:
    """The one code path that runs a matrix chain's tile pairs.

    Each hop (:meth:`add_hop`, in chain order) gets one
    :class:`PairComputer` and one report, and its output grows in a
    :class:`TileListView` that later hops read while it is produced.  A
    cold run (:meth:`run_hop`) *records* which pair made which tile; a
    replay (:func:`execute_fused_chain`) *checks* each tile against it.
    """

    def __init__(
        self,
        leaves: Sequence[ATMatrix],
        hops: int,
        *,
        config: SystemConfig,
        cost_model: CostModel,
        obs: Observation | None = None,
        resilience: RetryPolicy | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.leaves = leaves
        self.root = hops - 1
        self.config = config
        self.cost_model = cost_model
        self.obs = obs
        self.resilience = resilience
        self.cancel = cancel
        self.views: list[TileListView] = []
        self.computers: list[PairComputer] = []
        self.reports: list[MultiplyReport] = []
        self.tile_of_pair: list[list[int | None]] = []
        self.expected_tiles: list[list[tuple[int, int, int, int, str, str]]] = []
        self.current_bytes = self.peak_bytes = self.freed = 0

    def add_hop(
        self, plan: ExecutionPlan, a_source: HopSource, b_source: HopSource
    ) -> MultiplyReport:
        """Set up the next hop's pair computer, report and output view."""
        a, b = (
            self.leaves[source.index] if source.kind == "leaf" else self.views[source.index]
            for source in (a_source, b_source)
        )
        report = MultiplyReport(
            observation=self.obs,
            write_threshold=plan.write_threshold,
            water_level=plan.water_level,
        )
        computer = PairComputer(
            plan,
            a,
            b,
            cost_model=self.cost_model,
            obs=self.obs,
            resilience=self.resilience,
            record_tasks=True,
            cancel=self.cancel,
        )
        computer.bind_resilience(self.config)
        self.computers.append(computer)
        self.reports.append(report)
        self.views.append(TileListView())
        self.tile_of_pair.append([])
        self.expected_tiles.append([])
        return report

    def step(
        self,
        h: int,
        p: int,
        *,
        recorded: PlannedHop | None = None,
        frees: Sequence[int] = (),
    ) -> None:
        """Run pair ``p`` of hop ``h``, then release the ``frees`` hops.

        A tile that differs from the ``recorded`` hop's raises
        :class:`~repro.errors.PlanMismatchError`; without one it is recorded.
        """
        computer = self.computers[h]
        pair = computer.plan.pairs[p]
        keep = partial(self._keep, h, p, recorded)
        finish(self.reports[h], (pair.ti, pair.tj), computer.run_pair(pair), keep)
        for dead in frees:
            tiles = self.views[dead].tiles
            self.current_bytes -= sum(t.memory_bytes() for t in tiles)
            self.freed += len(tiles)
            tiles.clear()
            if self.obs is not None:
                self.obs.metrics.counter("fused.intermediates_freed").inc()

    def _keep(self, h: int, p: int, recorded: PlannedHop | None, tile: Tile | None) -> None:
        """Check (or record) the tile pair ``p`` of hop ``h`` produced and keep it."""
        identity = _tile_identity(tile) if tile is not None else None
        if recorded is not None:
            index = recorded.tile_of_pair[p]
            expected = None if index is None else recorded.expected_tiles[index]
            if identity != expected:
                raise PlanMismatchError(
                    f"hop {h} pair {p} produced {_describe_tile(identity)} where "
                    f"the fused plan recorded {_describe_tile(expected)}; operand "
                    "values changed the intermediate topology — re-plan the chain"
                )
        else:
            expected = self.expected_tiles[h]
            self.tile_of_pair[h].append(None if identity is None else len(expected))
            if identity is not None:
                expected.append(identity)
        if tile is not None:
            self.views[h].tiles.append(tile)
            if h != self.root:
                self.current_bytes += tile.memory_bytes()
                self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def run_hop(
        self, plan: ExecutionPlan, a_source: HopSource, b_source: HopSource
    ) -> tuple[ATMatrix, MultiplyReport]:
        """Cold: add a hop whose sources are complete and run all its pairs.

        An intermediate has one consumer, whose last pair frees it.  The
        output shares the hop's tile list, so tiles demoted to meet a
        finite ``memory_limit_bytes`` are what consumers read and record.
        """
        report = self.add_hop(plan, a_source, b_source)
        h = len(self.reports) - 1
        consumed = [s.index for s in (a_source, b_source) if s.kind == "hop"]
        last = len(plan.pairs) - 1
        attrs = {"pairs": last + 1} if self.obs is not None else None
        with _span(self.obs, "pair_loop", attrs=attrs):
            for p in range(last + 1):
                self.step(h, p, frees=consumed if p == last else ())
        tiles = self.views[h].tiles
        result = ATMatrix(plan.shape[0], plan.shape[1], self.config, tiles)
        limit = plan.memory_limit_bytes
        if limit is not None and not np.isinf(limit):
            before = result.memory_bytes()
            start = time.perf_counter()
            with _span(self.obs, "memory_limit_enforce"):
                if enforce_memory_limit(result, limit):
                    self.expected_tiles[h] = [_tile_identity(t) for t in tiles]
                    if h != self.root:
                        self.current_bytes += result.memory_bytes() - before
            report.add_phase(PHASE_OPTIMIZE, time.perf_counter() - start)
        return result, report

    def outcome(self) -> FusedChainOutcome:
        """The per-hop reports and lifetime accounting of this run."""
        for computer, report in zip(self.computers, self.reports, strict=True):
            report.conversions = computer.conversions.conversions
        if self.obs is not None:
            self.obs.metrics.gauge("fused.peak_intermediate_bytes").set(
                self.peak_bytes
            )
        return FusedChainOutcome(
            steps=self.reports,
            intermediates_freed=self.freed,
            peak_intermediate_bytes=self.peak_bytes,
        )


def _describe_tile(identity: tuple[int, int, int, int, str, str] | None) -> str:
    if identity is None:
        return "no tile"
    return f"tile {identity[:5]} (fingerprint {identity[5][:12]})"


def execute_fused_chain(
    fused: FusedChainPlan,
    leaves: Sequence[ATMatrix],
    *,
    config: SystemConfig,
    cost_model: CostModel,
    obs: Observation | None = None,
    check_fingerprints: bool = True,
    cancel: CancelToken | None = None,
) -> tuple[ATMatrix, FusedChainOutcome]:
    """Replay a fused chain plan against matching leaf operands.

    Walks the plan's interleaved ``(hop, pair)`` schedule through
    :meth:`ChainRun.step`: a pair whose operand side is an earlier hop
    reads that hop's freshly produced tiles, so intermediates are
    consumed while still resident instead of hop-by-hop behind
    barriers, and ``fused.frees`` releases each intermediate the moment
    its last consumer pair has run.  ``cancel`` is polled before every
    pair.

    Intermediate topology depends on operand *values* (cancellation,
    density quantization), not only on the leaf structures the chain is
    keyed by, so every produced tile is validated incrementally against
    the plan's recorded geometry/kind/payload fingerprint; any
    divergence raises :class:`~repro.errors.PlanMismatchError` and the
    caller falls back to a cold rebuild.
    """
    if len(leaves) != len(fused.operand_fingerprints):
        raise PlanMismatchError(
            f"fused chain plan expects {len(fused.operand_fingerprints)} "
            f"operands, got {len(leaves)}"
        )
    if check_fingerprints:
        for index, (leaf, expected_fp) in enumerate(
            zip(leaves, fused.operand_fingerprints, strict=True)
        ):
            fp = structure_fingerprint(leaf)
            if fp != expected_fp:
                raise PlanMismatchError(
                    f"chain operand {index} topology does not match the "
                    f"fused plan ({fp[:12]} vs {expected_fp[:12]}); re-plan "
                    "against the new operands"
                )

    run = ChainRun(
        leaves,
        len(fused.hops),
        config=config,
        cost_model=cost_model,
        obs=obs,
        cancel=cancel,
    )
    for hop in fused.hops:
        run.add_hop(hop.plan, hop.a_source, hop.b_source)
    attrs = (
        {"hops": len(fused.hops), "steps": len(fused.schedule)}
        if obs is not None
        else None
    )
    with _span(obs, "fused_execute", attrs=attrs):
        for step, (h, p) in enumerate(fused.schedule):
            run.step(h, p, recorded=fused.hops[h], frees=fused.frees[step])
    result = ATMatrix(fused.shape[0], fused.shape[1], config, run.views[-1].tiles)
    return result, run.outcome()


def _seed_accumulator(
    accumulator: Accumulator, at_c: ATMatrix, r0: int, r1: int, c0: int, c1: int
) -> None:
    """Add the prior C content of a region into a fresh accumulator."""
    for tile in at_c.tiles_overlapping(r0, r1, c0, c1):
        row_lo = max(r0, tile.row0)
        row_hi = min(r1, tile.row1)
        col_lo = max(c0, tile.col0)
        col_hi = min(c1, tile.col1)
        if isinstance(tile.data, DenseMatrix):
            view = tile.data.window_view(
                row_lo - tile.row0, row_hi - tile.row0,
                col_lo - tile.col0, col_hi - tile.col0,
            )
            accumulator.add_dense(row_lo - r0, col_lo - c0, view)
        else:
            rows, cols, values = tile.data.window_mask(
                row_lo - tile.row0, row_hi - tile.row0,
                col_lo - tile.col0, col_hi - tile.col0,
            )
            accumulator.add_triples(row_lo - r0, col_lo - c0, rows, cols, values)
