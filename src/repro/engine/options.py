"""The consolidated multiply configuration: :class:`MultiplyOptions`.

Every execution knob of a multiplication — memory limit, ablation
flags, resilience, observer, worker count, backend, checkpointing,
cancellation — lives on one frozen value object that ``atmult``,
``parallel_atmult``, ``multiply_chain``, the solvers and
:class:`~repro.engine.session.Session` all accept as ``options=``.
:func:`coerce_options` folds the ``config``/``cost_model``/
``plan_cache`` context keywords some entry points also take into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..config import DEFAULT_CONFIG, SystemConfig
from ..cost.model import CostModel
from ..errors import ConfigError
from ..observe import Observation
from ..resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.cancel import CancelToken
    from ..resilience.checkpoint import CheckpointStore
    from .cache import PlanCache


@dataclass(frozen=True)
class MultiplyOptions:
    """Everything a multiplication needs besides its operands.

    Parameters
    ----------
    config:
        System configuration; ``None`` means the library default.
    cost_model:
        Cost oracle for planning and kernel selection; ``None`` creates
        a default model.
    memory_limit_bytes:
        Memory SLA for the output matrix (water-level method).
    dynamic_conversion:
        Enable just-in-time input conversions (ablation step 6).
    use_estimation:
        Enable density estimation and dense target tiles (ablation
        step 3+).
    resilience:
        A :class:`~repro.resilience.RetryPolicy`, or ``None`` for
        fail-fast execution.
    observer:
        An :class:`~repro.observe.Observation` activated for the call.
    workers:
        Worker-team count override for parallel execution (``None``
        uses the topology's socket count).
    execution:
        Parallel backend: ``"threads"`` (default — one worker thread
        per simulated socket) or ``"processes"`` (the supervised
        multiprocess shard executor, see docs/RESILIENCE.md).  Ignored
        by the sequential entry points.  Both backends return results
        bit-identical to the sequential path.
    heartbeat_interval_seconds:
        Cadence of worker liveness heartbeats under
        ``execution="processes"``; a worker whose heartbeat goes stale
        is killed and its pairs are reassigned.
    pair_deadline_seconds:
        Per-pair dispatch deadline under ``execution="processes"``:
        a worker spending longer than this on one pair is declared hung
        (``None`` disables the deadline).  Distinct from the retry
        layer's ``task_deadline_seconds``, which measures a single
        attempt inside a live worker.
    plan_cache:
        A :class:`~repro.engine.cache.PlanCache`; when set, planning is
        skipped whenever a cached :class:`~repro.engine.plan.ExecutionPlan`
        matches the operand topologies and this configuration.
    checkpoint:
        A :class:`~repro.resilience.checkpoint.CheckpointStore`; when
        set, every completed tile-pair is journaled to its spill
        directory and pairs already present in the journal are restored
        instead of re-executed (crash-safe resume).
    checkpoint_flush_pairs:
        Flush the checkpoint journal after this many completed pairs
        (default 1: flush every pair — maximally durable).  Larger
        values trade recovery granularity for fewer fsyncs.
    cancel:
        A :class:`~repro.resilience.CancelToken` polled at tile-pair
        boundaries; when it trips (explicit cancel or deadline expiry)
        the run flushes its checkpoint and unwinds with
        :class:`~repro.errors.OperationCancelledError` /
        :class:`~repro.errors.DeadlineExceededError`.
    startup_grace_seconds:
        Under ``execution="processes"``, how long a worker may take to
        post the first heartbeat of a run before it is declared stale.
        Only a freshly started worker comes near it (interpreter +
        import cost on cold machines); a warm one from an earlier call
        beats as soon as it has unpickled the run.
    """

    config: SystemConfig | None = None
    cost_model: CostModel | None = None
    memory_limit_bytes: float | None = None
    dynamic_conversion: bool = True
    use_estimation: bool = True
    resilience: RetryPolicy | None = None
    observer: Observation | None = None
    workers: int | None = None
    execution: str = "threads"
    heartbeat_interval_seconds: float = 0.25
    pair_deadline_seconds: float | None = None
    plan_cache: PlanCache | None = field(default=None, compare=False)
    checkpoint: CheckpointStore | None = field(default=None, compare=False)
    checkpoint_flush_pairs: int = 1
    cancel: CancelToken | None = field(default=None, compare=False)
    startup_grace_seconds: float = 10.0

    def replace(self, **changes: Any) -> MultiplyOptions:
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def resolved_config(self) -> SystemConfig:
        return self.config or DEFAULT_CONFIG

    def resolved_cost_model(self) -> CostModel:
        return self.cost_model or CostModel()


def coerce_options(
    options: MultiplyOptions | None,
    *,
    config: SystemConfig | None = None,
    cost_model: CostModel | None = None,
    plan_cache: PlanCache | None = None,
) -> MultiplyOptions:
    """``options`` (or the defaults) with the given context folded in.

    Each of ``config``/``cost_model``/``plan_cache`` that is not
    ``None`` replaces the matching ``options`` field.
    """
    base = options if options is not None else MultiplyOptions()
    explicit = {
        name: value
        for name, value in (
            ("config", config),
            ("cost_model", cost_model),
            ("plan_cache", plan_cache),
        )
        if value is not None
    }
    return base.replace(**explicit) if explicit else base


def reject_checkpoint(options: MultiplyOptions, where: str) -> None:
    """Refuse a checkpoint: a journal holds one product, ``where`` runs many."""
    if options.checkpoint is not None:
        raise ConfigError(
            f"{where} does not take a checkpoint: a CheckpointStore journals "
            "one product under one plan; checkpointing applies to "
            "Session.multiply and `repro multiply --checkpoint-dir`"
        )
