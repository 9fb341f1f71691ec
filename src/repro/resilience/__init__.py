"""Resilient execution for ATMULT: faults, retries, guards, recovery.

The paper's operators assume every tile product succeeds; this package
makes the engine safe to run unattended (see ``docs/RESILIENCE.md``):

* :mod:`~repro.resilience.faults` — deterministic, seeded fault
  injection at named hook points in the kernel registry and the pair
  executors;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` and the shared
  per-pair attempt loop (bounded attempts, exponential backoff with
  deterministic jitter, per-task deadlines, a sparse re-run of a pair
  hit by a memory spike);
* :mod:`~repro.resilience.guard` — post-execution tile validation with
  a reference-kernel fallback;
* :mod:`~repro.resilience.report` — the structured
  :class:`FailureReport` attached to both executors' reports;
* :mod:`~repro.resilience.checkpoint` — the durable
  :class:`CheckpointStore` journal that makes an interrupted
  multiplication resumable across process crashes;
* :mod:`~repro.resilience.supervisor` — the supervised multiprocess
  shard executor behind ``execution="processes"`` (heartbeats, crash
  detection, pair reassignment and quarantine); imported lazily — as
  ``repro.resilience.supervisor`` — because it reaches back into the
  engine for the worker-side pair computer;
* :mod:`~repro.resilience.integrity` — the deep at-rest verifier behind
  ``repro verify`` (structural invariants plus archive checksums);
* :mod:`~repro.resilience.cancel` — :class:`CancelToken`, the
  cooperative cancellation/deadline signal the executors poll at
  tile-pair boundaries (checkpoint flushed before the run unwinds).

Pass ``options=MultiplyOptions(resilience=RetryPolicy(...))`` to any
multiplication entry point (or set it on a :class:`~repro.Session`) to
enable all of it; every backend runs the policy per pair in
:meth:`~repro.engine.executor.PairComputer.run_pair`.
"""

from .cancel import CancelToken
from .faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanSpec,
    InjectedFaultError,
    active_plan,
    clear_active,
    fire_corruption,
    fire_hooks,
    fire_worker_crash,
    inject_faults,
    stable_unit,
    suppress_faults,
    task_scope,
)
from .guard import reference_tile_product, validate_tile
from .report import FailureReport, PairOutcome, WorkerRecord
from .retry import ResilientPairRunner, RetryPolicy

# Imported last: these reach back into repro.core / repro.formats, whose
# own import chains re-enter this package for the symbols bound above.
from .checkpoint import CheckpointStore  # noqa: E402
from .integrity import (  # noqa: E402
    IntegrityViolation,
    check_integrity,
    verify_archive,
    verify_at_matrix,
    verify_csr,
    verify_dense,
)

__all__ = [
    "CancelToken",
    "CheckpointStore",
    "FailureReport",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultPlanSpec",
    "InjectedFaultError",
    "IntegrityViolation",
    "PairOutcome",
    "ResilientPairRunner",
    "RetryPolicy",
    "WorkerRecord",
    "active_plan",
    "check_integrity",
    "clear_active",
    "fire_corruption",
    "fire_hooks",
    "fire_worker_crash",
    "inject_faults",
    "reference_tile_product",
    "stable_unit",
    "suppress_faults",
    "task_scope",
    "validate_tile",
    "verify_archive",
    "verify_at_matrix",
    "verify_csr",
    "verify_dense",
]
