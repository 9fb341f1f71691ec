"""Structured failure accounting for resilient ATMULT runs.

Both execution reports (:class:`~repro.core.report.MultiplyReport` and
:class:`~repro.core.report.ParallelReport`) carry a
:class:`FailureReport` describing what went wrong and how it was
handled: per-pair outcomes plus aggregate counters, merged on every
backend by :func:`repro.engine.executor.finish`.  The invariant the
resilience layer maintains is that every *raising* fault is accounted
for exactly once::

    raising faults == retries + degradations + failures

(:class:`~repro.resilience.faults.FaultPlan.raising_count` gives the
left-hand side when a seeded plan is active).  Non-raising faults show
up separately: stalls as ``deadline_violations`` (when a task deadline
is configured) and silent corruptions as ``fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class PairOutcome:
    """Execution outcome of one tile-row/tile-column pair task."""

    pair: tuple[int, int]
    #: total attempts, including degradation re-runs
    attempts: int = 0
    #: re-attempts after a transient failure
    retries: int = 0
    #: memory-pressure events absorbed by degrading this pair
    degradations: int = 0
    #: attempts discarded for exceeding the task deadline
    deadline_violations: int = 0
    #: reference-kernel re-executions after a guard violation
    fallbacks: int = 0
    #: the final attempt finished over deadline but was accepted
    late: bool = False
    #: the pair exhausted its retry budget
    failed: bool = False
    #: ``repr`` of the final error for failed pairs
    error: str | None = None


@dataclass
class WorkerRecord:
    """Lifecycle of one supervised worker process."""

    worker_id: int
    pid: int | None = None
    #: heartbeats observed by the supervisor
    heartbeats: int = 0
    #: pairs this worker completed
    pairs_completed: int = 0
    #: the worker died (crash, SIGKILL, missed heartbeats, deadline)
    died: bool = False
    #: human-readable cause of death, when it died
    cause: str | None = None


@dataclass
class FailureReport:
    """Aggregate failure statistics of one (possibly resilient) run."""

    #: total pair attempts performed (>= number of pairs)
    attempts: int = 0
    #: transient failures recovered by re-attempting the pair
    retries: int = 0
    #: memory-pressure events absorbed by degradation
    degradations: int = 0
    #: attempts discarded for exceeding the task deadline
    deadline_violations: int = 0
    #: guard violations recovered via the reference kernel
    fallbacks: int = 0
    #: pairs that exhausted their retry budget
    failures: int = 0
    #: pairs restored from a checkpoint journal instead of re-executed
    pairs_resumed: int = 0
    #: supervised worker processes that died mid-run
    worker_deaths: int = 0
    #: pairs reassigned to a surviving worker after their worker died
    pairs_reassigned: int = 0
    #: pairs quarantined after repeatedly killing their worker
    pairs_quarantined: int = 0
    #: per-worker lifecycle records (process execution only)
    workers: dict[int, WorkerRecord] = field(default_factory=dict)
    #: per-pair outcome details (only pairs that needed resilience, plus failures)
    pair_outcomes: dict[tuple[int, int], PairOutcome] = field(default_factory=dict)
    #: ``[(pair, exception), ...]`` captured when running without a policy
    pair_errors: list[tuple[tuple[int, int], BaseException]] = field(
        default_factory=list
    )

    @property
    def handled(self) -> int:
        """Faults absorbed without failing the run."""
        return self.retries + self.degradations + self.fallbacks

    @property
    def clean(self) -> bool:
        """True when the run needed no resilience at all."""
        return not (
            self.retries
            or self.degradations
            or self.deadline_violations
            or self.fallbacks
            or self.failures
            or self.worker_deaths
            or self.pairs_quarantined
            or self.pair_errors
        )

    # The only writer is the executor's finish step, under the thread
    # backend's report lock ("finish report lock" below); elsewhere its
    # caller is the sole writer.  The report stays a plain value object.
    def record_error(self, pair: tuple[int, int], error: BaseException) -> None:
        self.pair_errors.append((pair, error))  # repro-lint: disable=RPR012 (finish report lock)

    def merge_outcome(self, outcome: PairOutcome) -> None:
        """Fold one pair's outcome into the aggregate counters."""
        self.attempts += outcome.attempts  # repro-lint: disable=RPR012 (finish report lock)
        self.retries += outcome.retries  # repro-lint: disable=RPR012 (finish report lock)
        self.degradations += outcome.degradations  # repro-lint: disable=RPR012 (finish report lock)
        self.deadline_violations += (  # repro-lint: disable=RPR012 (finish report lock)
            outcome.deadline_violations
        )
        self.fallbacks += outcome.fallbacks  # repro-lint: disable=RPR012 (finish report lock)
        if outcome.failed:
            self.failures += 1  # repro-lint: disable=RPR012 (finish report lock)
        if (
            outcome.retries
            or outcome.degradations
            or outcome.deadline_violations
            or outcome.fallbacks
            or outcome.failed
            or outcome.late
        ):
            self.pair_outcomes[outcome.pair] = outcome  # repro-lint: disable=RPR012 (finish report lock)

    def summary(self) -> str:
        """One-line human-readable digest."""
        resumed = f", {self.pairs_resumed} pairs resumed" if self.pairs_resumed else ""
        if self.clean:
            return (
                f"clean run ({self.attempts} attempts{resumed}, "
                "no faults handled)"
            )
        parts = [f"{self.attempts} attempts"]
        if self.pairs_resumed:
            parts.append(f"{self.pairs_resumed} pairs resumed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.degradations:
            parts.append(f"{self.degradations} degradations")
        if self.deadline_violations:
            parts.append(f"{self.deadline_violations} deadline violations")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} reference fallbacks")
        if self.worker_deaths:
            parts.append(f"{self.worker_deaths} worker deaths")
        if self.pairs_reassigned:
            parts.append(f"{self.pairs_reassigned} pairs reassigned")
        if self.pairs_quarantined:
            parts.append(f"{self.pairs_quarantined} pairs quarantined")
        if self.failures:
            parts.append(f"{self.failures} failed pairs")
        if self.pair_errors:
            parts.append(f"{len(self.pair_errors)} captured errors")
        return ", ".join(parts)


def aggregate_message(pair_errors: list[tuple[Any, BaseException]], total: int) -> str:
    """Message for an aggregated :class:`~repro.errors.TaskFailedError`."""
    failed = len(pair_errors)
    shown = ", ".join(
        f"{pair}: {type(error).__name__}" for pair, error in pair_errors[:4]
    )
    suffix = ", ..." if failed > 4 else ""
    return f"{failed} of {total} pair tasks failed ({shown}{suffix})"
