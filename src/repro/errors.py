"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything this package raises with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.

Hierarchy::

    ReproError
    ├── ShapeError            (ValueError)   incompatible operand shapes
    ├── FormatError           (ValueError)   payload violates format invariants
    ├── ParseError            (ValueError)   unreadable serialized matrix
    ├── ConfigError           (ValueError)   configuration value out of domain
    ├── MemoryLimitError      (RuntimeError) memory SLA unsatisfiable / pressure
    ├── PlanMismatchError     (ValueError)   ExecutionPlan replayed on wrong operands
    ├── PartitionError        (RuntimeError) quadtree partitioner inconsistency
    ├── SchedulerError        (RuntimeError) simulated scheduler invalid state
    ├── TaskFailedError       (RuntimeError) tile-product task(s) failed
    │   └── RetryExhaustedError              one task failed every allowed attempt
    ├── ResultCorruptionError (RuntimeError) a finished tile failed validation
    ├── IntegrityError        (RuntimeError) at-rest data failed verification
    ├── OperationCancelledError (RuntimeError) cooperative cancellation observed
    │   └── DeadlineExceededError            the operation's deadline expired
    └── ServiceError          (RuntimeError) matrix service request failed
        ├── AdmissionError                   job footprint breaches the memory SLA
        ├── QuotaExceededError               tenant queue quota / depth exhausted
        ├── UnknownMatrixError               request names an unregistered matrix
        ├── UnknownJobError                  request names an unknown job id
        ├── FrameTooLargeError               a protocol frame exceeds the size cap
        ├── ServiceUnavailableError          server is draining / not ready
        ├── TransportError                   client could not reach the server
        └── CircuitOpenError                 client circuit breaker is open

The task-execution errors carry structured context for the resilience
layer (:mod:`repro.resilience`): :class:`TaskFailedError` aggregates
per-pair failures from a parallel run (``pair_errors``, ``report``),
:class:`RetryExhaustedError` names the failing pair and its attempt
count, and :class:`ResultCorruptionError` describes why a finished tile
was rejected by the result guard.  The service errors are the typed
rejections of :mod:`repro.service` — each carries the offending tenant
and, where meaningful, the byte accounting behind the refusal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.report import BaseReport
    from .resilience.report import PairOutcome

    #: ``(tile_row, tile_col)`` coordinates of a result-grid pair.
    PairCoords = tuple[int, int]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """Operand shapes are incompatible (e.g. inner dimensions differ)."""


class FormatError(ReproError, ValueError):
    """A matrix payload violates its format's structural invariants."""


class ParseError(ReproError, ValueError):
    """A serialized matrix (e.g. Matrix Market) could not be parsed."""


class ConfigError(ReproError, ValueError):
    """A system/tuning configuration value is out of its valid domain."""


class MemoryLimitError(ReproError, RuntimeError):
    """A memory SLA cannot be satisfied even with the sparsest layout."""


class PlanMismatchError(ReproError, ValueError):
    """An :class:`~repro.engine.plan.ExecutionPlan` was replayed against
    operands whose structure fingerprints do not match the plan's.

    Plans are replayable only against same-topology operands: the values
    may change, but the shapes, tile grid and nonzero patterns must be
    the ones the plan was built for.
    """


class PartitionError(ReproError, RuntimeError):
    """The quadtree partitioner reached an inconsistent state."""


class SchedulerError(ReproError, RuntimeError):
    """The simulated task scheduler was driven into an invalid state."""


class TaskFailedError(ReproError, RuntimeError):
    """One or more tile-product tasks failed during a multiplication.

    Attributes
    ----------
    pair:
        The ``(tile_row, tile_col)`` pair coordinates of the failing
        task, when the error describes a single task.
    pair_errors:
        ``[(pair, exception), ...]`` for aggregated parallel failures
        collected after the worker pool drained.
    report:
        The (partially populated) execution report of the failed run,
        so completed work and busy-time statistics are not lost.
    outcome:
        The failing task's :class:`~repro.resilience.report.PairOutcome`,
        when its attempts were counted.
    """

    def __init__(
        self,
        message: str,
        *,
        pair: PairCoords | None = None,
        pair_errors: list[tuple[PairCoords, Exception]] | None = None,
        report: BaseReport | None = None,
        outcome: PairOutcome | None = None,
    ) -> None:
        super().__init__(message)
        self.pair = pair
        self.pair_errors = list(pair_errors or [])
        self.report = report
        self.outcome = outcome


class RetryExhaustedError(TaskFailedError):
    """A task failed on every attempt its :class:`~repro.resilience.RetryPolicy` allowed.

    Attributes
    ----------
    pair:
        The ``(tile_row, tile_col)`` coordinates of the failing pair.
    attempts:
        Number of attempts performed before giving up.
    last_error:
        The exception raised by the final attempt.
    """

    def __init__(
        self,
        message: str,
        *,
        pair: PairCoords | None = None,
        attempts: int = 0,
        last_error: Exception | None = None,
        report: BaseReport | None = None,
        outcome: PairOutcome | None = None,
    ) -> None:
        super().__init__(message, pair=pair, report=report, outcome=outcome)
        self.attempts = attempts
        self.last_error = last_error


class ResultCorruptionError(ReproError, RuntimeError):
    """A finished tile failed post-execution validation.

    Raised by the result guard (:mod:`repro.resilience.guard`) when a
    finalized tile has the wrong shape, non-finite values, or a
    population that contradicts the density estimate's bound.

    Attributes
    ----------
    pair:
        The ``(tile_row, tile_col)`` coordinates of the suspect pair.
    reason:
        Machine-readable violation tag (``"shape"``, ``"non-finite"``,
        ``"nnz-bound"``).
    """

    def __init__(
        self,
        message: str,
        *,
        pair: PairCoords | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.pair = pair
        self.reason = reason


class IntegrityError(ReproError, RuntimeError):
    """Persisted or in-memory matrix data failed integrity verification.

    Raised by the deep verifier (:mod:`repro.resilience.integrity`) and
    by checksum-carrying loaders (archive format v2, the checkpoint
    journal) when stored bytes do not match their recorded CRC-32C or a
    structural invariant (CSR monotonicity, tile disjointness, dense
    finiteness) is violated.  Distinct from :class:`ParseError`, which
    covers *unreadable* input; an :class:`IntegrityError` means the
    input parsed but its content is provably corrupt.

    Attributes
    ----------
    violations:
        The :class:`~repro.resilience.integrity.IntegrityViolation`
        records behind the failure (possibly empty for single-cause
        checksum errors raised outside the verifier).
    """

    def __init__(self, message: str, *, violations: list[Any] | None = None) -> None:
        super().__init__(message)
        self.violations = list(violations or [])


class OperationCancelledError(ReproError, RuntimeError):
    """A long-running operation observed a cooperative cancellation.

    Raised from within ``execute_plan``/the supervisor loop at the next
    tile-pair boundary after a :class:`~repro.resilience.CancelToken`
    fires.  The checkpoint (when configured) is flushed before the error
    propagates, so the interrupted work is resumable and a resubmission
    completes bit-identically.

    Attributes
    ----------
    reason:
        Free-form explanation recorded when the token was cancelled
        (e.g. ``"drain"``, ``"client request"``).
    """

    def __init__(self, message: str, *, reason: str | None = None) -> None:
        super().__init__(message)
        self.reason = reason


class DeadlineExceededError(OperationCancelledError):
    """The operation's total deadline budget expired.

    A specialization of :class:`OperationCancelledError` raised when the
    cancellation was triggered by an expired deadline rather than an
    explicit cancel request.  The service maps this onto
    ``JobState.DEADLINE_EXCEEDED`` (still resumable via resubmission).
    """


class ServiceError(ReproError, RuntimeError):
    """A matrix-service request was refused or failed.

    Attributes
    ----------
    tenant:
        The tenant whose request triggered the error (``None`` when the
        error is not tenant-specific).
    """

    def __init__(self, message: str, *, tenant: str | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant


class AdmissionError(ServiceError):
    """A job's estimated result footprint breaches the service memory SLA.

    Raised by the admission controller when even the job's sparsest
    water-level layout cannot fit the configured budget, so queueing
    would never help.

    Attributes
    ----------
    estimated_bytes:
        The job's minimal estimated result footprint.
    limit_bytes:
        The service's memory SLA in bytes.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        estimated_bytes: float = 0.0,
        limit_bytes: float = 0.0,
    ) -> None:
        super().__init__(message, tenant=tenant)
        self.estimated_bytes = estimated_bytes
        self.limit_bytes = limit_bytes


class QuotaExceededError(ServiceError):
    """A tenant's queue quota (or the global queue depth) is exhausted.

    This is the load-shedding rejection: transient by design — the same
    job resubmitted after the backlog drains is admitted.

    Attributes
    ----------
    pending:
        Jobs the tenant (or service) already has queued or running.
    quota:
        The limit that was hit.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        pending: int = 0,
        quota: int = 0,
    ) -> None:
        super().__init__(message, tenant=tenant)
        self.pending = pending
        self.quota = quota


class UnknownMatrixError(ServiceError):
    """A request referenced a matrix name the registry does not hold."""


class UnknownJobError(ServiceError):
    """A request referenced a job id the service does not know."""


class FrameTooLargeError(ServiceError):
    """A JSON-lines protocol frame exceeded the configured size cap.

    Raised server-side when a request line overruns the stream limit
    (the connection stays usable — the oversized frame is discarded and
    a typed error payload is returned) and client-side when a response
    frame does the same.

    Attributes
    ----------
    limit_bytes:
        The frame-size cap that was exceeded.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        limit_bytes: int = 0,
    ) -> None:
        super().__init__(message, tenant=tenant)
        self.limit_bytes = limit_bytes


class ServiceUnavailableError(ServiceError):
    """The service refused new work because it is draining or not ready.

    Transient by design: the same request against a healthy server (or
    the restarted server, for drained-but-queued jobs) succeeds.
    """


class TransportError(ServiceError):
    """The service client could not complete a network exchange.

    Wraps connect failures, timeouts, resets and truncated frames so the
    retry loop has a single retryable category distinct from typed
    server-side rejections (which must *not* be retried blindly).

    Attributes
    ----------
    cause:
        The underlying transport exception, when one exists.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        cause: Exception | None = None,
    ) -> None:
        super().__init__(message, tenant=tenant)
        self.cause = cause


class CircuitOpenError(ServiceError):
    """The client circuit breaker is open; the request was not attempted.

    Opens after ``failure_threshold`` consecutive transport failures and
    half-opens after ``reset_seconds``; a successful probe closes it.

    Attributes
    ----------
    retry_after_seconds:
        Time remaining until the breaker half-opens and allows a probe.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        retry_after_seconds: float = 0.0,
    ) -> None:
        super().__init__(message, tenant=tenant)
        self.retry_after_seconds = retry_after_seconds
