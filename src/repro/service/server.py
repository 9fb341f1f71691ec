"""The in-process matrix service: session, queue, workers, recovery.

:class:`MatrixService` wraps one :class:`~repro.engine.session.Session`
— and therefore one shared :class:`~repro.engine.cache.PlanCache` — in
an asyncio job server.  Tenants submit ``multiply`` / ``matvec`` /
``solve`` jobs against named matrices; a bounded pool of worker tasks
executes them (the numeric work runs in the event loop's thread-pool
executor so the loop stays responsive); every job is journaled through
a :class:`~repro.service.jobs.JobStore` so a SIGKILL'd server resumes
its in-flight jobs bit-identically on restart.

Request fates and limits:

* :class:`~repro.errors.UnknownMatrixError` — the spec names a matrix
  the registry does not hold;
* :class:`~repro.errors.QuotaExceededError` — the tenant already has
  ``tenant_quota`` jobs pending, or the service queue is at
  ``max_queue_depth`` (global load shedding);
* :class:`~repro.errors.AdmissionError` — the water-level sweep proves
  the job's ρ̂_C footprint breaches the memory SLA (see
  :mod:`repro.service.admission`).

Metric catalogue (``service.*``): ``queue_depth`` gauge,
``admission.admitted`` / ``admission.rejected`` / ``shed`` counters,
``admission.in_flight_bytes`` gauge, ``jobs_completed`` /
``jobs_failed`` / ``jobs_cancelled`` / ``jobs_deadline_exceeded``
counters, the ``draining`` gauge, per-tenant
``latency_seconds.<tenant>`` histograms — all in the service observer's
registry, exported by :meth:`MatrixService.metrics` next to the
plan-cache hit rate.

Deadlines and cancellation: a submission may carry ``deadline_seconds``
(total budget from submission) and an ``idempotency_key`` (dedupe token
for safe client retries).  Running jobs hold a
:class:`~repro.resilience.CancelToken` that :meth:`MatrixService.cancel`
and :meth:`MatrixService.drain` trip; the engine observes it at
tile-pair boundaries, flushes the job checkpoint, and the job lands
``CANCELLED`` / ``DEADLINE_EXCEEDED`` — both resumable by resubmitting
the same job id.

Waiting on job state: every wait — :meth:`MatrixService.wait`, the
wire's long-poll (:meth:`MatrixService.long_poll`), a worker waiting for
admission headroom and :meth:`MatrixService.drain` — blocks on one
broadcast "job settled" signal instead of sleeping between polls.  The
signal fires when a job leaves ``RUNNING`` (after its final state is on
disk), when a queued job is cancelled or its deadline expires before it
runs, and when draining starts.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..config import SystemConfig
from ..engine.options import MultiplyOptions
from ..engine.session import Session
from ..errors import (
    DeadlineExceededError,
    OperationCancelledError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    UnknownJobError,
)
from ..observe import Observation
from ..resilience.cancel import CancelToken
from ..resilience.checkpoint import CheckpointStore
from .admission import AdmissionController
from .jobs import JobRecord, JobSpec, JobState, JobStore, new_job_id
from .registry import MatrixRegistry

#: Spans and cost samples the server's own observation keeps; older ones
#: are dropped, so a long-running server's memory stays bounded.
OBSERVATION_RETAIN = 4096


@dataclass(frozen=True)
class JobStatus:
    """Snapshot of one job as reported to clients."""

    job_id: str
    tenant: str
    op: str
    state: JobState
    error: str | None
    error_type: str | None
    reserved_bytes: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "op": self.op,
            "state": self.state.value,
            "error": self.error,
            "error_type": self.error_type,
            "reserved_bytes": self.reserved_bytes,
        }


class MatrixService:
    """Async multi-tenant job server over one shared Session.

    Parameters
    ----------
    registry:
        The named matrices tenants may reference.
    job_dir:
        Directory for job journals, checkpoints and results; reusing a
        previous server's directory recovers its unfinished jobs on
        :meth:`start`.
    memory_limit_bytes:
        The service memory SLA enforced by admission control and, per
        job, by the engine's water-level method (``None``: no SLA).
    workers:
        Number of concurrent worker tasks (bounded pool).
    tenant_quota:
        Maximum queued-or-running jobs per tenant.
    max_queue_depth:
        Global pending-job bound; submissions beyond it are shed.
    config, options, observer:
        Forwarded to the underlying :class:`Session`; the observer
        (created automatically when omitted) receives every span and
        metric the engine and the service emit.  The automatic one keeps
        only the newest :data:`OBSERVATION_RETAIN` spans and cost
        samples, so a long-running server's memory stays bounded.
    """

    def __init__(
        self,
        registry: MatrixRegistry,
        *,
        job_dir: str | Path,
        memory_limit_bytes: float | None = None,
        workers: int = 2,
        tenant_quota: int = 8,
        max_queue_depth: int = 64,
        config: SystemConfig | None = None,
        options: MultiplyOptions | None = None,
        observer: Observation | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.registry = registry
        self.store = JobStore(job_dir)
        self.observer = (
            observer if observer is not None else Observation(OBSERVATION_RETAIN)
        )
        self.session = Session(
            config=config or registry.config,
            options=options,
            observer=self.observer,
        )
        self.admission = AdmissionController(
            memory_limit_bytes,
            config=self.session.config,
            metrics=self.observer.metrics,
        )
        self.tenant_quota = tenant_quota
        self.max_queue_depth = max_queue_depth
        self.workers = workers
        self._records: dict[str, JobRecord] = {}
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._tasks: list[asyncio.Task[None]] = []
        self._job_counter = 0
        self._started = False
        self._draining = False
        #: cancel tokens of currently running jobs, by job id
        self._cancel_tokens: dict[str, CancelToken] = {}
        #: idempotency key -> job id, rebuilt from the store on start
        self._idempotency: dict[str, str] = {}
        #: ids of jobs a worker holds from RUNNING until their final
        #: state is on disk
        self._executing: set[str] = set()
        #: the broadcast "job settled" signal, replaced on every notify
        self._settled = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> int:
        """Recover unfinished jobs and launch the worker pool.

        Returns the number of jobs recovered from the job directory.
        """
        if self._started:
            return 0
        self._started = True
        recovered = 0
        loop = asyncio.get_running_loop()
        for record in await loop.run_in_executor(None, self.store.load_all):
            self._records[record.spec.job_id] = record
            if record.spec.idempotency_key is not None:
                self._idempotency[record.spec.idempotency_key] = record.spec.job_id
            if not record.state.terminal:
                record.state = JobState.QUEUED
                await loop.run_in_executor(None, self.store.save, record)
                self._queue.put_nowait(record.spec.job_id)
                recovered += 1
        self._gauge_queue_depth()
        for index in range(self.workers):
            task = asyncio.create_task(self._worker(), name=f"svc-worker-{index}")
            self._tasks.append(task)
        return recovered

    async def stop(self, *, drain: bool = False) -> None:
        """Stop the worker pool (``drain=True``: finish queued jobs first)."""
        if drain:
            await self._queue.join()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        self._started = False

    async def drain(self, *, timeout: float = 30.0) -> None:
        """Graceful shutdown: settle in-flight jobs, strand nothing.

        Flips the service into draining mode (new submissions are
        refused with :class:`~repro.errors.ServiceUnavailableError`,
        queued jobs stay ``QUEUED`` on disk for the next server to
        re-enqueue), gives running jobs ``timeout`` seconds to finish,
        then trips their cancel tokens with reason ``"drain"`` — each
        job checkpoints at the next tile-pair boundary and its record
        reverts to ``QUEUED`` so no ``RUNNING`` record is stranded.
        Finally stops the worker pool.  Returns once every job that was
        running has its final (or reverted) state on disk, or after the
        grace period of ``max(5, timeout)`` seconds past the cancel.
        """
        self._draining = True
        self.observer.metrics.gauge("service.draining").set(1)
        self._notify_settled()
        await self._until_idle(timeout)
        for token in list(self._cancel_tokens.values()):
            token.cancel("drain")
        # Cancelled jobs unwind within about one tile-pair; bound the
        # wait anyway so a wedged kernel cannot hold shutdown hostage.
        await self._until_idle(max(5.0, timeout))
        await self.stop()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining

    async def until_draining(self) -> None:
        """Return once :meth:`drain` has begun."""
        while not self._draining:
            await self._next_settle(None)

    def health(self) -> dict[str, Any]:
        """Liveness snapshot: cheap, lock-free, safe to poll."""
        return {
            "status": "ok",
            "started": self._started,
            "draining": self._draining,
            "jobs": len(self._records),
            "queue_depth": self._pending_count(),
        }

    def ready(self) -> dict[str, Any]:
        """Readiness gate: can this server accept a submission right now?

        Ready means started, not draining, at least one registered
        matrix to serve, and queue headroom below ``max_queue_depth``.
        """
        pending = self._pending_count()
        ready = (
            self._started
            and not self._draining
            and len(self.registry) > 0
            and pending < self.max_queue_depth
        )
        return {
            "ready": ready,
            "started": self._started,
            "draining": self._draining,
            "registered_matrices": len(self.registry),
            "queue_depth": pending,
            "max_queue_depth": self.max_queue_depth,
        }

    async def __aenter__(self) -> MatrixService:
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- client API --------------------------------------------------------
    async def submit(
        self,
        *,
        tenant: str,
        op: str,
        a: str,
        b: str | None = None,
        rhs: Any = None,
        params: dict[str, Any] | None = None,
        job_id: str | None = None,
        deadline_seconds: float | None = None,
        idempotency_key: str | None = None,
    ) -> str:
        """Validate, admit, persist and enqueue one job; returns its id.

        Raises the typed service errors documented on the class; a
        raised submission leaves no trace in the job directory.

        An ``idempotency_key`` the service has already seen returns the
        original job id without executing anything — a client-side retry
        of a submit whose response was lost never double-executes.
        Resubmitting an explicit ``job_id`` whose previous run ended
        ``CANCELLED``/``DEADLINE_EXCEEDED`` re-enqueues it; the job's
        checkpoint directory survived, so the rerun resumes from the
        journal and completes bit-identically.
        """
        if self._draining:
            raise ServiceUnavailableError(
                "service is draining; resubmit to the restarted server",
                tenant=tenant,
            )
        if idempotency_key is not None:
            known = self._idempotency.get(idempotency_key)
            if known is not None:
                return known
        self._job_counter += 1
        if job_id is None:
            job_id = new_job_id(self._job_counter, tenant)
        rhs_tuple = (
            tuple(float(x) for x in np.asarray(rhs, dtype=np.float64).ravel())
            if rhs is not None
            else None
        )
        spec = JobSpec(
            job_id=job_id,
            tenant=tenant,
            op=op,
            a=a,
            b=b,
            rhs=rhs_tuple,
            params=dict(params or {}),
            deadline_seconds=deadline_seconds,
            idempotency_key=idempotency_key,
        )
        existing = self._records.get(job_id)
        if existing is not None and not existing.state.resumable:
            raise ServiceError(
                f"job id {job_id!r} already exists "
                f"(state: {existing.state.value})",
                tenant=tenant,
            )
        self._check_quota(tenant)
        matrix_a = self.registry.get(spec.a)
        if spec.op == "multiply":
            assert spec.b is not None  # JobSpec validation guarantees it
            matrix_b = self.registry.get(spec.b)
            ticket = self.admission.check_multiply(matrix_a, matrix_b, tenant=tenant)
        else:
            ticket = self.admission.check_vector(matrix_a, tenant=tenant)
        loop = asyncio.get_running_loop()
        if existing is not None:
            # Resubmission of a cancelled/deadline-expired job: reuse
            # the record (and its checkpoint directory) with a fresh
            # deadline budget.
            existing.spec = spec
            existing.state = JobState.QUEUED
            existing.error = None
            existing.error_type = None
            existing.submitted_at = time.time()
            existing.finished_at = None
            existing.reserved_bytes = ticket.reserved_bytes
            record = existing
            await loop.run_in_executor(None, self.store.save, record)
        else:
            record = JobRecord(
                spec=spec,
                state=JobState.QUEUED,
                submitted_at=time.time(),
                reserved_bytes=ticket.reserved_bytes,
            )
            await loop.run_in_executor(None, self.store.create, record)
        self._records[job_id] = record
        if idempotency_key is not None:
            self._idempotency[idempotency_key] = job_id
        self._queue.put_nowait(job_id)
        self._gauge_queue_depth()
        return job_id

    async def status(self, job_id: str) -> JobStatus:
        record = self._record(job_id)
        return JobStatus(
            job_id=record.spec.job_id,
            tenant=record.spec.tenant,
            op=record.spec.op,
            state=record.state,
            error=record.error,
            error_type=record.error_type,
            reserved_bytes=record.reserved_bytes,
        )

    async def result(self, job_id: str) -> np.ndarray:
        """The finished job's dense result values (CRC-verified).

        Raises :class:`UnknownJobError` for unknown ids and
        :class:`ReproError` subclasses replaying a failed job's error.
        """
        record = self._record(job_id)
        if record.state is JobState.FAILED:
            raise ReproError(
                f"job {job_id} failed ({record.error_type}): {record.error}"
            )
        if record.state is not JobState.DONE:
            raise UnknownJobError(
                f"job {job_id} has no result yet (state: {record.state.value})"
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.store.load_result, job_id)

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; terminal jobs are not touched.

        A queued job lands ``CANCELLED`` immediately.  A running job's
        :class:`~repro.resilience.CancelToken` is tripped: the multiply
        stops at the next tile-pair boundary, flushes its checkpoint and
        the worker records ``CANCELLED`` — resumable via resubmission.
        """
        record = self._record(job_id)
        if record.state is JobState.RUNNING:
            token = self._cancel_tokens.get(job_id)
            if token is None:
                return False
            token.cancel("client request")
            return True
        if record.state is not JobState.QUEUED:
            return False
        record.state = JobState.CANCELLED
        record.finished_at = time.time()
        self.observer.metrics.counter("service.jobs_cancelled").inc()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.store.save, record)
        self._gauge_queue_depth()
        self._notify_settled()
        return True

    async def wait(self, job_id: str, *, timeout: float = 60.0) -> JobStatus:
        """Block until the job reaches a terminal state.

        Raises :class:`TimeoutError` if it has not after ``timeout``
        seconds.
        """
        status = await self._await_job(job_id, timeout, until_draining=False)
        if not status.state.terminal:
            raise TimeoutError(f"job {job_id} still {status.state.value}")
        return status

    async def long_poll(self, job_id: str, *, timeout: float) -> JobStatus:
        """The job's status once it is terminal, the service starts
        draining, or ``timeout`` seconds pass — whichever comes first.

        A non-terminal status at timeout is an answer, not an error; an
        unknown id raises :class:`UnknownJobError` as :meth:`status` does.
        """
        return await self._await_job(job_id, timeout, until_draining=True)

    def metrics(self) -> dict[str, Any]:
        """JSON-serializable export of the service's whole metric surface."""
        states: dict[str, int] = {}
        for record in self._records.values():
            states[record.state.value] = states.get(record.state.value, 0) + 1
        cache = self.session.cache_stats()
        return {
            "queue_depth": self._pending_count(),
            "draining": self._draining,
            "jobs": states,
            "admission": {
                "memory_limit_bytes": self.admission.memory_limit_bytes,
                "in_flight_bytes": self.admission.in_flight_bytes,
                "admitted": self.observer.metrics.value("service.admission.admitted"),
                "rejected": self.observer.metrics.value("service.admission.rejected"),
                "shed": self.observer.metrics.value("service.shed"),
            },
            "plan_cache": {**cache.as_dict(), "hit_rate": cache.hit_rate},
            "metrics": self.observer.metrics.as_dict(),
        }

    # -- internals ---------------------------------------------------------
    def _record(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return record

    def _pending_count(self, tenant: str | None = None) -> int:
        return sum(
            1
            for record in self._records.values()
            if not record.state.terminal
            and (tenant is None or record.spec.tenant == tenant)
        )

    def _check_quota(self, tenant: str) -> None:
        pending = self._pending_count(tenant)
        if pending >= self.tenant_quota:
            self.observer.metrics.counter("service.shed").inc()
            raise QuotaExceededError(
                f"tenant {tenant!r} already has {pending} jobs pending "
                f"(quota: {self.tenant_quota})",
                tenant=tenant,
                pending=pending,
                quota=self.tenant_quota,
            )
        total = self._pending_count()
        if total >= self.max_queue_depth:
            self.observer.metrics.counter("service.shed").inc()
            raise QuotaExceededError(
                f"service queue is full ({total} jobs pending, "
                f"depth limit: {self.max_queue_depth})",
                tenant=tenant,
                pending=total,
                quota=self.max_queue_depth,
            )

    def _gauge_queue_depth(self) -> None:
        self.observer.metrics.gauge("service.queue_depth").set(self._pending_count())

    def _notify_settled(self) -> None:
        """Wake every waiter on the settled signal; later waits get a new one."""
        self._settled.set()
        self._settled = asyncio.Event()

    async def _next_settle(self, timeout: float | None) -> None:
        """Block until the settled signal fires or ``timeout`` seconds pass.

        Callers check their condition and call this with no ``await`` in
        between, so a notify cannot slip past unseen.
        """
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._settled.wait(), timeout)

    async def _await_job(
        self, job_id: str, timeout: float, *, until_draining: bool
    ) -> JobStatus:
        deadline = time.monotonic() + timeout
        while True:
            status = await self.status(job_id)
            if status.state.terminal or (until_draining and self._draining):
                return status
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return status
            await self._next_settle(remaining)

    async def _until_idle(self, timeout: float) -> None:
        """Wait until no job is executing, for at most ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while self._executing:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            await self._next_settle(remaining)

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            try:
                record = self._records.get(job_id)
                if record is None or record.state is not JobState.QUEUED:
                    continue  # cancelled (or lost) while queued
                if self._draining:
                    # Leave the record QUEUED on disk: the restarted
                    # server re-enqueues it in start().
                    continue
                remaining: float | None = None
                if record.spec.deadline_seconds is not None:
                    remaining = (
                        record.submitted_at
                        + record.spec.deadline_seconds
                        - time.time()
                    )
                    if remaining <= 0:
                        await self._finish_deadline_exceeded(
                            record, "deadline expired while queued"
                        )
                        continue
                token = CancelToken(deadline_seconds=remaining)
                self._cancel_tokens[job_id] = token
                # Headroom frees when another job's release runs in its
                # worker's finally, which fires the settled signal; the
                # token's deadline bounds the wait.
                acquired = False
                while not (
                    self._draining
                    or token.cancelled
                    or record.state is not JobState.QUEUED
                ):
                    if acquired := self.admission.try_acquire(
                        record.reserved_bytes
                    ):
                        break
                    await self._next_settle(token.remaining())
                if not acquired:
                    self._cancel_tokens.pop(job_id, None)
                    if record.state is JobState.QUEUED and token.deadline_expired:
                        await self._finish_deadline_exceeded(
                            record, "deadline expired awaiting admission"
                        )
                    # Drain leaves the record QUEUED; an external cancel
                    # already persisted CANCELLED.
                    continue
                record.state = JobState.RUNNING
                self._executing.add(job_id)
                await loop.run_in_executor(None, self.store.save, record)
                started = time.monotonic()
                try:
                    values = await loop.run_in_executor(
                        None, self._execute, record, token
                    )
                    await loop.run_in_executor(
                        None, self.store.save_result, job_id, values
                    )
                    record.state = JobState.DONE
                    self.observer.metrics.counter("service.jobs_completed").inc()
                except DeadlineExceededError as error:
                    record.state = JobState.DEADLINE_EXCEEDED
                    record.error = str(error)
                    record.error_type = type(error).__name__
                    self.observer.metrics.counter(
                        "service.jobs_deadline_exceeded"
                    ).inc()
                except OperationCancelledError as error:
                    if error.reason == "drain":
                        # The checkpoint flushed; hand the job back to
                        # the queue so the next server resumes it.
                        record.state = JobState.QUEUED
                        record.error = None
                        record.error_type = None
                    else:
                        record.state = JobState.CANCELLED
                        record.error = str(error)
                        record.error_type = type(error).__name__
                        self.observer.metrics.counter(
                            "service.jobs_cancelled"
                        ).inc()
                except Exception as error:  # noqa: BLE001 — jobs must land FAILED
                    record.state = JobState.FAILED
                    record.error = str(error)
                    record.error_type = type(error).__name__
                    self.observer.metrics.counter("service.jobs_failed").inc()
                finally:
                    self._cancel_tokens.pop(job_id, None)
                    self.admission.release(record.reserved_bytes)
                    if record.state.terminal:
                        record.finished_at = time.time()
                    # The service may be stopped (and this task cancelled)
                    # while the persist below is in flight — shield it so
                    # the on-disk record cannot be left behind at RUNNING.
                    try:
                        await asyncio.shield(
                            loop.run_in_executor(None, self.store.save, record)
                        )
                    finally:
                        self._executing.discard(job_id)
                        self._notify_settled()
                    elapsed = time.monotonic() - started
                    self.observer.metrics.histogram(
                        f"service.latency_seconds.{record.spec.tenant}"
                    ).observe(elapsed)
                    self._gauge_queue_depth()
            finally:
                self._queue.task_done()

    async def _finish_deadline_exceeded(
        self, record: JobRecord, message: str
    ) -> None:
        """Land a job whose budget ran out before it ever executed."""
        record.state = JobState.DEADLINE_EXCEEDED
        record.error = message
        record.error_type = DeadlineExceededError.__name__
        record.finished_at = time.time()
        self.observer.metrics.counter("service.jobs_deadline_exceeded").inc()
        loop = asyncio.get_running_loop()
        await asyncio.shield(
            loop.run_in_executor(None, self.store.save, record)
        )
        self._gauge_queue_depth()
        self._notify_settled()

    def _execute(self, record: JobRecord, cancel: CancelToken) -> np.ndarray:
        """Run one job to completion (called in the executor thread).

        The cancel token threads through ``MultiplyOptions`` into
        ``execute_plan``, which polls it at tile-pair boundaries; a
        tripped token flushes the job's checkpoint before unwinding, so
        the journal under ``ckpt/`` stays resumable.  Matvec and solve
        jobs run under the shared session's configuration: a matvec is
        one :func:`~repro.core.atmv.atmv`, a solve builds one
        :class:`~repro.core.atmv.MatvecOperator` and applies it per
        iteration, polling the token once per iteration.
        """
        cancel.check()
        spec = record.spec
        matrix_a = self.registry.get(spec.a)
        if spec.op == "multiply":
            assert spec.b is not None
            matrix_b = self.registry.get(spec.b)
            checkpoint = CheckpointStore(
                self.store.checkpoint_dir(spec.job_id), resume=True
            )
            options = self.session.options.replace(
                memory_limit_bytes=self.admission.memory_limit_bytes,
                checkpoint=checkpoint,
                cancel=cancel,
            )
            from ..core.atmult import atmult

            result, _ = atmult(matrix_a, matrix_b, options=options)
            return result.to_dense()
        assert spec.rhs is not None
        rhs = np.asarray(spec.rhs, dtype=np.float64)
        session = Session(options=self.session.options.replace(cancel=cancel))
        if spec.op == "matvec":
            return session.matvec(matrix_a, rhs)
        outcome = session.solve(matrix_a, rhs, **spec.params)
        outcome.raise_if_failed()
        return np.asarray(outcome.solution, dtype=np.float64)
