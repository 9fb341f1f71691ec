"""The supervised multiprocess shard executor.

:func:`run_supervised` is who runs the pending tile pairs under
``execution="processes"`` in
:func:`~repro.engine.executor.execute_plan`: it shards them across OS
worker processes (one shard per simulated socket,
:func:`~repro.engine.shard.assign_shards`), hands each worker the plan
and operands as its process arguments (inherited under fork, pickled
under spawn — never written to disk), supervises the workers with
per-worker heartbeats, per-pair dispatch deadlines and liveness checks,
and hands each finished pair to the executor's finish step.  Pair
accounting, checkpoint resume and flushing, the aggregated error, the
result matrix and the memory-SLA repair belong to the executor, shared
with the in-process backends.

This is the **only** module in ``src/repro`` allowed to import
``multiprocessing`` (repro-lint rule RPR008): process lifecycle is a
resilience concern, and confining it here keeps every other layer
testable in-process.

Supervision protocol
--------------------
One duplex ``multiprocessing`` ``Pipe`` per worker, held only by the
supervisor and that worker; the supervisor closes the worker's end in
its own process right after the start.  Supervisor → worker:
``((ti, tj), dispatch_attempt)`` tasks and a ``None`` shutdown
sentinel.  Worker → supervisor: ``("beat", n)`` heartbeats and one
``("done", payload, result)`` message per pair (the worker's
``run_pair`` result, busy time and fault events, see
:mod:`repro.engine.shard`).  The supervisor blocks in
``multiprocessing.connection.wait`` on every channel and every process
sentinel; the wait's timeout only bounds how quickly cancellation,
deadlines and heartbeat staleness are noticed.  A channel shares no
state with any other worker's, so a SIGKILLed worker can corrupt
nothing but its own, which the supervisor then reads as end-of-file.
Nothing is written to disk: a caller's
:class:`~repro.resilience.checkpoint.CheckpointStore` is written by the
executor's settle step, in the caller's process, at the caller's
``checkpoint_flush_pairs`` cadence.

Failure handling
----------------
A worker is declared dead when its process exits or its channel
closes, its heartbeats stop, or its current pair exceeds the dispatch
deadline (the latter two get a SIGKILL first).  Done messages already
in a dead worker's channel are adopted; its other unfinished pairs are
reassigned to surviving workers; a pair whose execution killed its
worker twice is *quarantined* — recorded as a failed
:class:`~repro.resilience.report.PairOutcome` instead of retried
forever.  When no workers survive and work remains, a replacement
worker is spawned.  Recomputing a reassigned pair is deterministic, and
tiles cross the channel as pickled exact float bytes, so results stay
bit-identical to the in-process backends.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any

from ..errors import OperationCancelledError, TaskFailedError
from ..observe import Observation
from ..observe import session as observe_session
from ..resilience.report import PairOutcome, WorkerRecord
from .cancel import CancelToken
from .faults import active_plan
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig
    from ..core.atmatrix import ATMatrix
    from ..core.report import ParallelReport
    from ..cost.model import CostModel
    from ..engine.executor import _PairOutcome
    from ..engine.plan import ExecutionPlan, PlannedPair
    from ..engine.shard import PairCoords

    Finish = Callable[[PairCoords, _PairOutcome | Exception], None]

__all__ = ["run_supervised"]

_span = observe_session.tracer_span

#: Heartbeats may be late by this factor before a worker counts as hung.
_HEARTBEAT_GRACE = 5.0

#: A pair that killed its worker this many times is quarantined.
_QUARANTINE_KILLS = 2

#: Longest block on the channels (seconds) before cancellation,
#: deadlines and heartbeat staleness are checked again.
_WAIT_SECONDS = 0.05


class _Worker:
    """Supervisor-side state of one worker process."""

    def __init__(
        self, worker_id: int, process: Any, channel: Any, shard_index: int
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.channel = channel
        self.shard_index = shard_index
        self.record = WorkerRecord(worker_id=worker_id, pid=process.pid)
        #: dispatched-but-unconfirmed tasks, oldest first:
        #: ``[coords, dispatch_attempt, head_since]``
        self.in_flight: list[list[Any]] = []
        self.last_beat_change = time.monotonic()

    def alive(self) -> bool:
        return bool(self.process.is_alive())

    def release(self) -> None:
        """Close the channel and the process handle of a joined worker."""
        self.channel.close()
        if self.process.exitcode is not None:
            self.process.close()


def run_supervised(
    plan: ExecutionPlan,
    at_a: ATMatrix,
    at_b: ATMatrix,
    pending: list[PlannedPair],
    finish: Finish,
    resumed: list[tuple[int, int]],
    *,
    report: ParallelReport,
    config: SystemConfig,
    cost_model: CostModel,
    resilience: RetryPolicy | None,
    obs: Observation | None,
    heartbeat_interval: float,
    pair_deadline_seconds: float | None,
    cancel: CancelToken | None,
    startup_grace_seconds: float,
) -> None:
    """Run the ``pending`` pairs of ``plan`` on supervised worker processes.

    :func:`~repro.engine.executor.execute_plan` owns everything before
    and after: it begins and flushes the checkpoint, resumes, assembles
    the result and raises the aggregated error.  Each pair's outcome
    (or error, for a failed or quarantined pair) goes to ``finish`` on
    the calling thread as its done message arrives.  Workers spend the
    ``resumed`` ``(plan pair index, tile bytes)`` from their budget
    first.  This function accounts on ``report`` only what concerns
    workers — busy time, conversion counts, and the ``worker_deaths``,
    ``pairs_reassigned``, ``pairs_quarantined`` and per-worker
    :class:`~repro.resilience.report.WorkerRecord` entries of
    ``report.failure`` — running ``report.workers`` workers at a time.

    A tripped ``cancel`` token is observed within the channel wait's
    timeout: workers are killed, done messages already in their
    channels are settled, and the run unwinds with
    :class:`~repro.errors.OperationCancelledError`.
    ``startup_grace_seconds`` bounds how long a fresh worker may take
    to send its first heartbeat.
    """
    # Imported here, not at module top: engine.shard pulls in the
    # executor, which lazily imports this module for mode dispatch.
    from ..engine import shard

    if not pending:
        return
    parent_plan = active_plan()
    shard_config = shard.ShardConfig(
        config=config,
        cost_model=cost_model,
        resilience=resilience,
        heartbeat_interval=heartbeat_interval,
        fault_spec=parent_plan.spec() if parent_plan is not None else None,
        resumed=tuple(resumed),
    )
    _supervise(
        plan, at_a, at_b, pending, finish, shard_config, report,
        obs, pair_deadline_seconds, startup_grace_seconds, cancel,
    )


def _make_context() -> Any:
    """Fork where possible (workers inherit loaded modules), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _supervise(
    plan: ExecutionPlan,
    at_a: ATMatrix,
    at_b: ATMatrix,
    pending: list[PlannedPair],
    finish: Finish,
    shard_config: Any,
    report: ParallelReport,
    obs: Observation | None,
    pair_deadline_seconds: float | None,
    startup_grace_seconds: float,
    cancel: CancelToken | None,
) -> None:
    """The dispatch-and-liveness loop behind :func:`run_supervised`."""
    from ..engine import shard

    failure = report.failure
    worker_count = report.workers
    ctx = _make_context()
    shards = shard.assign_shards(pending, worker_count)
    #: pairs killed back into the pool by a worker death, dispatched first
    retry_pool: list[PairCoords] = []
    dispatch_counts: dict[PairCoords, int] = {}
    kill_blame: dict[PairCoords, int] = {}
    settled = 0
    worker_conversions: dict[int, int] = {}
    next_worker_id = 0
    workers: dict[int, _Worker] = {}

    def spawn_worker(shard_index: int) -> _Worker:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        channel, worker_end = ctx.Pipe()
        process = ctx.Process(
            target=shard.worker_main,
            args=(worker_id, worker_end, plan, at_a, at_b, shard_config),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # The worker holds the only other copy, so its death reads
            # as end-of-file on ``channel``.
            worker_end.close()
        worker = _Worker(worker_id, process, channel, shard_index)
        workers[worker_id] = worker
        failure.workers[worker_id] = worker.record
        return worker

    def next_task(worker: _Worker) -> PairCoords | None:
        if retry_pool:
            return retry_pool.pop(0)
        # A worker starts on its own socket's shard and steals from the
        # others once that drains (replacements steal from everywhere).
        own = worker.shard_index % worker_count
        order = [own] + [i for i in range(worker_count) if i != own]
        for index in order:
            if shards[index]:
                return shards[index].pop(0)
        return None

    def top_up(worker: _Worker) -> None:
        # Pipeline depth 2: the worker always has the next pair queued,
        # so it never idles waiting for the supervisor.
        while len(worker.in_flight) < 2:
            coords = next_task(worker)
            if coords is None:
                return
            dispatch_counts[coords] = dispatch_counts.get(coords, 0) + 1
            attempt = dispatch_counts[coords]
            head_since = time.monotonic() if not worker.in_flight else None
            worker.in_flight.append([coords, attempt, head_since])
            with _span(
                obs, "shard.dispatch", "shard",
                {"worker": worker.worker_id, "ti": coords[0], "tj": coords[1],
                 "attempt": attempt} if obs is not None else None,
            ):
                try:
                    worker.channel.send((coords, attempt))
                except OSError:
                    return  # it just died; the next drain buries it

    def adopt(worker: _Worker, payload: dict[str, Any], result: Any) -> None:
        nonlocal settled
        coords: PairCoords = payload["pair"]
        # The worker serves its tasks in order, so this is the head.
        worker.in_flight.pop(0)
        if worker.in_flight:
            worker.in_flight[0][2] = time.monotonic()
        settled += 1
        parent_plan = active_plan()
        if parent_plan is not None and payload["events"]:
            parent_plan.absorb_wire(payload["events"])
        busy = payload["busy_seconds"]
        lane = f"shard-{worker.worker_id}"
        report.worker_busy_seconds[lane] = (
            report.worker_busy_seconds.get(lane, 0.0) + busy
        )
        worker_conversions[worker.worker_id] = payload["conversions"]
        if obs is not None:
            obs.metrics.counter(f"worker.busy_seconds.{lane}").inc(busy)
        error = payload["error"]
        if error is not None:
            # ``result`` is the failed record (None without a policy).
            result = TaskFailedError(error, pair=coords, outcome=result)
        else:
            worker.record.pairs_completed += 1
        finish(coords, result)

    def drain(worker: _Worker) -> bool:
        """Handle every message waiting on the channel; False once it closed."""
        try:
            while worker.channel.poll():
                message = worker.channel.recv()
                if message[0] == "done":
                    adopt(worker, message[1], message[2])
                    continue
                worker.record.heartbeats = message[1]
                worker.last_beat_change = time.monotonic()
                if obs is not None:
                    obs.tracer.instant(
                        "worker.heartbeat", "shard",
                        {"worker": worker.worker_id, "beat": message[1]},
                    )
        except (EOFError, OSError):
            # The worker is gone (a truncated last message included).
            return False
        return True

    def hung_for(worker: _Worker, now: float) -> float | None:
        """Seconds since the last heartbeat, when that is too long."""
        stale_after = max(_HEARTBEAT_GRACE * shard_config.heartbeat_interval, 1.0)
        if worker.record.heartbeats == 0:
            # No first beat yet: the worker is still importing/starting.
            stale_after = max(stale_after, startup_grace_seconds)
        silent = now - worker.last_beat_change
        return silent if silent > stale_after else None

    def bury(worker: _Worker, cause: str) -> None:
        """Account a dead worker and reassign or quarantine its pairs."""
        if worker.alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        # Pairs it finished before dying are adopted, not recomputed.
        drain(worker)
        worker.release()
        del workers[worker.worker_id]
        worker.record.died = True
        worker.record.cause = cause
        failure.worker_deaths += 1
        observe_session.counter("supervisor.worker_deaths").inc()
        for position, (coords, _attempt, _head) in enumerate(worker.in_flight):
            if position == 0:
                # The oldest unfinished task is the one that was executing.
                kill_blame[coords] = kill_blame.get(coords, 0) + 1
                if kill_blame[coords] >= _QUARANTINE_KILLS:
                    quarantine(coords)
                    continue
            retry_pool.append(coords)
            failure.pairs_reassigned += 1
            observe_session.counter("supervisor.pairs_reassigned").inc()
            with _span(
                obs, "shard.reassign", "shard",
                {"worker": worker.worker_id, "ti": coords[0], "tj": coords[1]}
                if obs is not None else None,
            ):
                pass
        worker.in_flight.clear()

    def quarantine(coords: PairCoords) -> None:
        nonlocal settled
        settled += 1
        failure.pairs_quarantined += 1
        observe_session.counter("supervisor.pairs_quarantined").inc()
        error = TaskFailedError(
            f"pair {coords} quarantined after killing "
            f"{kill_blame[coords]} workers",
            pair=coords,
        )
        error.outcome = PairOutcome(
            pair=coords,
            attempts=dispatch_counts.get(coords, 0),
            failed=True,
            error=repr(error),
        )
        finish(coords, error)

    try:
        for index in range(worker_count):
            top_up(spawn_worker(index))
        while settled < len(pending):
            if cancel is not None:
                cancel.check()
            wait(
                [worker.channel for worker in workers.values()]
                + [worker.process.sentinel for worker in workers.values()],
                timeout=_WAIT_SECONDS,
            )
            now = time.monotonic()
            for worker in list(workers.values()):
                if not drain(worker) or not worker.alive():
                    bury(worker, "process exited")
                    continue
                silent = hung_for(worker, now)
                if silent is not None:
                    bury(worker, f"missed heartbeats for {silent:.2f}s")
                    continue
                if (
                    pair_deadline_seconds is not None
                    and worker.in_flight
                    and now - worker.in_flight[0][2] > pair_deadline_seconds
                ):
                    bury(
                        worker,
                        f"pair {worker.in_flight[0][0]} exceeded the "
                        f"{pair_deadline_seconds}s dispatch deadline",
                    )
                    continue
                top_up(worker)
            if settled < len(pending) and not workers:
                top_up(spawn_worker(0))
    except (KeyboardInterrupt, OperationCancelledError):
        for worker in workers.values():
            worker.process.kill()
        for worker in workers.values():
            worker.process.join(timeout=5.0)
            # Keep what finished: the executor flushes it before unwinding.
            drain(worker)
        raise
    finally:
        for worker in workers.values():
            try:
                worker.channel.send(None)
            except OSError:
                pass  # already dead: killed on the way out
        deadline = time.monotonic() + 10.0
        for worker in workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.alive():  # pragma: no cover - stuck worker backstop
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.release()
    report.conversions = sum(worker_conversions.values())
