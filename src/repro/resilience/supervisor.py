"""The supervised multiprocess shard executor.

:func:`run_supervised` is who runs the pending tile pairs under
``execution="processes"`` in
:func:`~repro.engine.executor.execute_plan`: it shards them across OS
worker processes (one shard per simulated socket,
:func:`~repro.engine.shard.assign_shards`), hands each worker the plan
and operands in a run message (never written to disk), supervises the
workers with per-worker heartbeats, per-pair dispatch deadlines and
liveness checks, and hands each finished pair to the executor's finish
step.  Pair accounting, checkpoint resume and flushing, the aggregated
error, the result matrix and the memory-SLA repair belong to the
executor, shared with the in-process backends.

This is the **only** module in ``src/repro`` allowed to import
``multiprocessing`` (repro-lint rule RPR008): process lifecycle is a
resilience concern, and confining it here keeps every other layer
testable in-process.

Worker lifecycle
----------------
Workers outlive the call that started them, as the paper's per-socket
worker teams outlive one tile pair.  A run takes live workers from a
lock-guarded idle list first and forks (or, without fork, spawns) only
the missing ones, so fork and interpreter start-up are paid by the
first process-backend call of a process (and the first after an idle
spell, see below), not by every call.  When a run
settles every pair, its surviving workers end the run and go back on
the idle list, which keeps at most that run's worker count; the rest
are shut down.  A worker that was buried — it exited, hung, overran a
pair deadline or was killed by an injected crash — or that belonged to
a cancelled, interrupted or failed run never serves again.

A forked worker is a snapshot of the caller at the fork, so two things
bound its reuse.  It runs the kernel registry it inherited, so a run
takes only workers started under the caller's current registry
(:func:`~repro.kernels.registry.register_kernel` and
``use_reference_kernels`` change it in the caller alone) and shuts
down the others.  And it keeps the caller's heap as it was, memory the
caller frees later included, so a reaper thread shuts down workers
idle for :data:`_IDLE_SECONDS`.  The idle list is shut down at
interpreter exit (shutdown message, join, kill after
:data:`_STOP_SECONDS`), and a forked child starts with an empty one, so
it never dispatches to its parent's workers.  A forked child, a worker
included, also closes its copies of the caller's end of every worker's
channel and process sentinel, so a worker whose caller dies without
shutting it down reads end-of-file and exits.  Workers ignore
SIGINT: Ctrl-C at the caller's terminal reaches idle workers too, and
the supervisor ends its workers itself.  Nothing forks at import time.

Supervision protocol
--------------------
One duplex ``multiprocessing`` ``Pipe`` per worker, held only by the
supervisor and that worker; the supervisor closes the worker's end in
its own process right after the start, and every forked child closes
its copy of the supervisor's end.  Supervisor → worker: a run
message ``(plan, at_a, at_b, shard_config)`` — a fresh worker's first
one in its process arguments, so a forked worker inherits the operands
without a copy, and every later one pickled once per run and sent on the
channel — then ``((ti, tj), dispatch_attempt)`` tasks, then a ``None``
end-of-run sentinel; a ``None`` between runs shuts the worker down.  Worker →
supervisor: ``("beat", n)`` heartbeats counted from 1 in every run, one
``("done", payload, result)`` message per pair (the worker's
``run_pair`` result, busy time and fault events, see
:mod:`repro.engine.shard`) and, after the end sentinel, ``("ended",)``
once its heartbeat thread has stopped.  The supervisor reads up to that
acknowledgement before it puts the worker on the idle list, so an idle
worker's channel is empty and stays silent, and the next run reads no
stale beat.  The supervisor blocks in ``multiprocessing.connection.wait``
on every channel and every process sentinel; the wait's timeout only
bounds how quickly cancellation, deadlines and heartbeat staleness are
noticed.  A channel shares no state with any other worker's, so a
SIGKILLed worker can corrupt nothing but its own, which the supervisor
then reads as end-of-file.  Nothing is written to disk: a caller's
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
worker is taken from the idle list or started.  Recomputing a reassigned pair is deterministic, and
tiles cross the channel as pickled exact float bytes, so results stay
bit-identical to the in-process backends.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections.abc import Callable
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import TYPE_CHECKING, Any, NamedTuple

from ..errors import OperationCancelledError, TaskFailedError
from ..kernels.registry import registered_kernels
from ..observe import Observation
from ..observe import session as observe_session
from ..resilience.report import PairOutcome, WorkerRecord
from .cancel import CancelToken
from .faults import active_plan
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
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

#: How long (seconds) workers get to acknowledge the end of a run, or
#: to exit after the shutdown message, before they are killed.
_STOP_SECONDS = 10.0

#: An idle worker is shut down after this many seconds without a run.
#: A forked worker keeps the caller's heap as it was at the fork, so
#: memory the caller frees later stays alive in the worker; the idle
#: list holds it only while calls keep coming.
_IDLE_SECONDS = 5.0

#: The kernel registry a worker was started with: which kernel serves
#: each (A, B, C) type combination.
Kernels = dict[Any, Any]


class IdleWorker(NamedTuple):
    """A warm worker between runs."""

    process: Any
    channel: Any
    #: the caller's kernel registry when the worker was forked, which
    #: the worker inherited and keeps
    kernels: Kernels
    #: ``time.monotonic()`` when it went idle
    since: float = 0.0


#: Warm workers waiting for the next run, longest idle first, guarded
#: by ``_idle_lock``; ``_idle_changed`` wakes the reaper thread.
_idle: list[IdleWorker] = []
_idle_lock = threading.Lock()
_idle_changed = threading.Condition(_idle_lock)
_reaper: threading.Thread | None = None

#: Names the worker processes this process starts.
_process_ids = itertools.count()

#: Held while a worker starts and while ``_ends`` changes.  A worker
#: forked by another thread in that window would inherit the new
#: worker's pipe end and the write end of its process sentinel, which
#: ``multiprocessing`` holds privately until ``start()`` returns, so the
#: new worker's exit would read as neither end-of-file nor a fired
#: sentinel until that sibling exited.
_start_lock = threading.Lock()

#: The caller's end of every worker this process started and has not
#: released: its channel, mapped to its process (whose sentinel is a
#: descriptor too).  A forked child closes them all (:func:`_forget_idle`),
#: so a worker holds no end of a sibling's channel and not the caller's
#: end of its own, and reads end-of-file once the caller is gone.
_ends: dict[Any, Any] = {}


def _take_idle(kernels: Kernels) -> IdleWorker | None:
    """A live idle worker started under ``kernels``, or None.

    Idle workers found dead, or started under another kernel registry
    (``register_kernel`` or ``use_reference_kernels`` since), are shut
    down: a worker cannot see the caller's registry change.
    """
    while True:
        with _idle_lock:
            if not _idle:
                return None
            idle = _idle.pop()
        # An idle worker sends nothing, so a readable channel means it
        # is gone (end-of-file).
        if (
            idle.kernels == kernels
            and idle.process.is_alive()
            and not idle.channel.poll()
        ):
            return idle
        _shut_down([idle])


def _give_back(warm: list[IdleWorker], keep: int) -> None:
    """Put a run's quiet workers on the idle list, keeping at most ``keep``.

    The longest-idle workers are the ones shut down.
    """
    global _reaper
    with _idle_lock:
        now = time.monotonic()
        _idle.extend(idle._replace(since=now) for idle in warm)
        cut = max(0, len(_idle) - keep)
        extra = _idle[:cut]
        del _idle[:cut]
        if _idle and _reaper is None:
            _reaper = threading.Thread(
                target=_reap, name="repro-shard-reaper", daemon=True
            )
            _reaper.start()
        _idle_changed.notify()
    _shut_down(extra)


def _reap() -> None:
    """Shut down workers idle for :data:`_IDLE_SECONDS`; runs until exit."""
    while True:
        with _idle_lock:
            now = time.monotonic()
            expired: list[IdleWorker] = []
            while _idle and now - _idle[0].since >= _IDLE_SECONDS:
                expired.append(_idle.pop(0))
            if not expired:
                _idle_changed.wait(
                    _idle[0].since + _IDLE_SECONDS - now if _idle else None
                )
                continue
        _shut_down(expired)


def _shut_down(idle: list[IdleWorker]) -> None:
    """Shut idle workers down: shutdown message, join, close."""
    for worker in idle:
        try:
            worker.channel.send(None)
        except OSError:
            pass  # already dead
    deadline = time.monotonic() + _STOP_SECONDS
    for worker in idle:
        process = worker.process
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():  # pragma: no cover - stuck worker backstop
            process.kill()
            process.join(timeout=5.0)
        _release(process, worker.channel)


def _release(process: Any, channel: Any) -> None:
    """Close the channel and the process handle of a joined worker."""
    with _start_lock:
        _ends.pop(channel, None)
    channel.close()
    if process.exitcode is not None:
        process.close()


def _shutdown_idle() -> None:
    """Shut down every idle worker (at exit; tests call it for isolation)."""
    _give_back([], keep=0)


def _forget_idle() -> None:
    """In a forked child: the parent's workers are not this process's.

    Closes the child's copies of the parent's ends of every worker's
    channel and process sentinel, a worker's own channel included.
    """
    global _idle_lock, _idle_changed, _reaper, _start_lock
    _idle_lock = threading.Lock()
    _start_lock = threading.Lock()
    _idle_changed = threading.Condition(_idle_lock)
    _reaper = None  # the parent's thread does not exist here
    for channel, process in _ends.items():
        channel.close()
        try:
            os.close(process.sentinel)
        except ValueError:
            pass  # still starting (this very worker, say): no sentinel yet
    _ends.clear()
    _idle.clear()


atexit.register(_shutdown_idle)
os.register_at_fork(after_in_child=_forget_idle)


class _Worker:
    """Supervisor-side state of one worker process."""

    def __init__(self, worker_id: int, started: IdleWorker, shard_index: int) -> None:
        self.worker_id = worker_id
        self.process = started.process
        self.channel = started.channel
        self.kernels = started.kernels
        self.shard_index = shard_index
        self.record = WorkerRecord(worker_id=worker_id, pid=self.process.pid)
        #: dispatched-but-unconfirmed tasks, oldest first:
        #: ``[coords, dispatch_attempt, head_since]``
        self.in_flight: list[list[Any]] = []
        self.last_beat_change = time.monotonic()

    def alive(self) -> bool:
        return bool(self.process.is_alive())

    def kill(self) -> None:
        """Kill, join and release a worker that must not serve again."""
        if self.alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        _release(self.process, self.channel)


def run_supervised(
    plan: ExecutionPlan,
    at_a: ATMatrix,
    at_b: ATMatrix,
    pending: list[PlannedPair],
    finish: Finish,
    *,
    report: ParallelReport,
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
    the calling thread as its done message arrives.  This function
    accounts on ``report`` only what concerns
    workers — busy time, conversion counts, and the ``worker_deaths``,
    ``pairs_reassigned``, ``pairs_quarantined`` and per-worker
    :class:`~repro.resilience.report.WorkerRecord` entries of
    ``report.failure`` — running ``report.workers`` workers at a time.

    A tripped ``cancel`` token is observed within the channel wait's
    timeout: workers are killed, done messages already in their
    channels are settled, and the run unwinds with
    :class:`~repro.errors.OperationCancelledError`.
    ``startup_grace_seconds`` bounds how long a worker may take to send
    the first heartbeat of the run; only a freshly started worker, which
    still has to fork or start an interpreter, comes near it.
    """
    # Imported here, not at module top: engine.shard pulls in the
    # executor, which lazily imports this module for mode dispatch.
    from ..engine import shard

    if not pending:
        return
    parent_plan = active_plan()
    shard_config = shard.ShardConfig(
        cost_model=cost_model,
        resilience=resilience,
        heartbeat_interval=heartbeat_interval,
        fault_spec=parent_plan.spec() if parent_plan is not None else None,
    )
    _supervise(
        plan, at_a, at_b, pending, finish, shard_config, report,
        obs, pair_deadline_seconds, startup_grace_seconds, cancel,
    )


def _make_context() -> Any:
    """Fork where possible (workers inherit loaded modules), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _start(ctx: Any, run: Any) -> IdleWorker:
    """Start one fresh worker process on its first run.

    The run goes in the process arguments: a forked worker inherits the
    plan and operands without a copy, a spawned one unpickles them.
    Later runs reach the worker over its channel.
    """
    with _start_lock:
        channel, worker_end = ctx.Pipe()
        process = ctx.Process(
            target=_worker_process,
            # A list the worker empties, so that the process object does
            # not hold the first run's operands for the worker's lifetime.
            args=(worker_end, [run]),
            name=f"repro-shard-{next(_process_ids)}",
            daemon=True,
        )
        kernels = registered_kernels()
        # Registered before the fork, so the worker closes this end too.
        _ends[channel] = process
        try:
            process.start()
        except BaseException:
            del _ends[channel]
            channel.close()
            raise
        finally:
            # The worker holds the only other copy, so its death reads
            # as end-of-file on ``channel``.
            worker_end.close()
    return IdleWorker(process, channel, kernels)


def _worker_process(channel: Any, first_run: list[Any]) -> None:
    """A worker process's entry point: the shard protocol, without Ctrl-C.

    Ctrl-C at the caller's terminal reaches the whole process group, idle
    workers included; the supervisor ends its workers itself.  A caller
    that dies without shutting the worker down closes the channel's only
    other end, and the worker exits quietly.
    """
    from ..engine import shard

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        shard.worker_main(channel, first_run)
    except (EOFError, BrokenPipeError):
        pass  # the caller is gone


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
    kernels = registered_kernels()
    run = (plan, at_a, at_b, shard_config)
    #: ``run`` pickled once for every warm worker of the run
    run_message: memoryview | None = None
    shards = shard.assign_shards(pending, worker_count)
    #: pairs killed back into the pool by a worker death, dispatched first
    retry_pool: list[PairCoords] = []
    dispatch_counts: dict[PairCoords, int] = {}
    kill_blame: dict[PairCoords, int] = {}
    settled = 0
    worker_conversions: dict[int, int] = {}
    next_worker_id = 0
    workers: dict[int, _Worker] = {}

    def spawn_workers(shard_indices: list[int]) -> None:
        """Start a run on warm idle workers, forking only the missing ones."""
        nonlocal next_worker_id, run_message
        for shard_index in shard_indices:
            warm = _take_idle(kernels)
            worker = _Worker(
                next_worker_id, warm or _start(ctx, run), shard_index
            )
            next_worker_id += 1
            workers[worker.worker_id] = worker
            failure.workers[worker.worker_id] = worker.record
            if warm is not None:
                if run_message is None:
                    run_message = ForkingPickler.dumps(run)
                try:
                    worker.channel.send_bytes(run_message)
                except OSError:
                    continue  # it just died; the next drain buries it
            top_up(worker)

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

    def note_beat(worker: _Worker, beat: int) -> None:
        worker.record.heartbeats = beat
        worker.last_beat_change = time.monotonic()
        if obs is not None:
            obs.tracer.instant(
                "worker.heartbeat", "shard",
                {"worker": worker.worker_id, "beat": beat},
            )

    def drain(worker: _Worker) -> bool:
        """Handle every message waiting on the channel; False once it closed."""
        while True:
            try:
                if not worker.channel.poll():
                    return True
                message = worker.channel.recv()
            except (EOFError, OSError):
                # The worker is gone (a truncated last message included).
                return False
            # Outside the try: an error settling the pair (say, the
            # caller's checkpoint failing to write) is the run's, not a
            # sign that the worker died.
            if message[0] == "done":
                adopt(worker, message[1], message[2])
            else:
                note_beat(worker, message[1])

    def ended(worker: _Worker, deadline: float) -> bool:
        """Read the run's last beats up to the worker's ``("ended",)``.

        False once the worker exited with nothing left to read (another
        process may hold a copy of its pipe end, so no end-of-file need
        come) or ``deadline`` passed.
        """
        watched = [worker.channel, worker.process.sentinel]
        while worker.channel in wait(
            watched, timeout=max(0.0, deadline - time.monotonic())
        ):
            try:
                message = worker.channel.recv()
            except (EOFError, OSError):
                return False
            if message[0] == "ended":
                return True
            note_beat(worker, message[1])
        return False

    def retire(survivors: list[_Worker]) -> None:
        """End the run on its surviving workers and keep them warm."""
        for worker in survivors:
            try:
                worker.channel.send(None)
            except OSError:
                pass  # dead: ended() sees it exit
        deadline = time.monotonic() + _STOP_SECONDS
        warm: list[IdleWorker] = []
        for worker in survivors:
            if ended(worker, deadline):
                warm.append(IdleWorker(worker.process, worker.channel, worker.kernels))
            else:
                worker.kill()
        _give_back(warm, keep=worker_count)

    def hung_for(worker: _Worker, now: float) -> float | None:
        """Seconds since the last heartbeat, when that is too long."""
        stale_after = max(_HEARTBEAT_GRACE * shard_config.heartbeat_interval, 1.0)
        if worker.record.heartbeats == 0:
            # No beat in this run yet: the worker is starting up or
            # unpickling the run message.
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
        _release(worker.process, worker.channel)
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

    clean = False
    try:
        spawn_workers(list(range(worker_count)))
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
                spawn_workers([0])
        clean = True
    except (KeyboardInterrupt, OperationCancelledError):
        for worker in workers.values():
            worker.process.kill()
        for worker in workers.values():
            worker.process.join(timeout=5.0)
            # Keep what finished: the executor flushes it before unwinding.
            drain(worker)
        raise
    finally:
        # Only a run that settled every pair hands its workers on; the
        # workers of a cancelled or failed run may be mid-pair.
        if clean:
            retire(list(workers.values()))
        else:
            for worker in workers.values():
                worker.kill()
    report.conversions = sum(worker_conversions.values())
