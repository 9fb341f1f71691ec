"""The supervised multiprocess shard executor.

:func:`run_supervised` is who runs the pending tile pairs under
``execution="processes"`` in
:func:`~repro.engine.executor.execute_plan`: it shards them across OS
worker processes (one shard per simulated socket,
:func:`~repro.engine.shard.assign_shards`), hands each worker the plan
and operands as its process arguments (inherited under fork, pickled
under spawn — never written to disk), supervises the workers with
per-worker heartbeats, per-pair dispatch deadlines and liveness checks,
and returns the adopted result tiles.  The report, checkpoint resume,
the aggregated error, the result matrix and the memory-SLA repair
belong to the executor, shared with the in-process backends.

This is the **only** module in ``src/repro`` allowed to import
``multiprocessing`` (repro-lint rule RPR008): process lifecycle is a
resilience concern, and confining it here keeps every other layer
testable in-process.

Supervision protocol
--------------------
Supervisor → worker: one ``SimpleQueue`` per worker carrying
``((ti, tj), dispatch_attempt)`` tasks and a ``None`` shutdown sentinel.
Only the supervisor writes these queues and only the owning worker reads
them, so a SIGKILLed worker cannot corrupt anybody else's channel.

Worker → supervisor: **files only** — heartbeat files, per-pair done
files, and the shared checkpoint journal, all atomically written.  A
worker flushes a pair's journal record durably *before* writing its done
file, so a result the supervisor adopts can never vanish with its
worker.  The supervisor loads and CRC-checks a pair's record when it
adopts the done file, while the workers are still computing; the run
directory holds nothing else.

Failure handling
----------------
A worker is declared dead when its process exits, its heartbeat file
goes stale, or its current pair exceeds the dispatch deadline (the
latter two get a SIGKILL first).  Unfinished pairs of a dead worker are
reassigned to surviving workers; a pair whose execution killed its
worker twice is *quarantined* — recorded as a failed
:class:`~repro.resilience.report.PairOutcome` instead of retried
forever.  When no workers survive and work remains, a replacement
worker is spawned.  Supervisor-level restarts resume bit-identically
through the :class:`~repro.resilience.checkpoint.CheckpointStore`
journal: recomputing a reassigned pair is deterministic, and adopted
tiles round-trip through the journal's exact float bytes.
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.tile import Tile
from ..errors import OperationCancelledError, TaskFailedError
from ..observe import Observation
from ..observe import session as observe_session
from ..resilience.report import PairOutcome, WorkerRecord
from .cancel import CancelToken
from .checkpoint import CheckpointStore
from .faults import active_plan
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig
    from ..core.atmatrix import ATMatrix
    from ..core.report import ParallelReport
    from ..cost.model import CostModel
    from ..engine.plan import ExecutionPlan, PlannedPair
    from ..engine.shard import PairCoords

__all__ = ["SupervisedRun", "processes_available", "run_supervised"]

_span = observe_session.tracer_span

#: Heartbeats may be late by this factor before a worker counts as hung.
_HEARTBEAT_GRACE = 5.0

#: A pair that killed its worker this many times is quarantined.
_QUARANTINE_KILLS = 2

#: Supervisor poll cadence (seconds): done files and liveness checks.
_POLL_SECONDS = 0.005


def processes_available() -> bool:
    """Whether this platform can run the multiprocess backend.

    ``multiprocessing`` needs working OS semaphores; platforms without
    them (some containers, WebAssembly builds) raise ``ImportError`` on
    the synchronize module, and callers fall back to threads.
    """
    try:
        import multiprocessing.synchronize  # noqa: F401 — probe only
    except ImportError:  # pragma: no cover - platform-specific
        return False
    return True


class _Worker:
    """Supervisor-side state of one worker process."""

    def __init__(
        self, worker_id: int, process: Any, queue: Any, shard_index: int = 0
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.queue = queue
        self.shard_index = shard_index
        self.record = WorkerRecord(worker_id=worker_id, pid=process.pid)
        #: dispatched-but-unconfirmed tasks, oldest first:
        #: ``[coords, dispatch_attempt, head_since]``
        self.in_flight: list[list[Any]] = []
        self.last_beat = 0
        self.last_beat_change = time.monotonic()
        self.sentinel_sent = False

    def alive(self) -> bool:
        return bool(self.process.is_alive())


@dataclass
class SupervisedRun:
    """What :func:`run_supervised` hands back to the executor."""

    #: the adopted result tile of every completed pair (``None`` for an
    #: all-zero product); failed and quarantined pairs are absent
    tiles: dict[PairCoords, Tile | None]
    #: journal flushes the workers made
    flushes: int
    #: just-in-time input conversions the workers made
    conversions: int


def run_supervised(
    plan: ExecutionPlan,
    at_a: ATMatrix,
    at_b: ATMatrix,
    pending: list[PlannedPair],
    checkpoint: CheckpointStore | None,
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
) -> SupervisedRun:
    """Run the ``pending`` pairs of ``plan`` on supervised worker processes.

    :func:`~repro.engine.executor.execute_plan` owns everything before
    and after: it begins ``checkpoint`` (a store already begun on
    ``plan``, or ``None``), resumes, flushes it, assembles the result
    and raises the aggregated error.  This function accounts each pair
    on ``report`` as it settles — per-pair outcomes, errors, busy time,
    kernel counts, and the ``worker_deaths``, ``pairs_reassigned``,
    ``pairs_quarantined`` and per-worker
    :class:`~repro.resilience.report.WorkerRecord` entries of
    ``report.failure`` — running ``report.workers`` workers at a time.

    The journal is the worker → supervisor result channel, so workers
    flush it after *every* pair, whatever the caller's flush cadence;
    without a caller ``checkpoint`` a temporary journal serves.

    A tripped ``cancel`` token is observed at the dispatch loop's poll
    cadence: workers are killed and the run unwinds with
    :class:`~repro.errors.OperationCancelledError`, leaving every
    adopted pair resumable.  ``startup_grace_seconds`` bounds how long
    a fresh worker may take to post its first heartbeat.
    """
    # Imported here, not at module top: engine.shard pulls in the
    # executor, which lazily imports this module for mode dispatch.
    from ..engine import shard

    if not pending:
        return SupervisedRun({}, 0, 0)
    with tempfile.TemporaryDirectory(prefix="repro-shard-") as tmp:
        run_dir = Path(tmp)
        store = checkpoint
        if store is None:
            store = CheckpointStore(run_dir / "journal")
            store.begin(plan)
        parent_plan = active_plan()
        shard_config = shard.ShardConfig(
            config=config,
            cost_model=cost_model,
            resilience=resilience,
            heartbeat_interval=heartbeat_interval,
            journal_dir=str(store.directory),
            fault_spec=parent_plan.spec() if parent_plan is not None else None,
        )
        return _supervise(
            plan, at_a, at_b, pending, run_dir, store, shard_config, report,
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
    run_dir: Path,
    store: CheckpointStore,
    shard_config: Any,
    report: ParallelReport,
    obs: Observation | None,
    pair_deadline_seconds: float | None,
    startup_grace_seconds: float,
    cancel: CancelToken | None,
) -> SupervisedRun:
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
    done_pairs: set[PairCoords] = set()
    adopted: dict[PairCoords, Tile | None] = {}
    quarantined: set[PairCoords] = set()
    total = len(pending)
    worker_flushes: dict[int, int] = {}
    worker_conversions: dict[int, int] = {}
    next_worker_id = 0
    workers: dict[int, _Worker] = {}

    def spawn_worker(shard_index: int) -> _Worker:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        queue = ctx.SimpleQueue()
        process = ctx.Process(
            target=shard.worker_main,
            args=(worker_id, str(run_dir), queue, plan, at_a, at_b, shard_config),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        worker = _Worker(worker_id, process, queue, shard_index)
        worker.record.pid = process.pid
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

    def dispatch(worker: _Worker) -> bool:
        coords = next_task(worker)
        if coords is None:
            return False
        dispatch_counts[coords] = dispatch_counts.get(coords, 0) + 1
        attempt = dispatch_counts[coords]
        head_since = time.monotonic() if not worker.in_flight else None
        worker.in_flight.append([coords, attempt, head_since])
        with _span(
            obs, "shard.dispatch", "shard",
            {"worker": worker.worker_id, "ti": coords[0], "tj": coords[1],
             "attempt": attempt} if obs is not None else None,
        ):
            worker.queue.put((coords, attempt))
        return True

    def adopt_done(worker: _Worker, payload: dict[str, Any]) -> None:
        coords = (int(payload["pair"][0]), int(payload["pair"][1]))
        done_pairs.add(coords)
        outcome = payload.get("outcome") or {}
        failure.merge_outcome(
            PairOutcome(
                pair=coords,
                attempts=int(outcome.get("attempts", 1)),
                retries=int(outcome.get("retries", 0)),
                degradations=int(outcome.get("degradations", 0)),
                deadline_violations=int(outcome.get("deadline_violations", 0)),
                fallbacks=int(outcome.get("fallbacks", 0)),
                late=bool(outcome.get("late", False)),
                failed=bool(outcome.get("failed", False)),
                error=outcome.get("error"),
            )
        )
        parent_plan = active_plan()
        if parent_plan is not None and payload.get("events"):
            parent_plan.absorb_wire(payload["events"])
        busy = float(payload.get("busy_seconds", 0.0))
        lane = f"shard-{worker.worker_id}"
        report.worker_busy_seconds[lane] = (
            report.worker_busy_seconds.get(lane, 0.0) + busy
        )
        worker_flushes[worker.worker_id] = int(payload.get("flushes", 0))
        worker_conversions[worker.worker_id] = int(payload.get("conversions", 0))
        if obs is not None:
            obs.metrics.counter(f"worker.busy_seconds.{lane}").inc(busy)
        if payload.get("failed"):
            failure.record_error(
                coords, TaskFailedError(str(payload.get("error")), pair=coords)
            )
        else:
            # The worker flushed this record before writing its done
            # file; reading it now overlaps the load and CRC check with
            # the other workers' compute and fsync waits.
            adopted[coords] = store.load_pair(coords)
            report.products += int(payload.get("products", 0))
            report.pairs_executed += 1
            report.merge_kernel_counts(
                {str(k): int(v) for k, v in payload.get("kernel_counts", {}).items()}
            )
            worker.record.pairs_completed += 1

    def read_done(coords: PairCoords) -> dict[str, Any] | None:
        path = shard.done_file(run_dir, coords)
        if not path.exists():
            return None
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # pragma: no cover - torn read impossible
            return None                # (atomic writes), racing unlink only
        path.unlink(missing_ok=True)
        return loaded if isinstance(loaded, dict) else None

    def check_heartbeat(worker: _Worker) -> bool:
        """Refresh heartbeat state; False when the worker looks hung."""
        path = shard.heartbeat_file(run_dir, worker.worker_id)
        if path.exists():
            try:
                beat = int(
                    json.loads(path.read_text(encoding="utf-8")).get("beat", 0)
                )
            except (OSError, ValueError):
                beat = worker.last_beat
            if beat != worker.last_beat:
                worker.last_beat = beat
                worker.last_beat_change = time.monotonic()
                worker.record.heartbeats = beat
                if obs is not None:
                    obs.tracer.instant(
                        "worker.heartbeat", "shard",
                        {"worker": worker.worker_id, "beat": beat},
                    )
        stale_after = max(
            _HEARTBEAT_GRACE * shard_config.heartbeat_interval, 1.0
        )
        if worker.last_beat == 0:
            # No first beat yet: the worker is still importing/starting.
            stale_after = max(stale_after, startup_grace_seconds)
        return time.monotonic() - worker.last_beat_change <= stale_after

    def bury(worker: _Worker, cause: str) -> None:
        """Account a dead worker and reassign or quarantine its pairs."""
        if worker.alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)
        worker.record.died = True
        worker.record.cause = cause
        failure.worker_deaths += 1
        observe_session.counter("supervisor.worker_deaths").inc()
        blamed = False
        for coords, _attempt, _head in list(worker.in_flight):
            late = read_done(coords)
            if late is not None:
                # The pair actually finished (and flushed) before death.
                adopt_done(worker, late)
                continue
            if not blamed:
                # Oldest unfinished task is the one that was executing.
                blamed = True
                kill_blame[coords] = kill_blame.get(coords, 0) + 1
                if kill_blame[coords] >= _QUARANTINE_KILLS:
                    quarantined.add(coords)
                    failure.pairs_quarantined += 1
                    observe_session.counter("supervisor.pairs_quarantined").inc()
                    error = TaskFailedError(
                        f"pair {coords} quarantined after killing "
                        f"{kill_blame[coords]} workers",
                        pair=coords,
                    )
                    failure.merge_outcome(
                        PairOutcome(
                            pair=coords,
                            attempts=dispatch_counts.get(coords, 0),
                            failed=True,
                            error=repr(error),
                        )
                    )
                    failure.record_error(coords, error)
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
        del workers[worker.worker_id]

    def remaining() -> int:
        return total - len(done_pairs) - len(quarantined)

    crew = [spawn_worker(index) for index in range(worker_count)]
    try:
        for worker in crew:
            # Pipeline depth 2: the worker always has the next pair
            # queued, so it never idles on the supervisor's poll cadence.
            dispatch(worker)
            dispatch(worker)
        while remaining() > 0:
            if cancel is not None:
                # Cancellation lands between dispatches: pairs already
                # on a worker finish and are adopted via their durable
                # done files on the *next* run's resume.
                cancel.check()
            now = time.monotonic()
            for worker in list(workers.values()):
                # Adopt results head-first, in dispatch order.
                while worker.in_flight:
                    head = worker.in_flight[0]
                    payload = read_done(head[0])
                    if payload is None:
                        break
                    worker.in_flight.pop(0)
                    if worker.in_flight and worker.in_flight[0][2] is None:
                        worker.in_flight[0][2] = time.monotonic()
                    adopt_done(worker, payload)
                    dispatch(worker)
                if not worker.alive():
                    bury(worker, "process exited")
                    continue
                if not check_heartbeat(worker):
                    bury(
                        worker,
                        f"missed heartbeats for "
                        f"{now - worker.last_beat_change:.2f}s",
                    )
                    continue
                if (
                    pair_deadline_seconds is not None
                    and worker.in_flight
                    and worker.in_flight[0][2] is not None
                    and now - worker.in_flight[0][2] > pair_deadline_seconds
                ):
                    bury(
                        worker,
                        f"pair {worker.in_flight[0][0]} exceeded the "
                        f"{pair_deadline_seconds}s dispatch deadline",
                    )
                    continue
                if not worker.in_flight:
                    dispatch(worker)
            if remaining() > 0 and not workers:
                replacement = spawn_worker(0)
                dispatch(replacement)
                dispatch(replacement)
            time.sleep(_POLL_SECONDS)
    except (KeyboardInterrupt, OperationCancelledError):
        for worker in workers.values():
            worker.process.kill()
        for worker in workers.values():
            worker.process.join(timeout=5.0)
        raise
    finally:
        for worker in workers.values():
            if not worker.sentinel_sent:
                worker.sentinel_sent = True
                worker.queue.put(None)
        deadline = time.monotonic() + 10.0
        for worker in workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.alive():  # pragma: no cover - stuck worker backstop
                worker.process.kill()
                worker.process.join(timeout=5.0)

    return SupervisedRun(
        adopted, sum(worker_flushes.values()), sum(worker_conversions.values())
    )
