"""Worker-side protocol of the supervised multiprocess executor.

The paper's two-level scheme (Section III-F) places tile-row/tile-column
pairs on worker teams, one per socket; :mod:`repro.resilience.supervisor`
makes those teams real OS processes.  This module holds everything a
worker process needs — and deliberately imports no ``multiprocessing``
(repro-lint RPR008 confines process management to the supervisor):

* :func:`assign_shards` — the placement function: pairs land on the
  shard of their planned ``team_node`` (round-robin tile-row placement,
  exactly the paper's NUMA assignment), so one shard corresponds to one
  simulated socket;
* :class:`ShardConfig` — the per-run contract handed to each worker:
  system config, cost model, retry policy, heartbeat cadence,
  fault-injection spec and the pairs resumed from a checkpoint;
* :func:`worker_main` — the worker entry point: serve runs until the
  supervisor shuts the worker down.

A worker lives across runs, like the paper's per-socket worker teams,
which stay up for the whole computation.  It talks to the supervisor
over one duplex :class:`Channel` that only it and the supervisor hold
(a ``multiprocessing`` ``Pipe``; tests pass plain stubs).  A run is:

* supervisor → worker: one run message ``(plan, at_a, at_b,
  shard_config)`` — a freshly started worker's first one comes in its
  process arguments (inherited under fork, pickled under spawn), every
  later one pickled over the channel (pickle's memo keeps a
  self-product's ``at_b is at_a``) — then ``((ti, tj),
  dispatch_attempt)`` tasks, then the ``None`` end-of-run sentinel;
* worker → supervisor: ``("beat", n)`` heartbeats (``n`` counts this
  run's beats from 1) from the run's heartbeat thread and one
  ``("done", payload, result)`` message per pair from the main
  thread, both under one send lock — ``result`` is what ``run_pair``
  returned, or a failed pair's record with the error's ``repr`` in
  the payload — and, after the end sentinel, ``("ended",)`` once the
  heartbeat thread has stopped.

Between runs the worker holds nothing of the last one and sends
nothing; a ``None`` in place of a run message shuts it down.  A worker
killed mid-send leaves a truncated message on its own channel only,
which the supervisor reads as the end of that worker.  The worker
writes no file.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Protocol

from ..config import SystemConfig
from ..cost.model import CostModel
from ..core.atmatrix import ATMatrix
from ..observe import session as observe_session
from ..resilience import faults
from ..resilience.faults import FaultPlanSpec, fire_worker_crash
from ..resilience.report import PairOutcome
from ..resilience.retry import RetryPolicy
from .executor import PairComputer, _PairOutcome, check_plan_applies
from .plan import ExecutionPlan, PlannedPair

__all__ = [
    "Channel",
    "ShardConfig",
    "assign_shards",
    "worker_main",
]

#: Pair coordinates ``(ti, tj)``.
PairCoords = tuple[int, int]

#: One dispatched task: the pair plus its 1-based dispatch attempt
#: (counted by the supervisor across worker deaths and reassignments).
ShardTask = tuple[PairCoords, int]

class Channel(Protocol):
    """A worker's end of its duplex supervisor channel."""

    def recv(self) -> Any:  # pragma: no cover - protocol
        """Block until the next run message, task or ``None`` sentinel."""
        ...

    def send(self, message: Any) -> None:  # pragma: no cover - protocol
        """Send one heartbeat or done message to the supervisor."""
        ...


@dataclass(frozen=True)
class ShardConfig:
    """The per-run contract handed to every worker process."""

    config: SystemConfig
    cost_model: CostModel
    resilience: RetryPolicy | None
    #: seconds between heartbeat messages
    heartbeat_interval: float
    #: rebuildable fault-injection schedule, when the supervising
    #: process had a plan active (``--inject-faults`` parity)
    fault_spec: FaultPlanSpec | None = None
    #: ``(plan pair index, tile bytes)`` resumed from a checkpoint
    resumed: tuple[tuple[int, int], ...] = ()


#: What starts a run on a worker: the plan, both operands and the
#: per-run contract.
RunMessage = tuple[ExecutionPlan, ATMatrix, ATMatrix, ShardConfig]


def assign_shards(
    pairs: list[PlannedPair], workers: int
) -> list[list[PairCoords]]:
    """Partition planned pairs into one shard per worker.

    A pair lands on shard ``team_node % workers`` — its planned NUMA
    placement, so shard ``k`` is the process-world twin of simulated
    socket ``k`` and operand tile-rows stay with their round-robin home.
    Deterministic: plan order is preserved within each shard, and the
    supervisor's work stealing only rebalances *dispatch*, never
    results.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards: list[list[PairCoords]] = [[] for _ in range(workers)]
    for pair in pairs:
        shards[pair.team_node % workers].append((pair.ti, pair.tj))
    return shards


class _Heartbeat:
    """A daemon thread sending ``("beat", n)`` on this worker's channel."""

    def __init__(
        self, channel: Channel, send_lock: threading.Lock, interval: float
    ) -> None:
        self._channel = channel
        self._send_lock = send_lock
        self._interval = max(interval, 0.01)
        self._stop = threading.Event()
        self._beats = 0
        self._thread = threading.Thread(
            target=self._run, name="heartbeat", daemon=True
        )

    def start(self) -> None:
        self._send()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._send()

    def _send(self) -> None:
        # Single-writer: only the heartbeat thread itself increments,
        # after start() has already sent the first beat.
        self._beats += 1  # repro-lint: disable=RPR012
        with self._send_lock:
            self._channel.send(("beat", self._beats))


def worker_main(
    channel: Channel, first_run: list[RunMessage] | None = None
) -> None:
    """One long-lived supervised worker: serve runs until shutdown.

    Resets inherited process-global state once (a forked child shares
    the parent's fault plan and observation objects), then serves runs
    until a ``None`` arrives between them.  A freshly started worker
    gets its first run message in ``first_run``, a one-item list it
    empties; every other run message arrives on ``channel``.
    """
    faults.clear_active()
    observe_session.clear()
    while _serve_run(channel, first_run):
        pass


def _serve_run(channel: Channel, first_run: list[RunMessage] | None) -> bool:
    """Serve one run from its run message to its end sentinel.

    The run message is ``first_run``'s item if it still has one, else
    the next message on ``channel``.  Returns False when the shutdown
    ``None`` arrives instead of a run message.  Everything the run
    needs — operands, ``PairComputer``, fault plan, heartbeat thread —
    is local here, so an idle worker holds none of it.  Lifecycle:
    check the plan against the operands it arrived with, start the
    heartbeat thread, install the shipped fault spec, then loop::

        task = channel.recv()         # ((ti, tj), dispatch_attempt)
        fire_worker_crash(...)        # injected SIGKILL, maybe
        outcome = computer.run_pair(pair)
        channel.send(("done", payload, outcome))   # + busy time, events

    and on the ``None`` end sentinel stop the heartbeat and send
    ``("ended",)``, the run's last message.

    Failures never escape a pair: an exhausted retry budget (or any
    unexpected exception) becomes a done message carrying the error and
    the failed record, and the worker moves on — dying is reserved for
    injected crashes, real ones and a plan that does not fit its
    operands.
    """
    run: RunMessage | None = first_run.pop() if first_run else channel.recv()
    if run is None:
        return False
    plan, at_a, at_b, shard_config = run
    # Cheap: planning cached both fingerprints on the operands, and the
    # cache travels with them (inherited or pickled).
    check_plan_applies(plan, at_a, at_b)
    send_lock = threading.Lock()
    heartbeat = _Heartbeat(channel, send_lock, shard_config.heartbeat_interval)
    heartbeat.start()
    pairs_by_coords: dict[PairCoords, PlannedPair] = {
        (pair.ti, pair.tj): pair for pair in plan.pairs
    }

    fault_plan = (
        shard_config.fault_spec.build() if shard_config.fault_spec is not None else None
    )
    busy_cell = [0.0]

    def busy_hook(elapsed: float) -> None:
        busy_cell[0] += elapsed

    computer = PairComputer(
        plan,
        at_a,
        at_b,
        cost_model=shard_config.cost_model,
        resilience=shard_config.resilience,
        record_tasks=False,
        busy_hook=busy_hook,
    )
    computer.bind_resilience(shard_config.config)
    computer.note_resumed(shard_config.resumed)
    events_shipped = 0

    def new_events() -> list[dict[str, Any]]:
        nonlocal events_shipped
        if fault_plan is None:
            return []
        events = fault_plan.events[events_shipped:]
        events_shipped += len(events)
        return [faults.event_to_wire(event) for event in events]

    def serve() -> None:
        while True:
            task: ShardTask | None = channel.recv()
            if task is None:
                return
            coords, dispatch_attempt = task
            fire_worker_crash(coords, dispatch_attempt)
            busy_before = busy_cell[0]
            error: str | None = None
            result: _PairOutcome | PairOutcome | None
            try:
                result = computer.run_pair(pairs_by_coords[coords])
            except Exception as exc:  # noqa: BLE001 — shipped to the supervisor
                error = repr(exc)
                result = getattr(exc, "outcome", None)
            payload = {
                "pair": coords,
                "dispatch_attempt": dispatch_attempt,
                "error": error,
                "busy_seconds": busy_cell[0] - busy_before,
                "conversions": computer.conversions.conversions,
                "events": new_events(),
            }
            with send_lock:
                channel.send(("done", payload, result))

    try:
        if fault_plan is not None:
            with faults.inject_faults(fault_plan):
                serve()
        else:
            serve()
    finally:
        heartbeat.stop()
    # The heartbeat thread has stopped: nothing follows this on the
    # channel until the next run message.
    channel.send(("ended",))
    return True
