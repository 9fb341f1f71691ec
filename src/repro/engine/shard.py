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
* :func:`worker_main` — the worker entry point: start the heartbeat
  thread, then serve dispatched pairs until the ``None`` sentinel
  arrives.

The plan, the operands and the :class:`ShardConfig` reach a worker as
its process arguments: a forked worker maps the supervisor's pages and
copies nothing, and under the spawn start method ``multiprocessing``
pickles them once per worker (pickle's memo keeps a self-product's
``at_b is at_a``).

Each worker talks to the supervisor over one duplex :class:`Channel`
that only it and the supervisor hold (a ``multiprocessing`` ``Pipe``;
tests pass plain stubs).  The supervisor sends ``((ti, tj),
dispatch_attempt)`` tasks and the ``None`` sentinel; the worker sends
``("beat", n)`` heartbeats from its heartbeat thread and one
``("done", payload, result)`` message per pair from its main thread,
both under one send lock: ``result`` is what ``run_pair`` returned,
or a failed pair's record with the error's ``repr`` in the payload.
A worker killed mid-send leaves a truncated message on its own channel
only, which the supervisor reads as the end of that worker.  The
worker writes no file.
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

    def recv(self) -> ShardTask | None:  # pragma: no cover - protocol
        """Block until the next task (or the ``None`` shutdown sentinel)."""
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
    worker_id: int,
    channel: Channel,
    plan: ExecutionPlan,
    at_a: ATMatrix,
    at_b: ATMatrix,
    shard_config: ShardConfig,
) -> None:
    """One supervised worker: serve dispatched pairs until the sentinel.

    Lifecycle: reset inherited process-global state (a forked child
    shares the parent's fault plan and observation objects), check the
    plan against the operands it arrived with, start the heartbeat
    thread, install the shipped fault spec, then loop::

        task = channel.recv()         # ((ti, tj), dispatch_attempt)
        fire_worker_crash(...)        # injected SIGKILL, maybe
        outcome = computer.run_pair(pair)
        channel.send(("done", payload, outcome))   # + busy time, events

    Failures never escape: an exhausted retry budget (or any unexpected
    exception) becomes a done message carrying the error and the failed
    record, and the worker moves on — dying is reserved for injected
    crashes and real ones.
    """
    faults.clear_active()
    observe_session.clear()
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
            task = channel.recv()
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
                "worker": worker_id,
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
