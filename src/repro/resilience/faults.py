"""Deterministic, seeded fault injection for the execution stack.

A :class:`FaultPlan` decides — purely from a seed and the identity of the
hook site — whether a fault fires at a given point of an ATMULT run.  The
decision is a hash of ``(seed, kind, site, task, iteration, extra)``, so
it is reproducible bit-for-bit regardless of thread scheduling: the same
plan injects the same faults into the same tile products on every run.

Four fault kinds model the failure modes of long-running sparse chains:

``KERNEL_ERROR``
    a transient exception raised before a tile-product kernel runs
    (:class:`InjectedFaultError`), standing in for flaky library calls,
    bit flips surfacing as exceptions, or cancelled sub-requests;
``STALL``
    a worker stall — the hook sleeps ``stall_seconds`` — which surfaces
    as a task-deadline violation under a
    :class:`~repro.resilience.retry.RetryPolicy`;
``MEMORY_PRESSURE``
    a simulated memory spike raising :class:`~repro.errors.MemoryLimitError`,
    which the retry layer absorbs by re-running that pair with a sparse
    accumulator (:mod:`repro.resilience.retry`);
``CORRUPTION``
    a silent result corruption — a NaN poked into the pair's accumulator
    after a kernel ran — which only the result guard
    (:mod:`repro.resilience.guard`) can catch;
``WORKER_CRASH``
    a hard worker death — ``SIGKILL`` delivered to the current process
    before a listed pair runs — which only the process supervisor
    (:mod:`repro.resilience.supervisor`) can survive.  Ignored under
    thread execution: killing the process would kill the whole run.

Because every decision is a pure function of the seed and the hook-site
identity, a plan pickles as its seed and rates alone: a worker process
unpickles a fresh plan that makes the same decisions, and the caller's
plan takes in the events the worker's copy records
(:meth:`FaultPlan.absorb`).
``--inject-faults`` therefore injects the same pair-level failures
under ``--execution=processes`` as under threads, and records the same
events.

Hook points live in :func:`repro.kernels.registry.run_tile_product`
(sites ``"kernel"`` pre-kernel and the post-kernel corruption hook), in
:meth:`repro.engine.executor.PairComputer.compute`, which every
backend's attempts run through (site ``"pair"``), and at the top of every
solver iteration in :mod:`repro.solve` (site ``"iteration"``, extra =
the iteration number).  The hooks are no-ops —
one global ``None`` check — unless a plan is activated with
:func:`inject_faults`.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from collections.abc import Iterator
from typing import Any

from ..errors import ConfigError, MemoryLimitError, TaskFailedError


class InjectedFaultError(TaskFailedError):
    """A transient failure raised on purpose by an active fault plan."""


class FaultKind(enum.Enum):
    """The failure modes a :class:`FaultPlan` can inject."""

    KERNEL_ERROR = "kernel_error"
    STALL = "stall"
    MEMORY_PRESSURE = "memory_pressure"
    CORRUPTION = "corruption"
    WORKER_CRASH = "worker_crash"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for accounting."""

    kind: FaultKind
    site: str
    task: Any
    iteration: int
    extra: Any = None


def stable_unit(*parts: Any) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from hashable parts.

    Uses SHA-256 over the ``repr`` of the parts, so the value is stable
    across processes, platforms, and thread interleavings.
    """
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _rate(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


class FaultPlan:
    """A seeded schedule of injected faults.

    Rates are evaluated independently at every hook firing; a rate of
    0.1 at the ``"kernel"`` site injects a fault into roughly 10% of the
    tile products of a run.  The plan records every injected event
    (thread-safely), so tests can reconcile the execution layer's
    :class:`~repro.resilience.report.FailureReport` against the ground
    truth: every raising fault must end up retried, degraded, or failed.
    """

    def __init__(
        self,
        seed: int,
        *,
        kernel_error_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_seconds: float = 0.005,
        memory_pressure_rate: float = 0.0,
        corruption_rate: float = 0.0,
        worker_crash_pairs: tuple[tuple[int, int], ...] = (),
        worker_crash_attempts: int = 1,
    ) -> None:
        self.seed = int(seed)
        self.kernel_error_rate = _rate(kernel_error_rate, "kernel_error_rate")
        self.stall_rate = _rate(stall_rate, "stall_rate")
        self.memory_pressure_rate = _rate(memory_pressure_rate, "memory_pressure_rate")
        self.corruption_rate = _rate(corruption_rate, "corruption_rate")
        if stall_seconds < 0:
            raise ConfigError(f"stall_seconds must be >= 0, got {stall_seconds}")
        self.stall_seconds = float(stall_seconds)
        self.worker_crash_pairs = tuple(
            (int(ti), int(tj)) for ti, tj in worker_crash_pairs
        )
        if worker_crash_attempts < 0:
            raise ConfigError(
                f"worker_crash_attempts must be >= 0, got {worker_crash_attempts}"
            )
        self.worker_crash_attempts = int(worker_crash_attempts)
        self.events: list[FaultEvent] = []
        self._lock = threading.Lock()

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle as the seed and rates, which name the constructor's
        parameters: an unpickled or copied plan is a fresh one, with no
        events and its own lock.
        """
        settings = {
            name: value
            for name, value in vars(self).items()
            if name not in ("events", "_lock")
        }
        return (functools.partial(FaultPlan, **settings), ())

    # -- deterministic decisions -----------------------------------------
    def draw(self, kind: FaultKind, site: str, task: Any, iteration: int, extra: Any) -> float:
        return stable_unit(self.seed, kind.value, site, task, iteration, extra)

    def record(
        self, kind: FaultKind, site: str, task: Any, iteration: int, extra: Any
    ) -> None:
        event = FaultEvent(kind, site, task, iteration, extra)
        with self._lock:
            self.events.append(event)

    # -- accounting ------------------------------------------------------
    def count(self, kind: FaultKind) -> int:
        """Number of injected events of one kind."""
        with self._lock:
            return sum(1 for event in self.events if event.kind is kind)

    @property
    def injected(self) -> int:
        """Total number of injected events of all kinds."""
        with self._lock:
            return len(self.events)

    @property
    def raising_count(self) -> int:
        """Events that raised an exception (kernel errors + memory spikes)."""
        with self._lock:
            return sum(
                1
                for event in self.events
                if event.kind in (FaultKind.KERNEL_ERROR, FaultKind.MEMORY_PRESSURE)
            )

    def reset(self) -> None:
        """Forget all recorded events (e.g. between measurement runs)."""
        with self._lock:
            self.events.clear()

    def absorb(self, events: list[FaultEvent]) -> None:
        """Record events injected by a copy of this plan in a worker."""
        with self._lock:
            self.events.extend(events)


# The active plan is process-global: fault injection is a test/chaos
# harness, not a per-request feature, and the hook must stay a single
# ``is None`` check on the hot path.
_ACTIVE: FaultPlan | None = None

#: Identity of the task the current thread of control is executing,
#: set by the retry layer so decisions are keyed per (task, attempt).
_TASK: ContextVar[tuple[Any, int]] = ContextVar("repro-fault-task", default=(None, 0))
_SUPPRESS: ContextVar[bool] = ContextVar("repro-fault-suppress", default=False)


def active_plan() -> FaultPlan | None:
    """The currently installed fault plan, if any."""
    return _ACTIVE


def clear_active() -> None:
    """Drop any installed fault plan (worker-process initialization).

    A forked worker inherits the parent's process-global plan object —
    including its recorded events and lock — which must not be mutated
    from the child; workers clear it and install a fresh copy of the
    plan their run message carries.
    """
    global _ACTIVE
    _ACTIVE = None


def fire_worker_crash(pair: tuple[int, int], dispatch_attempt: int) -> None:
    """Kill the current process if the active plan schedules it.

    Called by supervised workers right before executing ``pair``; the
    crash fires while ``dispatch_attempt`` (1-based, counted by the
    supervisor across reassignments) is within the plan's
    ``worker_crash_attempts`` budget, so a crashing pair eventually
    succeeds on a later dispatch — or, with a large budget, exercises
    the supervisor's quarantine path.  A no-op outside the supervisor
    (thread and sequential execution never call it).
    """
    plan = _ACTIVE
    if plan is None or _SUPPRESS.get():
        return
    if (
        tuple(pair) in plan.worker_crash_pairs
        and dispatch_attempt <= plan.worker_crash_attempts
    ):
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the context (process-global)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


@contextmanager
def task_scope(task: Any, iteration: int) -> Iterator[None]:
    """Tag the current context with a task identity and attempt number."""
    token = _TASK.set((task, iteration))
    try:
        yield
    finally:
        _TASK.reset(token)


@contextmanager
def suppress_faults() -> Iterator[None]:
    """Disable injection in the current context (recovery paths)."""
    token = _SUPPRESS.set(True)
    try:
        yield
    finally:
        _SUPPRESS.reset(token)


def fire_hooks(site: str, extra: Any = None) -> None:
    """Evaluate the active plan at a named hook site.

    May sleep (``STALL``), raise :class:`~repro.errors.MemoryLimitError`
    (``MEMORY_PRESSURE``) or raise :class:`InjectedFaultError`
    (``KERNEL_ERROR``); a no-op when no plan is active or faults are
    suppressed.
    """
    plan = _ACTIVE
    if plan is None or _SUPPRESS.get():
        return
    task, iteration = _TASK.get()
    if plan.stall_rate and (
        plan.draw(FaultKind.STALL, site, task, iteration, extra) < plan.stall_rate
    ):
        plan.record(FaultKind.STALL, site, task, iteration, extra)
        time.sleep(plan.stall_seconds)
    if plan.memory_pressure_rate and (
        plan.draw(FaultKind.MEMORY_PRESSURE, site, task, iteration, extra)
        < plan.memory_pressure_rate
    ):
        plan.record(FaultKind.MEMORY_PRESSURE, site, task, iteration, extra)
        raise MemoryLimitError(
            f"injected memory-pressure spike at {site!r} for task {task!r}"
        )
    if plan.kernel_error_rate and (
        plan.draw(FaultKind.KERNEL_ERROR, site, task, iteration, extra)
        < plan.kernel_error_rate
    ):
        plan.record(FaultKind.KERNEL_ERROR, site, task, iteration, extra)
        raise InjectedFaultError(
            f"injected transient kernel failure at {site!r} for task {task!r}",
            pair=task,
        )


def fire_corruption(site: str, accumulator: Any, extra: Any = None) -> None:
    """Possibly poke a NaN into ``accumulator`` (post-kernel hook).

    Silent by design: only the result guard can detect it.
    """
    plan = _ACTIVE
    if plan is None or _SUPPRESS.get() or not plan.corruption_rate:
        return
    task, iteration = _TASK.get()
    if plan.draw(FaultKind.CORRUPTION, site, task, iteration, extra) >= plan.corruption_rate:
        return
    plan.record(FaultKind.CORRUPTION, site, task, iteration, extra)
    import numpy as np

    array = getattr(accumulator, "array", None)
    if array is not None and array.size:
        array.flat[0] = np.nan
    else:
        accumulator.add_triples(
            0,
            0,
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.array([np.nan]),
        )
