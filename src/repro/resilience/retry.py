"""Bounded retries with deterministic backoff for pair tasks.

A :class:`RetryPolicy` bounds how hard the execution layer tries to save
one tile-row/tile-column pair before declaring it failed: a maximum
number of attempts, exponential backoff between attempts with
deterministic (seeded-hash) jitter, an optional per-attempt deadline,
and a separate budget for memory-pressure degradations.

:class:`ResilientPairRunner` implements the attempt loop of
:meth:`repro.engine.executor.PairComputer.run_pair`, which every
execution backend runs per pair.  It is generic: the executor passes a
``compute(force_sparse)`` closure plus optional ``validate``/``fallback``
closures, and the runner handles

* transient exceptions → bounded re-attempts (``retries``);
* :class:`~repro.errors.MemoryLimitError` (an injected memory spike) →
  degradation: re-run this pair alone with its accumulator demoted to
  sparse (``degradations``); no other pair and no threshold changes, so
  the run stays the same on every backend;
* attempts finishing over the task deadline → discarded and re-run
  while budget remains; the final attempt's late result is accepted
  best-effort (``deadline_violations``, ``late``);
* guard violations → one re-execution through the reference kernel with
  fault injection suppressed (``fallbacks``).

It returns the pair's :class:`~repro.resilience.report.PairOutcome`
with the result and merges nothing.  Exhaustion raises
:class:`~repro.errors.RetryExhaustedError` carrying the pair
coordinates, attempt count, last error and failed ``outcome``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from ..errors import (
    ConfigError,
    MemoryLimitError,
    ResultCorruptionError,
    RetryExhaustedError,
)
from ..observe import session as observe_session
from .faults import stable_unit, suppress_faults, task_scope
from .report import PairOutcome


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently one pair task is retried before failing the run.

    Parameters
    ----------
    max_attempts:
        Total attempts allowed per pair (1 = no retries).
    backoff_base_seconds / backoff_factor / backoff_max_seconds:
        Exponential backoff between attempts: attempt ``n`` sleeps
        ``min(base * factor**(n-1), max)`` scaled by the jitter.
    jitter_fraction:
        Deterministic jitter: the sleep is scaled by a factor drawn
        from ``[1 - jitter_fraction, 1]`` via a stable hash of the pair
        and attempt number, so concurrent retries de-synchronize without
        breaking reproducibility.
    task_deadline_seconds:
        Per-attempt deadline; attempts finishing later are discarded
        and re-run while budget remains (the final attempt is accepted
        late).  ``None`` disables the deadline.
    max_degradations:
        Memory-pressure events absorbed per pair before giving up.
    validate_results:
        Run the result guard on every finished tile.
    fallback_to_reference:
        Re-execute guard-rejected pairs with the reference kernel.
    """

    max_attempts: int = 3
    backoff_base_seconds: float = 0.002
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.25
    jitter_fraction: float = 0.25
    task_deadline_seconds: float | None = None
    max_degradations: int = 8
    validate_results: bool = True
    fallback_to_reference: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_seconds < 0:
            raise ConfigError(
                f"backoff_base_seconds must be >= 0, got {self.backoff_base_seconds}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_seconds < 0:
            raise ConfigError(
                f"backoff_max_seconds must be >= 0, got {self.backoff_max_seconds}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigError(
                f"jitter_fraction must lie in [0, 1], got {self.jitter_fraction}"
            )
        if self.task_deadline_seconds is not None and self.task_deadline_seconds <= 0:
            raise ConfigError(
                f"task_deadline_seconds must be positive, got "
                f"{self.task_deadline_seconds}"
            )
        if self.max_degradations < 0:
            raise ConfigError(
                f"max_degradations must be >= 0, got {self.max_degradations}"
            )

    def backoff_seconds(self, task: Any, attempt: int) -> float:
        """Deterministic backoff before re-attempt number ``attempt``."""
        base = min(
            self.backoff_max_seconds,
            self.backoff_base_seconds * self.backoff_factor ** max(0, attempt - 1),
        )
        if base <= 0.0:
            return 0.0
        scale = 1.0 - self.jitter_fraction * stable_unit("backoff", task, attempt)
        return base * scale


class ResilientPairRunner:
    """Executes pair tasks under a :class:`RetryPolicy`; holds no run state."""

    def __init__(
        self,
        policy: RetryPolicy,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy
        self._sleep = sleep

    def run(
        self,
        pair: tuple[int, int],
        compute: Callable[[bool], Any],
        *,
        validate: Callable[[Any], None] | None = None,
        fallback: Callable[[bool], Any] | None = None,
    ) -> tuple[Any, PairOutcome]:
        """Run ``compute`` for one pair until it succeeds or the budget ends.

        ``compute(force_sparse)`` performs the pair's tile products from
        scratch and returns the executor's result object; it is called
        with ``force_sparse=True`` after a memory spike.
        ``validate(result)`` may raise
        :class:`~repro.errors.ResultCorruptionError`; ``fallback`` is the
        reference re-execution used to recover from that.

        Returns ``(result, outcome)``; on exhaustion the failed outcome
        rides on the raised :class:`~repro.errors.RetryExhaustedError`.
        """
        policy = self.policy
        outcome = PairOutcome(pair=pair)
        force_sparse = False
        iteration = 0
        transient_attempts = 0
        degradations = 0
        while True:
            iteration += 1
            outcome.attempts += 1
            observe_session.counter("resilience.attempts").inc()
            started = time.perf_counter()
            try:
                with task_scope(pair, iteration):
                    result = compute(force_sparse)
            except MemoryLimitError as error:
                degradations += 1
                if degradations > policy.max_degradations:
                    self._fail(outcome, pair, iteration, error)
                outcome.degradations += 1
                observe_session.counter("resilience.degradations").inc()
                self._instant("degrade", pair, iteration)
                force_sparse = True
                continue
            except Exception as error:  # noqa: BLE001 — kernels may raise anything
                transient_attempts += 1
                if transient_attempts >= policy.max_attempts:
                    self._fail(outcome, pair, iteration, error)
                outcome.retries += 1
                observe_session.counter("resilience.retries").inc()
                self._instant("retry", pair, iteration)
                delay = policy.backoff_seconds(pair, transient_attempts)
                if delay > 0.0:
                    self._sleep(delay)
                continue
            elapsed = time.perf_counter() - started
            if (
                policy.task_deadline_seconds is not None
                and elapsed > policy.task_deadline_seconds
            ):
                if transient_attempts + 1 < policy.max_attempts:
                    transient_attempts += 1
                    outcome.deadline_violations += 1
                    observe_session.counter("resilience.deadline_violations").inc()
                    self._instant("deadline_violation", pair, iteration)
                    continue
                outcome.late = True  # best effort: accept the final late result
            if validate is not None and policy.validate_results:
                try:
                    validate(result)
                except ResultCorruptionError:
                    outcome.fallbacks += 1
                    observe_session.counter("resilience.fallbacks").inc()
                    self._instant("fallback", pair, iteration)
                    if fallback is not None and policy.fallback_to_reference:
                        with suppress_faults():
                            result = fallback(force_sparse)
            return result, outcome

    @staticmethod
    def _instant(event: str, pair: tuple[int, int], iteration: int) -> None:
        """Mark a resilience event in the active trace, if any."""
        obs = observe_session.current()
        if obs is not None:
            obs.tracer.instant(
                f"resilience.{event}",
                "resilience",
                {"ti": pair[0], "tj": pair[1], "attempt": iteration},
            )

    def _fail(
        self, outcome: PairOutcome, pair: tuple[int, int], attempts: int, error: BaseException
    ) -> None:
        outcome.failed = True
        outcome.error = repr(error)
        observe_session.counter("resilience.failures").inc()
        raise RetryExhaustedError(
            f"pair {pair} failed after {attempts} attempts: {error}",
            pair=pair,
            attempts=attempts,
            last_error=error,
            outcome=outcome,
        ) from error
