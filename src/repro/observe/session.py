"""The observation session and its ambient (process-global) activation.

An :class:`Observation` bundles the three collectors — span tracer,
metrics registry and cost-accuracy tracker — behind one object that the
redesigned reports carry (``report.observation``) and the exporters
consume.

Activation mirrors :mod:`repro.resilience.faults`: one module-global
slot, so the disabled hot path in the kernels is a single attribute
read plus a ``None`` check.  Entry points accept an ``observer=``
keyword and activate it for the duration of the call, which makes the
instrumentation inside nested layers (kernel registry, resilience
runner, optimizer) visible without threading the object through every
signature.  Worker threads spawned inside an active region see the same
session because the slot is process-global, not a context variable —
the paper's two-level parallel execution hands pair tasks to a thread
pool, and a contextvar would silently detach those workers.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from .accuracy import CostAccuracyTracker
from .metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _NullInstrument,
)
from .trace import NULL_SPAN, Tracer, _NullSpan, _SpanContext


class Observation:
    """One run's worth of spans, metrics and cost-accuracy samples.

    ``retain`` bounds the spans and the cost samples kept (newest win),
    for observations that live as long as a server; metrics are
    aggregates and stay complete.
    """

    def __init__(self, retain: int | None = None) -> None:
        self.tracer = Tracer(retain)
        self.metrics = MetricsRegistry()
        self.cost_accuracy = CostAccuracyTracker(retain)

    def as_dict(self) -> dict[str, Any]:
        """Full serializable snapshot (the JSON exporter's payload)."""
        return {
            "epoch_seconds": self.tracer.epoch_seconds,
            "spans": [span.as_dict() for span in self.tracer.spans()],
            "metrics": self.metrics.as_dict(),
            "cost_accuracy": self.cost_accuracy.as_dict(),
        }


#: The active observation; ``None`` keeps every hook a no-op.
_ACTIVE: Observation | None = None


def current() -> Observation | None:
    """The active observation session, if any."""
    return _ACTIVE


def clear() -> None:
    """Drop the ambient session (forked-worker initialization).

    A forked worker process inherits the parent's process-global
    observation, whose collectors nobody will ever read in the child;
    supervised workers clear it so their hooks stay no-ops and ship
    statistics back to the supervisor through the shard protocol
    instead.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def activate(observation: Observation) -> Iterator[Observation]:
    """Install ``observation`` as the ambient session for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = observation
    try:
        yield observation
    finally:
        _ACTIVE = previous


@contextmanager
def observe() -> Iterator[Observation]:
    """Create and activate a fresh :class:`Observation`.

    >>> with observe() as obs:
    ...     ...  # run atmult / parallel_atmult / a benchmark
    >>> len(obs.tracer.spans()) >= 0
    True
    """
    with activate(Observation()) as observation:
        yield observation


@contextmanager
def resolve(observer: Observation | None) -> Iterator[Observation | None]:
    """Entry-point helper: yield the session to record into, if any.

    With an explicit ``observer`` the session is also *activated* so
    nested instrumentation (kernels, resilience, conversions) lands in
    it; with ``None`` the ambient session (possibly none) is yielded
    unchanged.
    """
    if observer is None or observer is _ACTIVE:
        yield _ACTIVE
    else:
        with activate(observer):
            yield observer


# -- allocation-free hooks for hot paths ---------------------------------

def tracer_span(
    observation: Observation | None,
    name: str,
    category: str = "phase",
    attrs: dict[str, Any] | None = None,
) -> _SpanContext | _NullSpan:
    """A span under ``observation``, or the shared no-op when ``None``.

    For call sites that already resolved the session once (the pair
    loops), saving the global read :func:`maybe_span` performs.
    """
    if observation is None:
        return NULL_SPAN
    return observation.tracer.span(name, category, attrs)


def maybe_span(
    name: str, category: str = "phase", attrs: dict[str, Any] | None = None
) -> _SpanContext | _NullSpan:
    """A span context under the active session, or the shared no-op."""
    obs = _ACTIVE
    if obs is None:
        return NULL_SPAN
    return obs.tracer.span(name, category, attrs)


def counter(name: str) -> Counter | _NullInstrument:
    """The named counter of the active session, or the shared no-op."""
    obs = _ACTIVE
    if obs is None:
        return NULL_COUNTER
    return obs.metrics.counter(name)


def gauge(name: str) -> Gauge | _NullInstrument:
    """The named gauge of the active session, or the shared no-op."""
    obs = _ACTIVE
    if obs is None:
        return NULL_GAUGE
    return obs.metrics.gauge(name)


def histogram(name: str) -> Histogram | _NullInstrument:
    """The named histogram of the active session, or the shared no-op."""
    obs = _ACTIVE
    if obs is None:
        return NULL_HISTOGRAM
    return obs.metrics.histogram(name)
