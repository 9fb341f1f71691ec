"""Predicted-vs-measured cost tracking for the cost model.

Nagasaka et al. (PAPERS.md) make the case that per-kernel profiling is
what turns sparse-product tuning from guesswork into engineering; this
module closes the corresponding loop for the analytic cost model of
:mod:`repro.cost.model`.  Whenever observability is enabled, the pair
loops of ATMULT record one :class:`CostSample` per tile product — the
model's predicted seconds next to the measured kernel seconds — and
:class:`CostAccuracyTracker` aggregates them into per-kernel residual
statistics that :func:`repro.cost.calibrate.refine_from_observation`
and :func:`repro.tune.autotune` consume.

Conventions: the *ratio* of a sample is ``measured / predicted`` (1.0 =
perfect model, > 1 = model too optimistic); the *relative residual* is
``(measured - predicted) / predicted``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CostSample:
    """One tile product's predicted and measured execution cost."""

    kernel: str
    predicted_seconds: float
    measured_seconds: float

    @property
    def ratio(self) -> float:
        """measured / predicted (``inf`` for a zero prediction)."""
        if self.predicted_seconds <= 0.0:
            return math.inf
        return self.measured_seconds / self.predicted_seconds

    @property
    def relative_residual(self) -> float:
        """(measured - predicted) / predicted."""
        if self.predicted_seconds <= 0.0:
            return math.inf
        return (self.measured_seconds - self.predicted_seconds) / self.predicted_seconds


@dataclass
class KernelAccuracy:
    """Aggregate residual statistics for one kernel."""

    kernel: str
    count: int
    predicted_total: float
    measured_total: float
    mean_ratio: float
    geometric_mean_ratio: float
    mean_abs_relative_residual: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "predicted_seconds": self.predicted_total,
            "measured_seconds": self.measured_total,
            "mean_ratio": self.mean_ratio,
            "geometric_mean_ratio": self.geometric_mean_ratio,
            "mean_abs_relative_residual": self.mean_abs_relative_residual,
        }


class CostAccuracyTracker:
    """Thread-safe accumulator of :class:`CostSample` records.

    With ``retain`` set, only the newest ``retain`` samples are kept.
    """

    def __init__(self, retain: int | None = None) -> None:
        self._lock = threading.Lock()
        self._samples: deque[CostSample] = deque(maxlen=retain)

    def record(
        self, kernel: str, predicted_seconds: float, measured_seconds: float
    ) -> None:
        sample = CostSample(kernel, predicted_seconds, measured_seconds)
        with self._lock:
            self._samples.append(sample)

    def samples(self, kernel: str | None = None) -> list[CostSample]:
        """Snapshot of recorded samples, optionally for one kernel."""
        with self._lock:
            samples = list(self._samples)
        if kernel is not None:
            samples = [s for s in samples if s.kernel == kernel]
        return samples

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def kernels(self) -> list[str]:
        with self._lock:
            return sorted({s.kernel for s in self._samples})

    def summary(self) -> dict[str, KernelAccuracy]:
        """Per-kernel residual statistics, keyed by kernel name."""
        out: dict[str, KernelAccuracy] = {}
        for kernel in self.kernels():
            samples = self.samples(kernel)
            finite = [s for s in samples if math.isfinite(s.ratio)]
            if finite:
                mean_ratio = sum(s.ratio for s in finite) / len(finite)
                log_mean = sum(math.log(s.ratio) for s in finite if s.ratio > 0)
                positive = sum(1 for s in finite if s.ratio > 0)
                geo = math.exp(log_mean / positive) if positive else math.inf
                mean_abs = sum(abs(s.relative_residual) for s in finite) / len(finite)
            else:
                mean_ratio = geo = mean_abs = math.inf
            out[kernel] = KernelAccuracy(
                kernel=kernel,
                count=len(samples),
                predicted_total=sum(s.predicted_seconds for s in samples),
                measured_total=sum(s.measured_seconds for s in samples),
                mean_ratio=mean_ratio,
                geometric_mean_ratio=geo,
                mean_abs_relative_residual=mean_abs,
            )
        return out

    def ratio_by_kernel(self) -> dict[str, float]:
        """Geometric-mean measured/predicted ratio per kernel.

        The geometric mean is the right scale correction for a
        multiplicative model: rescaling the kernel's coefficients by it
        centers the log-residuals on zero.
        """
        return {
            kernel: accuracy.geometric_mean_ratio
            for kernel, accuracy in self.summary().items()
        }

    def as_dict(self) -> dict[str, Any]:
        """Serializable per-kernel summary plus raw sample arrays."""
        return {
            "summary": {k: a.as_dict() for k, a in self.summary().items()},
            "samples": [
                {
                    "kernel": s.kernel,
                    "predicted_seconds": s.predicted_seconds,
                    "measured_seconds": s.measured_seconds,
                }
                for s in self.samples()
            ],
        }
