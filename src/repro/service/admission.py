"""Water-level admission control for the matrix service.

The paper's water-level method answers "what is the cheapest layout of
this result under a byte budget?" — the service reuses it as its
admission oracle.  For every multiply job the controller propagates the
operand density maps to the estimated result density ρ̂_C
(:func:`~repro.density.estimate.estimate_product_density`) and sweeps
the water level against the configured memory SLA:

* the sweep *fails* (:class:`~repro.errors.MemoryLimitError`): even the
  job's minimal mixed layout cannot fit the SLA → the job is rejected
  up front with a typed :class:`~repro.errors.AdmissionError`, before
  any planning or execution happens;
* the sweep succeeds: the job is admitted and its minimal footprint is
  *reserved* against the SLA.  A job whose reservation does not fit
  next to the currently running jobs waits in the queue until releases
  free budget — admission is a gate on concurrent footprint, not just a
  static check.

Admitted multiply jobs then execute with ``memory_limit_bytes`` set to
the SLA itself, so the engine's own water-level/degradation path
enforces the budget inside the job — deterministically, which keeps
plans cacheable across tenants and checkpoint journals resumable after
a crash (a limit that depended on transient load would change the plan
fingerprint between runs).

Counters: ``service.admission.admitted`` / ``.rejected``; gauge
``service.admission.in_flight_bytes``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..config import SystemConfig
from ..core.atmatrix import ATMatrix
from ..core.operands import operand_density_map
from ..density.estimate import estimate_product_density
from ..density.water_level import water_level_threshold
from ..errors import AdmissionError, MemoryLimitError
from ..observe.metrics import MetricsRegistry


@dataclass(frozen=True)
class AdmissionTicket:
    """Outcome of a successful admission check.

    ``reserved_bytes`` is what the controller will hold against the SLA
    while the job runs; ``estimated_bytes`` is the footprint of the
    job's preferred (unconstrained water-level) layout, for reporting.
    """

    reserved_bytes: float
    estimated_bytes: float


class AdmissionController:
    """Tracks the memory SLA across concurrently running jobs.

    ``memory_limit_bytes=None`` disables the SLA entirely: every job is
    admitted with a zero reservation.  The controller is thread-safe;
    a service worker retries :meth:`try_acquire` each time another job
    settles (its :meth:`release` runs first).
    """

    def __init__(
        self,
        memory_limit_bytes: float | None,
        *,
        config: SystemConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if memory_limit_bytes is not None and memory_limit_bytes <= 0:
            raise ValueError(
                f"memory_limit_bytes must be positive, got {memory_limit_bytes}"
            )
        self.memory_limit_bytes = memory_limit_bytes
        self.config = config
        self.metrics = metrics
        self._in_flight = 0.0
        self._lock = threading.Lock()

    # -- SLA checks --------------------------------------------------------
    def check_multiply(
        self, a: ATMatrix, b: ATMatrix, *, tenant: str
    ) -> AdmissionTicket:
        """Admission decision for ``A x B`` from the estimated ρ̂_C.

        Raises :class:`AdmissionError` when the water-level sweep proves
        the SLA unsatisfiable for this product.
        """
        map_a = operand_density_map(a, self.config, structural=True)
        map_b = operand_density_map(b, self.config, structural=True)
        estimate = estimate_product_density(map_a, map_b)
        unconstrained = water_level_threshold(estimate, None, self.config)
        if self.memory_limit_bytes is None:
            return AdmissionTicket(0.0, unconstrained.total_bytes)
        try:
            bounded = water_level_threshold(
                estimate, self.memory_limit_bytes, self.config
            )
        except MemoryLimitError as error:
            self._count("service.admission.rejected")
            raise AdmissionError(
                f"job rejected: estimated result footprint breaches the "
                f"memory SLA of {self.memory_limit_bytes:.0f} B even at the "
                f"sparsest water level ({error})",
                tenant=tenant,
                estimated_bytes=unconstrained.total_bytes,
                limit_bytes=self.memory_limit_bytes,
            ) from error
        self._count("service.admission.admitted")
        return AdmissionTicket(bounded.total_bytes, unconstrained.total_bytes)

    def check_vector(self, matrix: ATMatrix, *, tenant: str) -> AdmissionTicket:
        """Admission decision for matvec/solve jobs (dense n x 1 results)."""
        footprint = float(matrix.rows) * self.config.dense_element_bytes
        if self.memory_limit_bytes is not None and footprint > self.memory_limit_bytes:
            self._count("service.admission.rejected")
            raise AdmissionError(
                f"job rejected: a dense {matrix.rows} x 1 result "
                f"({footprint:.0f} B) breaches the memory SLA of "
                f"{self.memory_limit_bytes:.0f} B",
                tenant=tenant,
                estimated_bytes=footprint,
                limit_bytes=self.memory_limit_bytes,
            )
        self._count("service.admission.admitted")
        return AdmissionTicket(footprint, footprint)

    # -- concurrent-footprint accounting -----------------------------------
    def try_acquire(self, reserved_bytes: float) -> bool:
        """Reserve ``reserved_bytes`` if it fits next to in-flight jobs.

        A reservation that fits the SLA alone is always grantable
        eventually; when nothing is in flight it is granted even if
        rounding pushed it past the limit, so admitted jobs can never
        deadlock against an empty service.
        """
        if self.memory_limit_bytes is None:
            return True
        with self._lock:
            fits = self._in_flight + reserved_bytes <= self.memory_limit_bytes
            if fits or self._in_flight == 0.0:
                self._in_flight += reserved_bytes
                self._gauge()
                return True
            return False

    def release(self, reserved_bytes: float) -> None:
        """Return a reservation made by :meth:`try_acquire`."""
        if self.memory_limit_bytes is None:
            return
        with self._lock:
            self._in_flight = max(0.0, self._in_flight - reserved_bytes)
            self._gauge()

    def remaining_bytes(self) -> float | None:
        """Budget currently free under the SLA (``None``: no SLA)."""
        if self.memory_limit_bytes is None:
            return None
        with self._lock:
            return max(0.0, self.memory_limit_bytes - self._in_flight)

    @property
    def in_flight_bytes(self) -> float:
        with self._lock:
            return self._in_flight

    # -- metrics -----------------------------------------------------------
    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("service.admission.in_flight_bytes").set(
                self._in_flight
            )
