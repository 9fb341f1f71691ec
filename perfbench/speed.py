"""Host speed probe: a fixed reference routine that never calls the program.

The benchmark shares a host with other guests, and the speed the host
gives it drifts by tens of percent over minutes, with no trace in
``/proc/stat`` steal (README.md, "Host speed").  The closed loop therefore
times this routine between cycles, while no op runs, and scales the time
metrics to :data:`NOMINAL_SECONDS` of it.  The routine runs on one
thread and touches only numpy, scipy and the interpreter — the mix the program's
hot paths use (a sparse matrix-vector product, vector arithmetic,
dictionary work and a small dense product) — so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

#: Median seconds of one :meth:`SpeedProbe.reference` on the host the
#: benchmark was sized on (2-core Intel Xeon KVM guest, 4 MiB L2 per core);
#: the time metrics are reported as if every probe had read this.
NOMINAL_SECONDS = 0.002
#: Least time between two samples of one closed loop.
INTERVAL_SECONDS = 0.25
#: A sample takes this share of the time since the previous one ...
SHARE = 0.08
#: ... and at least this many reference runs.
MIN_REPEATS = 9


class SpeedProbe:
    """Reference-routine times, sampled by the closed loop between cycles.

    A sample runs the routine for :data:`SHARE` of the time since the
    previous sample, so a loop of long cycles is probed as densely as one
    of short cycles; every run's time is kept in :attr:`samples`.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20160516)
        self._matrix = sp.random(4096, 4096, density=0.003, format="csr", rng=rng)
        self._vector = rng.uniform(-1.0, 1.0, size=4096)
        self._dense = rng.uniform(size=(128, 128))
        # The 128 KiB product goes to a fixed buffer: a fresh one would be
        # mmap-ed or not depending on glibc's dynamic mmap threshold, which
        # the workload's own allocations move.
        self._product = np.empty_like(self._dense)
        self._keys = [f"key{i}" for i in range(300)]
        self.samples: list[float] = []
        self._last = float("-inf")
        self.reference()  # first-touch costs stay out of every sample

    def reference(self) -> float:
        """Seconds for one fixed round of reference work."""
        start = time.perf_counter()
        vector = self._vector
        sink = 0.0
        for _ in range(8):
            vector = self._matrix @ vector
            vector = vector / np.linalg.norm(vector)
            sink += sum({key: len(key) for key in self._keys}.values())
            np.matmul(self._dense, self._dense, out=self._product)
            sink += float(self._product[0, 0])
        return time.perf_counter() - start

    def sample(self, budget: float = 0.0) -> None:
        """Run the routine for ``budget`` seconds, at least MIN_REPEATS times."""
        end = time.perf_counter() + budget
        for _ in range(MIN_REPEATS):
            self.samples.append(self.reference())
        while time.perf_counter() < end:
            self.samples.append(self.reference())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Take a sample unless one was taken in the last interval."""
        elapsed = time.perf_counter() - self._last
        if elapsed >= INTERVAL_SECONDS:
            self.sample(SHARE * elapsed if self.samples else 0.0)


def slowdown(samples: list[float]) -> float:
    """Median reference time over :data:`NOMINAL_SECONDS` (above 1: a slow host)."""
    return statistics.median(samples) / NOMINAL_SECONDS
