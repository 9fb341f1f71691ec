"""Seeded benchmark inputs and the host record.

Every input is described by an :class:`InputSpec` — a generator from
``repro.generate`` plus its parameters — and generated with a seed derived
from the benchmark's ``--seed`` and the input's name, so the same seed
always gives the same inputs and the suite's fixed seeds are never used.
The specs and derived seeds are recorded with every result.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro import COOMatrix, SystemConfig
from repro.generate.rmat import PAPER_RMAT_PARAMETERS, rmat_matrix
from repro.generate.synthetic import (
    banded_matrix,
    block_diagonal_matrix,
    clustered_matrix,
    power_network_matrix,
)

GENERATORS = {
    "block_diagonal_matrix": block_diagonal_matrix,
    "power_network_matrix": power_network_matrix,
    "clustered_matrix": clustered_matrix,
    "banded_matrix": banded_matrix,
    "rmat_matrix": rmat_matrix,
}


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit generator seed derived from the benchmark seed and a tag."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(sequence.generate_state(1)[0])


@dataclass(frozen=True)
class InputSpec:
    """One generated matrix: ``GENERATORS[generator](*args, **kwargs, seed=...)``.

    ``system=True`` turns the matrix into a symmetric, strictly diagonally
    dominant system (``(M + M^T) / 2`` plus a diagonal of row sums + 1),
    which conjugate gradients solves.
    """

    name: str
    generator: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    system: bool = False

    def generate(self, seed: int) -> COOMatrix:
        coo = GENERATORS[self.generator](
            *self.args, **self.kwargs, seed=derive_seed(seed, self.name)
        )
        return make_system(coo) if self.system else coo

    def record(self, seed: int) -> dict[str, Any]:
        return {
            "name": self.name,
            "generator": self.generator,
            "args": list(self.args),
            "kwargs": dict(self.kwargs),
            "system": self.system,
            "seed": derive_seed(seed, self.name),
        }


def to_scipy(coo: COOMatrix) -> sp.csr_matrix:
    """The same matrix as a ``scipy.sparse`` CSR (duplicates summed)."""
    return sp.csr_matrix(
        (coo.values, (coo.row_ids, coo.col_ids)), shape=(coo.rows, coo.cols)
    )


def from_scipy(matrix: sp.spmatrix) -> COOMatrix:
    coo = sp.coo_matrix(matrix)
    return COOMatrix(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)


def make_system(coo: COOMatrix) -> COOMatrix:
    m = to_scipy(coo)
    sym = ((m + m.T) * 0.5).tocsr()
    diagonal = np.asarray(abs(sym).sum(axis=1)).ravel() + 1.0
    sym.setdiag(diagonal)
    return from_scipy(sym)


def random_sparse(rows: int, cols: int, density: float, seed: int) -> COOMatrix:
    """Uniformly random sparse operand (the chain workload's factors)."""
    rng = np.random.default_rng(seed)
    return from_scipy(sp.random(rows, cols, density=density, rng=rng))


def suite_spec(key: str) -> InputSpec:
    """The topology class of one Table-I suite entry, with a free seed.

    Parameters match :mod:`repro.generate.suite`; only the seed differs.
    """
    specs = {
        "R1": InputSpec("R1", "block_diagonal_matrix", (800,), dict(
            num_blocks=10, block_fill=0.88, background_density=0.048,
            size_decay=0.8)),
        "R3": InputSpec("R3", "power_network_matrix", (2048,), dict(
            block_size=96, num_blocks=14, block_fill=0.85,
            background_density=0.0012)),
        "R4": InputSpec("R4", "clustered_matrix", (2560, 92_000), dict(
            num_clusters=12, cluster_fraction=0.5, cluster_span=0.07)),
        "R8": InputSpec("R8", "banded_matrix", (4096, 80_000), dict(
            bandwidth=48)),
        "G5": InputSpec("G5", "rmat_matrix",
                        (2048, 60_000, *PAPER_RMAT_PARAMETERS["G5"]),
                        dict(strict=False)),
    }
    return specs[key]


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def host_record(config: SystemConfig) -> dict[str, Any]:
    """Facts that decide how a result may be read: cores, caches, BLAS."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({
            "level": _read(f"{index}/level"),
            "type": _read(f"{index}/type"),
            "size": _read(f"{index}/size"),
        })
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
        blas_info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        blas_info = {"name": "unknown", "version": "unknown",
                     "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "numpy": np.__version__,
        "blas": blas_info,
        "python": platform.python_version(),
        "system_config": dataclasses.asdict(config),
        # Two workers on one core measure contention, not scaling.
        "scaling_evidence": nproc >= 2,
    }
