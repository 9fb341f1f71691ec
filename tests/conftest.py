"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The lock-order sanitizer must patch the threading factories BEFORE
# ``repro`` is imported, or locks created at import time escape it.
# Off by default; REPRO_SANITIZE=1 enables it (see
# docs/STATIC_ANALYSIS.md).
_SANITIZE = os.environ.get("REPRO_SANITIZE") == "1"
if _SANITIZE:
    _repo_root = str(Path(__file__).resolve().parent.parent)
    if _repo_root not in sys.path:
        sys.path.insert(0, _repo_root)
    from tools.repro_check import sanitize as _sanitize

    _sanitize.install()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro import COOMatrix, CSRMatrix, DenseMatrix, SystemConfig  # noqa: E402
from repro.formats import coo_to_csr, coo_to_dense  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _lock_order_sanitizer():
    """Cross-check observed lock orders against RPR009's static graph.

    Active only under ``REPRO_SANITIZE=1``.  Raises at session teardown
    if any lock-order inversion (a latent deadlock) was observed, and
    prints a one-line summary either way.
    """
    yield
    if not _SANITIZE:
        return
    report = _sanitize.verify()
    print(f"\n{report.summary()}")


@pytest.fixture
def fresh_shard_workers():
    """Start and end a test with no idle shard worker process.

    Process-backend runs keep their workers warm for the next run; a
    test that counts processes, pids or descriptors, or changes how
    workers start, must not inherit another test's workers.
    """
    from repro.resilience import supervisor

    supervisor._shutdown_idle()
    yield
    supervisor._shutdown_idle()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> SystemConfig:
    """A tiny config (b_atomic=16) so partitioning happens on small inputs."""
    return SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


@pytest.fixture
def medium_config() -> SystemConfig:
    """The scaled benchmark config (384 KiB LLC, b_atomic=128)."""
    return SystemConfig()


def random_sparse_array(
    rng: np.random.Generator, rows: int, cols: int, density: float
) -> np.ndarray:
    """A dense numpy array populated at roughly the given density."""
    mask = rng.random((rows, cols)) < density
    values = rng.uniform(0.1, 1.0, size=(rows, cols))
    return np.where(mask, values, 0.0)


def heterogeneous_array(
    rng: np.random.Generator, rows: int, cols: int, *, background: float = 0.01
) -> np.ndarray:
    """An array with one dense block over a sparse background."""
    array = random_sparse_array(rng, rows, cols, background)
    block = min(rows, cols) // 3
    if block:
        array[:block, :block] = rng.uniform(0.1, 1.0, size=(block, block))
    return array


def staged(array: np.ndarray) -> COOMatrix:
    return COOMatrix.from_dense(array)


def as_csr(array: np.ndarray):
    return coo_to_csr(COOMatrix.from_dense(array))


def as_dense(array: np.ndarray):
    return coo_to_dense(COOMatrix.from_dense(array))


def assert_matrix_equals(result, expected: np.ndarray, *, atol: float = 1e-10) -> None:
    """Compare any library matrix object against a dense numpy oracle."""
    np.testing.assert_allclose(result.to_dense(), expected, atol=atol)


def payload_arrays(payload: CSRMatrix | DenseMatrix) -> dict[str, np.ndarray]:
    """Every array a tile payload holds, by slot name."""
    if isinstance(payload, DenseMatrix):
        return {"array": payload.array}
    arrays = {
        "indptr": payload.indptr,
        "indices": payload.indices,
        "values": payload.values,
    }
    if payload._keys is not None:
        arrays["_keys"] = payload._keys
    return arrays


def assert_builtin_dtypes(payload: CSRMatrix | DenseMatrix) -> None:
    """Assert every payload array carries numpy's builtin dtype object.

    An unpickled array's dtype compares equal to the builtin one but is
    another object, and ``np.add.at`` leaves its fast path on it.
    """
    for name, array in payload_arrays(payload).items():
        builtin = np.dtype(np.float64 if name in ("array", "values") else np.int64)
        assert array.dtype is builtin, f"{name}: {array.dtype!r} is not builtin"
