"""Job model and crash-safe job persistence for the matrix service.

Every submitted job gets its own directory under the service's job dir::

    <job_dir>/<job_id>/
        job.json      # spec + state + error + timestamps (atomic writes)
        ckpt/         # CheckpointStore spill dir (multiply jobs; deleted once DONE)
        result.npz    # dense result values + CRC-32C (atomic write)

``job.json`` is rewritten atomically on every state transition, so a
SIGKILL at any instant leaves each job either in its previous state or
its next one — never half-written.  On restart,
:meth:`JobStore.recover` returns the jobs that were queued or running
when the process died; the service re-enqueues them and multiply jobs
resume from their checkpoint journal instead of recomputing finished
tile-pairs (see docs/SERVICE.md for the recovery guarantees).
"""

from __future__ import annotations

import enum
import io
import json
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import FormatError, IntegrityError, UnknownJobError
from ..ioutil import atomic_write, atomic_write_text, crc32c

#: Operations a job may request.
JOB_OPS = ("multiply", "matvec", "solve")


class JobState(str, enum.Enum):
    """Lifecycle of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEADLINE_EXCEEDED = "deadline_exceeded"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.DEADLINE_EXCEEDED,
        )

    @property
    def resumable(self) -> bool:
        """Terminal states a resubmission may restart from.

        Cancelled and deadline-expired jobs keep their checkpoint
        directory, so resubmitting the same job id resumes the multiply
        from the journal and completes bit-identically.
        """
        return self in (JobState.CANCELLED, JobState.DEADLINE_EXCEEDED)


@dataclass(frozen=True)
class JobSpec:
    """One tenant request, fully JSON-serializable.

    ``a`` and (for ``multiply``) ``b`` name matrices in the service's
    :class:`~repro.service.registry.MatrixRegistry`; ``rhs`` carries the
    vector operand of ``matvec``/``solve`` jobs inline.  ``params`` goes
    verbatim to the solver (``method``, ``tolerance``, ``max_iterations``...).

    ``deadline_seconds`` is the job's total execution budget measured
    from submission; an expired budget cancels the job cooperatively
    (``JobState.DEADLINE_EXCEEDED``, checkpoint kept).
    ``idempotency_key`` is a client-chosen token the server dedupes
    submissions by: resubmitting the same key returns the original job
    instead of executing twice.
    """

    job_id: str
    tenant: str
    op: str
    a: str
    b: str | None = None
    rhs: tuple[float, ...] | None = None
    params: dict[str, Any] = field(default_factory=dict)
    deadline_seconds: float | None = None
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        if self.op not in JOB_OPS:
            raise FormatError(f"unknown job op {self.op!r}; expected one of {JOB_OPS}")
        if self.op == "multiply" and self.b is None:
            raise FormatError("multiply jobs need a second matrix name 'b'")
        if self.op in ("matvec", "solve") and self.rhs is None:
            raise FormatError(f"{self.op} jobs need an inline 'rhs' vector")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise FormatError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )

    def to_json_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        if payload["rhs"] is not None:
            payload["rhs"] = list(payload["rhs"])
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> JobSpec:
        rhs = payload.get("rhs")
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload["tenant"]),
            op=str(payload["op"]),
            a=str(payload["a"]),
            b=payload.get("b"),
            rhs=tuple(float(x) for x in rhs) if rhs is not None else None,
            params=dict(payload.get("params") or {}),
            deadline_seconds=(
                float(payload["deadline_seconds"])
                if payload.get("deadline_seconds") is not None
                else None
            ),
            idempotency_key=(
                str(payload["idempotency_key"])
                if payload.get("idempotency_key") is not None
                else None
            ),
        )


@dataclass
class JobRecord:
    """A job's spec plus its mutable lifecycle state."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    error: str | None = None
    error_type: str | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    #: bytes the admission controller reserved for this job
    reserved_bytes: float = 0.0

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_json_dict(),
            "state": self.state.value,
            "error": self.error,
            "error_type": self.error_type,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "reserved_bytes": self.reserved_bytes,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> JobRecord:
        return cls(
            spec=JobSpec.from_json_dict(payload["spec"]),
            state=JobState(payload["state"]),
            error=payload.get("error"),
            error_type=payload.get("error_type"),
            submitted_at=float(payload.get("submitted_at") or 0.0),
            finished_at=payload.get("finished_at"),
            reserved_bytes=float(payload.get("reserved_bytes") or 0.0),
        )


class JobStore:
    """Crash-safe persistence of job records and results.

    Purely synchronous and lock-free by design: the service serializes
    access from its event loop, and every write is atomic at the
    filesystem level, so the store itself never holds a state a crash
    could corrupt.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise FormatError(f"invalid job id {job_id!r}")
        return self.directory / job_id

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "ckpt"

    def _record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def _result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.npz"

    # -- records -----------------------------------------------------------
    def create(self, record: JobRecord) -> None:
        """Persist a fresh record (its directory must not exist yet)."""
        path = self.job_dir(record.spec.job_id)
        path.mkdir(parents=True, exist_ok=False)
        self.save(record)

    def save(self, record: JobRecord) -> None:
        """Atomically rewrite the record's ``job.json``.

        Once a DONE record is durable, the job's checkpoint journal is
        deleted: only CANCELLED and DEADLINE_EXCEEDED jobs resume, so
        nothing reads it again.
        """
        atomic_write_text(
            self._record_path(record.spec.job_id),
            json.dumps(record.to_json_dict(), indent=2, sort_keys=True),
        )
        if record.state is JobState.DONE:
            shutil.rmtree(self.checkpoint_dir(record.spec.job_id), ignore_errors=True)

    def load(self, job_id: str) -> JobRecord:
        path = self._record_path(job_id)
        if not path.exists():
            raise UnknownJobError(f"unknown job id {job_id!r}")
        payload = json.loads(path.read_text())
        return JobRecord.from_json_dict(payload)

    def load_all(self) -> list[JobRecord]:
        """Every persisted record, oldest submission first."""
        records = []
        for entry in sorted(self.directory.iterdir()):
            if entry.is_dir() and (entry / "job.json").exists():
                records.append(self.load(entry.name))
        records.sort(key=lambda record: record.submitted_at)
        return records

    def recover(self) -> list[JobRecord]:
        """Records interrupted by a crash: still queued or running."""
        return [record for record in self.load_all() if not record.state.terminal]

    # -- results -----------------------------------------------------------
    def save_result(self, job_id: str, values: np.ndarray) -> int:
        """Persist the job's dense result; returns its CRC-32C digest."""
        array = np.ascontiguousarray(values, dtype=np.float64)
        digest = crc32c(array)
        buffer = io.BytesIO()
        np.savez(buffer, values=array, crc=np.array([digest], dtype=np.uint32))
        with atomic_write(self._result_path(job_id), mode="wb") as handle:
            handle.write(buffer.getvalue())
        return digest

    def load_result(self, job_id: str) -> np.ndarray:
        """The persisted result values, CRC-verified."""
        path = self._result_path(job_id)
        if not path.exists():
            raise UnknownJobError(f"job {job_id!r} has no stored result")
        with np.load(path) as archive:
            values = np.asarray(archive["values"], dtype=np.float64)
            stored = int(archive["crc"][0])
        actual = crc32c(values)
        if actual != stored:
            raise IntegrityError(
                f"result of job {job_id!r} failed its CRC-32C check "
                f"(stored {stored:#010x}, computed {actual:#010x})"
            )
        return values

    def has_result(self, job_id: str) -> bool:
        return self._result_path(job_id).exists()


def new_job_id(counter: int, tenant: str) -> str:
    """A readable, unique job id: time-ordered, tenant-tagged."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{tenant}-{counter:06d}"
