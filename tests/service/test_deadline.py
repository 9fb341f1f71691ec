"""Deadline propagation and resumable cancellation through MatrixService.

Acceptance criteria under test: a job whose ``deadline_seconds`` budget
expires lands ``DEADLINE_EXCEEDED`` with its checkpoint intact, and
resubmitting the same job id resumes from the journal and produces a
bit-identical result.  Explicit cancellation of a RUNNING job behaves
the same way with ``CANCELLED``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import COOMatrix, FaultPlan, SystemConfig, inject_faults
from repro.errors import FormatError
from repro.service import JobState, MatrixRegistry, MatrixService

from ..conftest import random_sparse_array


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def registry(small_config: SystemConfig, rng) -> MatrixRegistry:
    registry = MatrixRegistry(config=small_config)
    raw = random_sparse_array(rng, 96, 96, 0.08)
    raw[:24, :24] = rng.random((24, 24))
    registry.register("A", COOMatrix.from_dense(raw))
    registry.register("B", COOMatrix.from_dense(raw.T.copy()))
    return registry


class TestDeadlineValidation:
    def test_non_positive_deadline_rejected_at_submit(self, registry, tmp_path):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            with pytest.raises(FormatError):
                await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    deadline_seconds=0.0,
                )

        run(scenario())

    def test_generous_deadline_does_not_disturb_the_job(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                job_id = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    deadline_seconds=600.0,
                )
                status = await service.wait(job_id, timeout=120.0)
                assert status.state is JobState.DONE, status.error
                return await service.result(job_id)

        values = run(scenario())
        a = registry.get("A").to_dense()
        b = registry.get("B").to_dense()
        np.testing.assert_allclose(values, a @ b, atol=1e-9)


class TestDeadlineExpiry:
    def test_expired_deadline_lands_deadline_exceeded_and_resumes(
        self, registry, tmp_path
    ):
        """Expiry → DEADLINE_EXCEEDED; resubmit same id → bit-identical."""

        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                clean = await service.submit(
                    tenant="t", op="multiply", a="A", b="B"
                )
                assert (await service.wait(clean, timeout=120.0)).state is (
                    JobState.DONE
                )
                reference = await service.result(clean)

                doomed = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    job_id="doomed-job", deadline_seconds=0.001,
                )
                status = await service.wait(doomed, timeout=120.0)
                assert status.state is JobState.DEADLINE_EXCEEDED, status
                assert status.error_type == "DeadlineExceededError"
                assert status.state.resumable

                # The job directory (and any checkpoint) survived; the
                # same job id resubmits and runs to completion.
                resubmitted = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    job_id="doomed-job",
                )
                assert resubmitted == "doomed-job"
                final = await service.wait(resubmitted, timeout=120.0)
                assert final.state is JobState.DONE, final.error
                values = await service.result(resubmitted)
                metrics = service.metrics()
                return reference, values, metrics

        reference, values, metrics = run(scenario())
        assert np.array_equal(values, reference)  # bit-identical
        counters = metrics["metrics"]
        assert counters["service.jobs_deadline_exceeded"]["value"] == 1

    def test_deadline_expired_while_queued(self, registry, tmp_path):
        """A job that never reaches a worker in time still lands typed."""

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            # Submit before start(): nothing drains the queue yet, so the
            # budget burns down while the job is QUEUED.
            job_id = await service.submit(
                tenant="t", op="multiply", a="A", b="B",
                deadline_seconds=0.01,
            )
            await asyncio.sleep(0.05)
            async with service:
                status = await service.wait(job_id, timeout=30.0)
            return status

        status = run(scenario())
        assert status.state is JobState.DEADLINE_EXCEEDED
        assert "deadline expired" in (status.error or "")


class TestRunningJobCancellation:
    def test_cancel_running_job_is_resumable(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs", workers=1
            ) as service:
                clean = await service.submit(
                    tenant="t", op="multiply", a="A", b="B"
                )
                await service.wait(clean, timeout=120.0)
                reference = await service.result(clean)

                job_id = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    job_id="cancel-me",
                )
                # Cancel as soon as the worker marks it RUNNING; if the
                # multiply wins the race and finishes, that is fine too —
                # cancel() then reports False on the terminal job.
                cancelled = False
                for _ in range(3000):
                    state = (await service.status(job_id)).state
                    if state is JobState.RUNNING:
                        cancelled = await service.cancel(job_id)
                        break
                    if state.terminal:
                        break
                    await asyncio.sleep(0.001)
                status = await service.wait(job_id, timeout=120.0)
                assert status.state in (JobState.CANCELLED, JobState.DONE)
                if status.state is JobState.CANCELLED:
                    assert cancelled
                    assert status.state.resumable
                    resubmitted = await service.submit(
                        tenant="t", op="multiply", a="A", b="B",
                        job_id="cancel-me",
                    )
                    status = await service.wait(resubmitted, timeout=120.0)
                    assert status.state is JobState.DONE, status.error
                values = await service.result(job_id)
                return reference, values

        reference, values = run(scenario())
        assert np.array_equal(values, reference)


class TestIdempotentSubmission:
    def test_same_key_returns_original_job(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                first = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    idempotency_key="retry-token-1",
                )
                second = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    idempotency_key="retry-token-1",
                )
                assert second == first
                await service.wait(first, timeout=120.0)
                metrics = service.metrics()
                return metrics

        metrics = run(scenario())
        assert metrics["jobs"] == {"done": 1}  # executed exactly once

    def test_idempotency_map_survives_restart(self, registry, tmp_path):
        async def scenario():
            job_dir = tmp_path / "jobs"
            async with MatrixService(registry, job_dir=job_dir) as service:
                first = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    idempotency_key="durable-token",
                )
                await service.wait(first, timeout=120.0)
            async with MatrixService(registry, job_dir=job_dir) as service:
                second = await service.submit(
                    tenant="t", op="multiply", a="A", b="B",
                    idempotency_key="durable-token",
                )
                return first, second

        first, second = run(scenario())
        assert second == first


class TestSolveJobDeadline:
    def test_solve_job_past_its_deadline_lands_deadline_exceeded(
        self, small_config, rng, tmp_path
    ):
        """Solve jobs poll the job's token once per iteration.

        The ``"kernel"`` hook fires once per tile in every matvec, so
        per-tile stalls stretch each iteration past the deadline.
        """
        n = 64
        mask = rng.random((n, n)) < 0.05
        base = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
        spd = (base + base.T) / 2.0
        np.fill_diagonal(spd, spd.sum(axis=1) + 1.0)
        registry = MatrixRegistry(config=small_config)
        registry.register("S", COOMatrix.from_dense(spd))

        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                job_id = await service.submit(
                    tenant="t", op="solve", a="S", rhs=np.ones(n),
                    params={"tolerance": 1e-12}, deadline_seconds=0.3,
                )
                return await service.wait(job_id, timeout=120.0)

        # Every tile-pair and kernel stalls, in the executor thread too,
        # so the solve outlives its budget.
        with inject_faults(FaultPlan(5, stall_rate=1.0, stall_seconds=0.01)):
            status = run(scenario())
        assert status.state is JobState.DEADLINE_EXCEEDED, status.error
        assert status.error_type == "DeadlineExceededError"
        assert "operation deadline expired" in (status.error or "")
