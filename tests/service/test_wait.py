"""Push completion: the long-poll ``wait`` verb and the settled signal.

Every job-state wait in the service blocks on one broadcast signal that
fires when a job settles.  These tests pin the wake-ups by ordering, not
by timing: each wait either ends in the expected state or runs into a
bound far longer than the wake-up takes.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro import COOMatrix, SystemConfig
from repro.service import JobState, JobStore, MatrixRegistry, MatrixService, serve
from repro.service import protocol as protocol_module

from ..conftest import random_sparse_array

#: Bound on any single awaited step; wake-ups take milliseconds.
STEP_SECONDS = 30.0


@pytest.fixture
def unclamped(monkeypatch):
    """Hold ``wait`` requests for up to an hour: only a wake-up answers
    one within :data:`STEP_SECONDS`."""
    monkeypatch.setattr(protocol_module, "MAX_WAIT_SECONDS", 3600.0)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def registry(small_config: SystemConfig, rng) -> MatrixRegistry:
    registry = MatrixRegistry(config=small_config)
    registry.register("A", COOMatrix.from_dense(random_sparse_array(rng, 96, 96, 0.08)))
    return registry


def hold_until_cancelled(service: MatrixService, started: threading.Event) -> None:
    """Make every job run until its cancel token trips (failing after
    :data:`STEP_SECONDS`, so a broken test cannot wedge the executor)."""

    def execute(record, cancel):
        started.set()
        give_up = time.monotonic() + STEP_SECONDS
        while time.monotonic() < give_up:
            cancel.check()
            time.sleep(0.001)
        raise RuntimeError("job was never cancelled")

    service._execute = execute


def spy_long_poll(service: MatrixService) -> asyncio.Event:
    """An event set once the wire's ``wait`` is held inside the service."""
    held = asyncio.Event()
    long_poll = service.long_poll

    async def spying(job_id, *, timeout):
        held.set()
        return await long_poll(job_id, timeout=timeout)

    service.long_poll = spying
    return held


async def submit_matvec(service: MatrixService, **extra) -> str:
    return await service.submit(tenant="t", op="matvec", a="A", rhs=np.ones(96), **extra)


async def request(reader, writer, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), STEP_SECONDS))


async def connect(server):
    port = server.sockets[0].getsockname()[1]
    return await asyncio.open_connection("127.0.0.1", port)


async def hang_up(writer) -> None:
    writer.close()
    await writer.wait_closed()


class TestWaitVerb:
    def test_finished_job_answers_terminal_status(self, registry, tmp_path):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            async with server:
                job_id = await submit_matvec(service)
                await service.wait(job_id, timeout=STEP_SECONDS)
                reader, writer = await connect(server)
                answer = await request(
                    reader, writer, {"op": "wait", "job_id": job_id, "timeout": 5.0}
                )
                await hang_up(writer)
                await service.stop()
                return job_id, answer

        job_id, answer = run(scenario())
        assert answer["ok"], answer
        assert answer["status"]["job_id"] == job_id
        assert answer["status"]["state"] == "done"

    def test_clamped_timeout_answers_non_terminal_status(
        self, registry, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(protocol_module, "MAX_WAIT_SECONDS", 0.05)
        started = threading.Event()

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            hold_until_cancelled(service, started)
            server = await serve(service, port=0)
            async with server:
                job_id = await submit_matvec(service)
                reader, writer = await connect(server)
                # an hour asked, the clamp answers; the job never settles
                answer = await request(
                    reader, writer, {"op": "wait", "job_id": job_id, "timeout": 3600}
                )
                await service.cancel(job_id)
                final = await request(
                    reader, writer,
                    {"op": "wait", "job_id": job_id, "timeout": STEP_SECONDS},
                )
                await hang_up(writer)
                await service.stop()
                return answer, final

        answer, final = run(scenario())
        assert answer["ok"], answer
        assert answer["status"]["state"] in ("queued", "running")
        assert final["status"]["state"] == "cancelled"

    def test_wakes_on_queued_job_cancel(self, registry, tmp_path, unclamped):
        started = threading.Event()

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs", workers=1)
            hold_until_cancelled(service, started)
            held = spy_long_poll(service)
            server = await serve(service, port=0)
            async with server:
                blocker = await submit_matvec(service)
                queued = await submit_matvec(service)
                reader, writer = await connect(server)
                answer = asyncio.create_task(request(
                    reader, writer, {"op": "wait", "job_id": queued, "timeout": 3600}
                ))
                await asyncio.wait_for(held.wait(), STEP_SECONDS)
                assert (await service.status(queued)).state is JobState.QUEUED
                assert await service.cancel(queued)
                answered = await answer
                await service.cancel(blocker)
                await hang_up(writer)
                await service.stop()
                return answered

        answered = run(scenario())
        assert answered["ok"], answered
        assert answered["status"]["state"] == "cancelled"

    def test_wakes_on_deadline_expiring_while_queued(self, registry, tmp_path, unclamped):
        """An SLA that fits one matvec: the second one's deadline runs out
        while it waits for admission, and the held wait reports it."""
        started = threading.Event()

        async def scenario():
            service = MatrixService(
                registry, job_dir=tmp_path / "jobs", workers=2,
                memory_limit_bytes=96 * 8 * 1.5,
            )
            hold_until_cancelled(service, started)
            server = await serve(service, port=0)
            async with server:
                blocker = await submit_matvec(service)
                doomed = await submit_matvec(service, deadline_seconds=0.2)
                reader, writer = await connect(server)
                answer = await request(
                    reader, writer, {"op": "wait", "job_id": doomed, "timeout": 3600}
                )
                await service.cancel(blocker)
                await hang_up(writer)
                await service.stop()
                return answer

        answer = run(scenario())
        assert answer["ok"], answer
        assert answer["status"]["state"] == "deadline_exceeded"
        assert "awaiting admission" in answer["status"]["error"]

    def test_unknown_job_is_typed_error(self, registry, tmp_path):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            async with server:
                reader, writer = await connect(server)
                answer = await request(
                    reader, writer, {"op": "wait", "job_id": "ghost", "timeout": 1}
                )
                pong = await request(reader, writer, {"op": "ping"})
                await hang_up(writer)
                await service.stop()
                return answer, pong

        answer, pong = run(scenario())
        assert not answer["ok"]
        assert answer["error"]["type"] == "UnknownJobError"
        assert pong["ok"]

    def test_drain_answers_held_wait_and_closes_connections(self, registry, tmp_path, unclamped):
        started = threading.Event()

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs", workers=1)
            hold_until_cancelled(service, started)
            held = spy_long_poll(service)
            server = await serve(service, port=0)
            async with server:
                await submit_matvec(service)
                queued = await submit_matvec(service)
                reader, writer = await connect(server)
                idle_reader, idle_writer = await connect(server)
                assert (await request(idle_reader, idle_writer, {"op": "ping"}))["ok"]
                answer = asyncio.create_task(request(
                    reader, writer, {"op": "wait", "job_id": queued, "timeout": 3600}
                ))
                await asyncio.wait_for(held.wait(), STEP_SECONDS)
                drain = asyncio.create_task(service.drain(timeout=0.0))
                answered = await answer
                eof = await asyncio.wait_for(reader.read(), STEP_SECONDS)
                idle_eof = await asyncio.wait_for(idle_reader.read(), STEP_SECONDS)
                await drain
                await hang_up(writer)
                await hang_up(idle_writer)
                return answered, eof, idle_eof

        answered, eof, idle_eof = run(scenario())
        assert answered["ok"], answered
        assert answered["status"]["state"] == "queued"
        assert eof == b"" and idle_eof == b""


class TestSettledSignal:
    def test_in_process_wait_keeps_its_timeout_error(self, registry, tmp_path):
        started = threading.Event()

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            hold_until_cancelled(service, started)
            async with service:
                job_id = await submit_matvec(service)
                with pytest.raises(TimeoutError, match=job_id):
                    await service.wait(job_id, timeout=0.05)
                await service.cancel(job_id)
                return await service.wait(job_id, timeout=STEP_SECONDS)

        assert run(scenario()).state is JobState.CANCELLED

    def test_second_job_starts_only_after_first_release(self, registry, tmp_path):
        """Under an SLA that fits one matvec, the second waits for the
        first one's release — and is woken by it."""
        events: list[str] = []
        gate = threading.Event()

        async def scenario():
            service = MatrixService(
                registry, job_dir=tmp_path / "jobs", workers=2,
                memory_limit_bytes=96 * 8 * 1.5,
            )
            execute = service._execute

            def recording_execute(record, cancel):
                events.append(f"start {record.spec.job_id}")
                gate.wait(STEP_SECONDS)
                return execute(record, cancel)

            try_acquire = service.admission.try_acquire
            release = service.admission.release

            def recording_try_acquire(reserved_bytes):
                granted = try_acquire(reserved_bytes)
                if not granted:
                    events.append("refused")
                    gate.set()  # the first job holds the SLA: let it finish
                return granted

            def recording_release(reserved_bytes):
                events.append("release")
                release(reserved_bytes)

            service._execute = recording_execute
            service.admission.try_acquire = recording_try_acquire
            service.admission.release = recording_release
            async with service:
                first = await submit_matvec(service, job_id="first")
                second = await submit_matvec(service, job_id="second")
                statuses = [
                    await service.wait(job_id, timeout=STEP_SECONDS)
                    for job_id in (first, second)
                ]
            return statuses

        statuses = run(scenario())
        assert [status.state for status in statuses] == [JobState.DONE] * 2
        assert "refused" in events
        assert events.index("release") < events.index("start second")
        assert events.index("start first") < events.index("release")

    def test_drain_returns_once_cancelled_job_is_queued_on_disk(
        self, registry, tmp_path
    ):
        started = threading.Event()

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs", workers=1)
            hold_until_cancelled(service, started)
            await service.start()
            job_id = await submit_matvec(service)
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, STEP_SECONDS)
            await service.drain(timeout=0.0)
            # read before the loop (and its executor) shuts down
            on_disk = JobStore(tmp_path / "jobs").load(job_id).state
            return (await service.status(job_id)).state, on_disk

        in_memory, on_disk = run(scenario())
        assert in_memory is JobState.QUEUED
        assert on_disk is JobState.QUEUED
