"""Graceful drain: SIGTERM finishes or checkpoints in-flight, exits 0.

Two layers are covered.  The subprocess tests drive the real
``repro serve`` CLI: a server with a backlog of jobs receives SIGTERM,
prints its drain banner, leaves no ``RUNNING`` record stranded on disk
and exits 0; a second server on the same job directory re-enqueues what
was left ``QUEUED`` and finishes it.  A server that gets SIGTERM while
clients are still connected, one of them blocked in ``wait``, answers
and closes every connection and still exits 0 within its drain timeout.
The in-process test pins the checkpoint-cancel path deterministically:
``drain(timeout=~0)`` trips the running job's token, the record reverts
to ``QUEUED``, and a restarted service completes it bit-identically.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import COOMatrix, MultiplyOptions, TransportError
from repro.formats import write_matrix_market
from repro.service import JobState, JobStore, MatrixRegistry, MatrixService
from repro.service.client import ServiceClient

from ..conftest import heterogeneous_array

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DRAIN_JOBS = ("drain-1", "drain-2", "drain-3")


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def operands(rng):
    return (
        heterogeneous_array(rng, 96, 72, background=0.06),
        heterogeneous_array(rng, 72, 88, background=0.06),
    )


#: ``repro serve`` whose jobs run until their cancel token trips, so one
#: job is surely running and the next surely queued when SIGTERM lands.
#: Before Python 3.12.1, ``Server.wait_closed()`` returned at once after
#: ``close()``; from 3.12.1 it waits until every connection is closed.
#: Older interpreters get the newer behaviour patched in, so an open
#: connection that would hold up shutdown fails the test everywhere.
STUCK_SERVE = """\
import asyncio.base_events
import sys
import time

from repro.cli import main
from repro.service.server import MatrixService


def execute(self, record, cancel):
    while True:
        cancel.check()
        time.sleep(0.005)


async def wait_closed(self):
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter


MatrixService._execute = execute
if sys.version_info < (3, 12, 1):
    asyncio.base_events.Server.wait_closed = wait_closed
sys.exit(main(sys.argv[1:]))
"""

TERMINAL_STATES = ("done", "failed", "cancelled", "deadline_exceeded")


class TestServeSigtermDrain:
    def start_serve(
        self, tmp_path, matrices, job_dir, *, entry=("-m", "repro"), drain_timeout=10
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [
                sys.executable, *entry, "serve",
                "--matrix", f"A={matrices['A']}",
                "--matrix", f"B={matrices['B']}",
                "--job-dir", str(job_dir),
                "--port", "0",
                "--serve-workers", "1",
                "--drain-timeout", str(drain_timeout),
                "--llc-kib", "8",
                "--b-atomic", "16",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = process.stdout.readline()
        assert banner.startswith("serving on "), (
            f"server never came up: {banner!r}\n{process.stderr.read()}"
        )
        port = int(banner.rsplit(":", 1)[1])
        process.stdout.readline()  # the matrices/job-dir line
        return process, port

    def test_sigterm_drains_cleanly_and_restart_finishes_the_backlog(
        self, tmp_path, operands
    ):
        a, b = operands
        matrices = {"A": tmp_path / "a.mtx", "B": tmp_path / "b.mtx"}
        write_matrix_market(COOMatrix.from_dense(a), matrices["A"])
        write_matrix_market(COOMatrix.from_dense(b), matrices["B"])
        job_dir = tmp_path / "jobs"

        process, port = self.start_serve(tmp_path, matrices, job_dir)
        try:
            with ServiceClient("127.0.0.1", port) as client:
                for job_id in DRAIN_JOBS:
                    submitted = client.submit(
                        tenant="drain", op="multiply", a="A", b="B",
                        job_id=job_id,
                    )
                    assert submitted == job_id
        finally:
            # one worker, three jobs: at most one is running, the rest
            # are still queued when the drain signal lands.
            process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "draining" in stdout
        assert "drained; queued jobs will resume on the next server" in stdout

        # No stranded RUNNING record: everything is DONE or QUEUED.
        store = JobStore(job_dir)
        states = {
            record.spec.job_id: record.state for record in store.load_all()
        }
        assert set(states) == set(DRAIN_JOBS)
        assert all(
            state in (JobState.DONE, JobState.QUEUED)
            for state in states.values()
        ), states
        assert JobState.QUEUED in states.values()  # a backlog was left

        # A second server on the same directory finishes the backlog.
        process, port = self.start_serve(tmp_path, matrices, job_dir)
        try:
            with ServiceClient("127.0.0.1", port) as client:
                for job_id in DRAIN_JOBS:
                    status = client.wait(job_id, timeout=120.0)
                    assert status["state"] == "done", status
                results = {
                    job_id: client.result(job_id) for job_id in DRAIN_JOBS
                }
        finally:
            process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr

        for job_id in DRAIN_JOBS:
            np.testing.assert_allclose(results[job_id], a @ b, atol=1e-9)


    def test_held_wait_never_delays_the_drain(self, tmp_path, operands):
        """SIGTERM while clients are connected, one blocked in ``wait``.

        The server answers the held wait at once with a non-terminal
        status, closes every connection and exits 0 within the drain
        timeout; the blocked :class:`ServiceClient` ends with a
        :class:`TransportError` instead of hanging.
        """
        a, b = operands
        matrices = {"A": tmp_path / "a.mtx", "B": tmp_path / "b.mtx"}
        write_matrix_market(COOMatrix.from_dense(a), matrices["A"])
        write_matrix_market(COOMatrix.from_dense(b), matrices["B"])
        script = tmp_path / "stuck_serve.py"
        script.write_text(STUCK_SERVE, encoding="utf-8")
        drain_timeout = 2
        process, port = self.start_serve(
            tmp_path, matrices, tmp_path / "jobs",
            entry=(str(script),), drain_timeout=drain_timeout,
        )
        outcome: dict = {}
        try:
            # the submitting client stays connected (idle) through the drain
            submitter = ServiceClient("127.0.0.1", port)
            submitter.submit(tenant="t", op="multiply", a="A", b="B", job_id="runs")
            submitter.submit(tenant="t", op="multiply", a="A", b="B", job_id="waits")
            raw = socket.create_connection(("127.0.0.1", port), timeout=30)
            raw.sendall(json.dumps(
                {"op": "wait", "job_id": "waits", "timeout": 3600}
            ).encode() + b"\n")
            waiter = ServiceClient("127.0.0.1", port)

            def blocked_wait():
                try:
                    outcome["status"] = waiter.wait("waits", timeout=120.0)
                except Exception as error:  # noqa: BLE001 — asserted below
                    outcome["error"] = error

            thread = threading.Thread(target=blocked_wait, daemon=True)
            thread.start()
            time.sleep(0.5)  # let both wait requests reach the server
        finally:
            process.send_signal(signal.SIGTERM)
        try:
            stdout, stderr = process.communicate(timeout=drain_timeout + 30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "drained; queued jobs will resume on the next server" in stdout

        reply = raw.makefile("rb")
        status = json.loads(reply.readline())["status"]
        assert status["state"] not in TERMINAL_STATES, status
        assert reply.readline() == b""  # closed after answering
        raw.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        if "error" in outcome:
            assert isinstance(outcome["error"], TransportError), outcome
        else:
            assert outcome["status"]["state"] not in TERMINAL_STATES, outcome
        submitter.close()
        waiter.close()

        states = {r.spec.job_id: r.state for r in JobStore(tmp_path / "jobs").load_all()}
        assert states == {"runs": JobState.QUEUED, "waits": JobState.QUEUED}

    def test_sigterm_with_an_idle_client_exits_quietly(self, tmp_path, operands):
        """No handler is left for ``asyncio.run`` to cancel at exit.

        Cancelling a connection handler that is still closing logs
        ``Exception in callback ... CancelledError`` on Python < 3.12.
        """
        a, b = operands
        matrices = {"A": tmp_path / "a.mtx", "B": tmp_path / "b.mtx"}
        write_matrix_market(COOMatrix.from_dense(a), matrices["A"])
        write_matrix_market(COOMatrix.from_dense(b), matrices["B"])
        process, port = self.start_serve(
            tmp_path, matrices, tmp_path / "jobs", drain_timeout=2
        )
        try:
            client = ServiceClient("127.0.0.1", port)
            assert client.ping()
        finally:
            process.send_signal(signal.SIGTERM)
        try:
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        client.close()
        assert process.returncode == 0, stderr
        assert "drained; queued jobs will resume on the next server" in stdout
        assert "Traceback" not in stderr, stderr
        assert "Exception in callback" not in stderr, stderr


class TestInProcessDrainCheckpoints:
    def test_drain_reverts_running_job_to_queued_and_resumes(
        self, tmp_path, operands, small_config
    ):
        a, b = operands
        registry = MatrixRegistry(config=small_config)
        registry.register("A", COOMatrix.from_dense(a))
        registry.register("B", COOMatrix.from_dense(b))
        job_dir = tmp_path / "jobs"
        options = MultiplyOptions(
            config=small_config, checkpoint_flush_pairs=1
        )

        async def interrupted():
            service = MatrixService(
                registry, job_dir=job_dir, workers=1, options=options
            )
            await service.start()
            job_id = await service.submit(
                tenant="t", op="multiply", a="A", b="B", job_id="drain-me"
            )
            for _ in range(3000):
                state = (await service.status(job_id)).state
                if state is JobState.RUNNING or state.terminal:
                    break
                await asyncio.sleep(0.001)
            # near-zero budget: the running job is checkpoint-cancelled
            # at its next tile-pair boundary rather than waited out.
            await service.drain(timeout=0.01)
            return JobStore(job_dir).load(job_id).state

        state = run(interrupted())
        # The drain never strands RUNNING; DONE only if the multiply won
        # the race against the token inside the drain window.
        assert state in (JobState.QUEUED, JobState.DONE), state

        async def resumed():
            service = MatrixService(
                registry, job_dir=job_dir, workers=1, options=options
            )
            recovered = await service.start()
            status = await service.wait("drain-me", timeout=120.0)
            assert status.state is JobState.DONE, status.error
            values = await service.result("drain-me")
            await service.stop()
            return recovered, values

        recovered, values = run(resumed())
        if state is JobState.QUEUED:
            assert recovered == 1
        np.testing.assert_allclose(values, a @ b, atol=1e-9)
