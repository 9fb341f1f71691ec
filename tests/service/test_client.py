"""ServiceClient resilience: deadlines, retries, breaker, idempotency.

The synchronous client runs inside the event loop's default executor so
one asyncio test can serve and consume at the same time; transport
faults are produced by purpose-built flaky listeners.
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import time

import numpy as np
import pytest

from repro import (
    CircuitOpenError,
    COOMatrix,
    DeadlineExceededError,
    FrameTooLargeError,
    IntegrityError,
    SystemConfig,
    TransportError,
    UnknownMatrixError,
)
from repro.resilience.retry import RetryPolicy
from repro.ioutil import crc32c
from repro.service import MatrixRegistry, MatrixService, serve
from repro.service import client as client_module
from repro.service.client import CircuitBreaker, Deadline, ServiceClient

from ..conftest import random_sparse_array


def run(coro):
    return asyncio.run(coro)


FAST_RETRY = RetryPolicy(
    max_attempts=4, backoff_base_seconds=0.005, backoff_max_seconds=0.02
)


@pytest.fixture
def registry(small_config: SystemConfig, rng) -> MatrixRegistry:
    registry = MatrixRegistry(config=small_config)
    raw = random_sparse_array(rng, 96, 96, 0.08)
    raw[:24, :24] = rng.random((24, 24))
    registry.register("A", COOMatrix.from_dense(raw))
    registry.register("B", COOMatrix.from_dense(raw.T.copy()))
    return registry


def closed_port() -> int:
    """A port that was just released: connections to it are refused."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestDeadline:
    def test_remaining_and_expiry(self):
        deadline = Deadline(0.05)
        assert 0.0 < deadline.remaining() <= 0.05
        assert not deadline.expired
        time.sleep(0.06)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="submit"):
            deadline.check("submit")

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=60.0)
        for _ in range(2):
            breaker.record_failure()
        breaker.before_attempt()  # still closed at 2 of 3
        breaker.record_failure()
        assert breaker.open
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_attempt()
        assert excinfo.value.retry_after_seconds > 0

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.before_attempt()  # consecutive count restarted

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.01)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()
        time.sleep(0.02)
        breaker.before_attempt()  # half-open: the probe is allowed
        breaker.record_success()
        assert not breaker.open


class TestClientAgainstLiveService:
    def test_full_job_lifecycle(self, registry, tmp_path):
        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        assert client.ping()
                        health = client.health()
                        assert health["status"] == "ok" and health["started"]
                        ready = client.ready()
                        assert ready["ready"], ready
                        assert client.matrices() == ["A", "B"]
                        deadline = Deadline(120.0)
                        job_id = client.submit(
                            tenant="wire", op="multiply", a="A", b="B",
                            deadline=deadline,
                        )
                        status = client.wait(
                            job_id, timeout=120.0, deadline=deadline
                        )
                        assert status["state"] == "done", status
                        values = client.result(job_id)
                        metrics = client.metrics()
                        return values, metrics
                    values, metrics = await loop.run_in_executor(None, drive)
                await service.stop()
            return values, metrics

        values, metrics = run(scenario())
        a = registry.get("A").to_dense()
        b = registry.get("B").to_dense()
        np.testing.assert_allclose(values, a @ b, atol=1e-9)
        assert metrics["jobs"] == {"done": 1}

    def test_remote_errors_surface_as_typed_classes(self, registry, tmp_path):
        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        with pytest.raises(UnknownMatrixError):
                            client.submit(
                                tenant="t", op="multiply", a="ghost", b="B"
                            )
                        # the connection survived the typed rejection
                        assert client.ping()
                    await loop.run_in_executor(None, drive)
                await service.stop()

        run(scenario())

    def test_submit_retry_reuses_one_idempotency_key(self, registry, tmp_path):
        """Two identical submits with one key execute exactly once."""

        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        first = client.submit(
                            tenant="t", op="multiply", a="A", b="B",
                            idempotency_key="lost-response-retry",
                        )
                        second = client.submit(
                            tenant="t", op="multiply", a="A", b="B",
                            idempotency_key="lost-response-retry",
                        )
                        assert second == first
                        client.wait(first, timeout=120.0)
                        return client.metrics()
                    metrics = await loop.run_in_executor(None, drive)
                await service.stop()
            return metrics

        metrics = run(scenario())
        assert metrics["jobs"] == {"done": 1}


class TestTransportResilience:
    def test_retries_through_connections_dropped_at_accept(self):
        """A listener that kills its first two connections; retry wins."""

        async def scenario():
            loop = asyncio.get_running_loop()
            kills = {"left": 2}

            async def handler(reader, writer):
                if kills["left"] > 0:
                    kills["left"] -= 1
                    writer.close()
                    return
                line = await reader.readline()
                assert json.loads(line)["op"] == "ping"
                writer.write(json.dumps({"ok": True, "pong": True}).encode() + b"\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient(
                    "127.0.0.1", port, retry=FAST_RETRY,
                    breaker=CircuitBreaker(failure_threshold=10),
                ) as client:
                    assert await loop.run_in_executor(None, client.ping)
            assert kills["left"] == 0

        run(scenario())

    def test_exhausted_retries_raise_transport_error(self):
        port = closed_port()
        with ServiceClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=2, backoff_base_seconds=0.001),
            breaker=CircuitBreaker(failure_threshold=100),
        ) as client:
            with pytest.raises(TransportError):
                client.ping()

    def test_breaker_opens_and_fails_fast(self):
        port = closed_port()
        with ServiceClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=2, backoff_base_seconds=0.001),
            breaker=CircuitBreaker(failure_threshold=2, reset_seconds=60.0),
        ) as client:
            with pytest.raises(TransportError):
                client.ping()  # two attempts = two transport failures
            assert client.breaker.open
            started = time.monotonic()
            with pytest.raises(CircuitOpenError):
                client.ping()
            assert time.monotonic() - started < 0.5  # fail-fast, no dial

    def test_client_deadline_stops_retrying(self):
        port = closed_port()
        with ServiceClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=50, backoff_base_seconds=0.01),
            breaker=CircuitBreaker(failure_threshold=1000),
        ) as client:
            with pytest.raises(DeadlineExceededError):
                client.ping(deadline=Deadline(0.05))

    def test_expired_deadline_rejects_before_sending(self, registry, tmp_path):
        deadline = Deadline(0.001)
        time.sleep(0.01)
        client = ServiceClient("127.0.0.1", 1)  # never dialed
        with pytest.raises(DeadlineExceededError):
            client.submit(
                tenant="t", op="multiply", a="A", b="B", deadline=deadline
            )


class TestLongPollWait:
    def test_wait_on_a_finished_job_is_one_round_trip(self, registry, tmp_path):
        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient(
                    "127.0.0.1", port, retry=FAST_RETRY, request_timeout=4.0
                ) as client:
                    def drive():
                        job_id = client.submit(tenant="t", op="multiply", a="A", b="B")
                        client.wait(job_id, timeout=120.0)
                        sent = []
                        exchange = client._exchange

                        def spying(payload, deadline):
                            sent.append(payload)
                            return exchange(payload, deadline)

                        client._exchange = spying
                        status = client.wait(job_id, timeout=120.0)
                        return status, sent
                    status, sent = await loop.run_in_executor(None, drive)
                await service.stop()
            return status, sent

        status, sent = run(scenario())
        assert status["state"] == "done"
        assert len(sent) == 1
        assert sent[0]["op"] == "wait"
        assert 0.0 < sent[0]["timeout"] <= 4.0 / 2  # half the socket timeout


def result_frame(values: np.ndarray) -> dict:
    array = np.ascontiguousarray(values, dtype="<f8")
    return {
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
        "crc32c": crc32c(array),
    }


def flip_one_byte(payload: dict) -> dict:
    raw = bytearray(base64.b64decode(payload["data"]))
    raw[5] ^= 0x01
    return {**payload, "data": base64.b64encode(bytes(raw)).decode("ascii")}


class TestResultFrames:
    def serve_result(self, payload: dict):
        """A listener answering one request with one result frame."""

        async def scenario():
            loop = asyncio.get_running_loop()

            async def handler(reader, writer):
                await reader.readline()
                writer.write(json.dumps({"ok": True, "result": payload}).encode() + b"\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    return await loop.run_in_executor(None, client.result, "job")

        return run(scenario())

    def test_intact_frame_decodes_to_a_writable_array(self, rng):
        values = rng.random((3, 5))
        decoded = self.serve_result(result_frame(values))
        assert np.array_equal(decoded, values)
        assert decoded.dtype == np.float64 and decoded.flags.writeable

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(flip_one_byte, id="flipped-byte"),
            pytest.param(lambda p: {**p, "data": p["data"][:-4] + "!!!!"}, id="not-base64"),
            pytest.param(lambda p: {**p, "shape": [2, 5]}, id="wrong-shape"),
        ],
    )
    def test_corrupted_data_raises_integrity_error(self, rng, corrupt):
        with pytest.raises(IntegrityError):
            self.serve_result(corrupt(result_frame(rng.random((3, 5)))))


class ScriptedSocket:
    """A socket stand-in whose ``recv`` hands out scripted chunks."""

    def __init__(self, chunks: list[bytes]) -> None:
        self.chunks = list(chunks)
        self.recvs = 0

    def recv(self, size: int) -> bytes:
        assert self.chunks, "recv called with nothing left to deliver"
        self.recvs += 1
        return self.chunks.pop(0)


class TestReadFrame:
    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", 1)  # never dialed

    def test_frame_split_across_many_recvs(self):
        frame = json.dumps({"ok": True, "blob": "x" * 5000}).encode()
        wire = frame + b"\n"
        sock = ScriptedSocket([wire[i:i + 7] for i in range(0, len(wire), 7)])
        assert self.client()._read_frame(sock) == frame
        assert sock.recvs == -(-len(wire) // 7)

    def test_pipelined_frames_in_one_recv_stay_buffered(self):
        sock = ScriptedSocket([b'{"n": 1}\n{"n": 2}\n{"n"'])
        client = self.client()
        assert client._read_frame(sock) == b'{"n": 1}'
        assert client._read_frame(sock) == b'{"n": 2}'  # no recv needed
        assert sock.recvs == 1
        sock.chunks.append(b': 3}\n')
        assert client._read_frame(sock) == b'{"n": 3}'
        assert client._buffer == b""

    def test_oversized_frame_raises(self, monkeypatch):
        monkeypatch.setattr(client_module, "MAX_FRAME_BYTES", 64)
        sock = ScriptedSocket([b"x" * 40] * 4)
        with pytest.raises(FrameTooLargeError):
            self.client()._read_frame(sock)
