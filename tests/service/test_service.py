"""MatrixService acceptance: multi-tenant jobs, quotas, admission, protocol.

Covers the service-layer acceptance criteria: N concurrent jobs from
two tenants all finish correctly through one shared plan cache (hit
rate > 0 in the metrics export), a job whose estimated ρ̂_C footprint
exceeds the SLA is rejected with a typed error while smaller jobs
proceed, and the JSON-lines TCP endpoint round-trips the same flows.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading

import numpy as np
import pytest

from repro import (
    AdmissionError,
    COOMatrix,
    QuotaExceededError,
    SystemConfig,
    UnknownJobError,
    UnknownMatrixError,
)
from repro.ioutil import crc32c
from repro.observe import Observation
from repro.resilience import CheckpointStore
from repro.service import JobState, MatrixRegistry, MatrixService, serve
from repro.service import protocol as protocol_module
from repro.service import server as server_module
from repro.service.protocol import STREAM_LIMIT_BYTES

from ..conftest import random_sparse_array


def run(coro):
    return asyncio.run(coro)


def spd_array(rng, n: int) -> np.ndarray:
    base = random_sparse_array(rng, n, n, 0.1)
    return base @ base.T + n * np.eye(n)


@pytest.fixture
def registry(small_config: SystemConfig, rng) -> MatrixRegistry:
    registry = MatrixRegistry(config=small_config)
    raw = random_sparse_array(rng, 96, 96, 0.08)
    raw[:24, :24] = rng.random((24, 24))  # a dense corner worth planning for
    registry.register("A", COOMatrix.from_dense(raw))
    registry.register("B", COOMatrix.from_dense(raw.T.copy()))
    registry.register("SPD", COOMatrix.from_dense(spd_array(rng, 48)))
    registry.register("DENSE", COOMatrix.from_dense(rng.random((64, 64))))
    return registry


def dense_of(registry: MatrixRegistry, name: str) -> np.ndarray:
    return registry.get(name).to_dense()


class TestMultiTenantAcceptance:
    def test_concurrent_jobs_from_two_tenants(self, registry, tmp_path):
        """Six overlapping jobs, two tenants, one shared plan cache."""

        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs", workers=3
            ) as service:
                jobs = []
                for index in range(3):
                    tenant = f"tenant-{index % 2}"
                    jobs.append(
                        (await service.submit(tenant=tenant, op="multiply",
                                              a="A", b="B"), "multiply")
                    )
                    jobs.append(
                        (await service.submit(tenant=tenant, op="matvec", a="A",
                                              rhs=np.ones(96)), "matvec")
                    )
                for job_id, _ in jobs:
                    status = await service.wait(job_id, timeout=120.0)
                    assert status.state is JobState.DONE, status.error
                results = [await service.result(job_id) for job_id, _ in jobs]
                return results, service.metrics()

        results, metrics = run(scenario())
        a = dense_of(registry, "A")
        b = dense_of(registry, "B")
        expected_mult = a @ b
        expected_vec = a @ np.ones(96)
        for index, values in enumerate(results):
            if index % 2 == 0:
                np.testing.assert_allclose(values, expected_mult, atol=1e-9)
            else:
                np.testing.assert_allclose(values, expected_vec, atol=1e-9)
        # identical topologies across tenants → shared plan-cache hits
        assert metrics["plan_cache"]["hit_rate"] > 0
        assert metrics["jobs"] == {"done": 6}
        latency_keys = [
            name for name in metrics["metrics"]
            if name.startswith("service.latency_seconds.")
        ]
        assert set(latency_keys) == {
            "service.latency_seconds.tenant-0",
            "service.latency_seconds.tenant-1",
        }

    def test_solve_job_matches_direct_solver(self, registry, tmp_path, rng):
        rhs = rng.random(48)

        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                job_id = await service.submit(
                    tenant="t1", op="solve", a="SPD", rhs=rhs,
                    params={"method": "cg", "tolerance": 1e-10},
                )
                status = await service.wait(job_id, timeout=120.0)
                assert status.state is JobState.DONE, status.error
                return await service.result(job_id)

        solution = run(scenario())
        residual = dense_of(registry, "SPD") @ solution - rhs
        assert np.linalg.norm(residual) < 1e-6

    def test_solve_job_meets_documented_tolerance_param(
        self, registry, tmp_path, rng
    ):
        """``params={"tolerance": ...}``, the spelling JobSpec documents."""
        rhs = rng.random(48)
        tolerance = 1e-8

        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                job_id = await service.submit(
                    tenant="t1", op="solve", a="SPD", rhs=rhs,
                    params={"tolerance": tolerance},
                )
                status = await service.wait(job_id, timeout=120.0)
                assert status.state is JobState.DONE, status.error
                return await service.result(job_id)

        solution = run(scenario())
        residual = dense_of(registry, "SPD") @ solution - rhs
        assert np.linalg.norm(residual) <= tolerance * np.linalg.norm(rhs)


class TestAdmissionAndQuotas:
    def test_oversized_job_rejected_smaller_job_proceeds(
        self, registry, tmp_path
    ):
        """The SLA splits jobs: big A@B bounces, the 64x64 product runs."""
        sla = 40 * 1024  # under A@B's ~70 KiB floor, over D@D's 32 KiB

        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs", memory_limit_bytes=sla
            ) as service:
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(
                        tenant="greedy", op="multiply", a="A", b="B"
                    )
                assert excinfo.value.tenant == "greedy"
                assert excinfo.value.limit_bytes == sla
                assert excinfo.value.estimated_bytes > sla
                ok_job = await service.submit(
                    tenant="modest", op="multiply", a="DENSE", b="DENSE"
                )
                status = await service.wait(ok_job, timeout=120.0)
                metrics = service.metrics()
                return status, await service.result(ok_job), metrics

        status, values, metrics = run(scenario())
        assert status.state is JobState.DONE, status.error
        dense = dense_of(registry, "DENSE")
        np.testing.assert_allclose(values, dense @ dense, atol=1e-9)
        assert metrics["admission"]["rejected"] == 1

    def test_rejected_submission_leaves_no_job_state(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs", memory_limit_bytes=40 * 1024
            ) as service:
                with pytest.raises(AdmissionError):
                    await service.submit(
                        tenant="t", op="multiply", a="A", b="B"
                    )
                return service.metrics()

        metrics = run(scenario())
        assert metrics["jobs"] == {}
        assert not any((tmp_path / "jobs").iterdir())

    def test_tenant_quota_sheds_load(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs", workers=1, tenant_quota=1
            ) as service:
                first = await service.submit(
                    tenant="t1", op="multiply", a="A", b="B"
                )
                with pytest.raises(QuotaExceededError) as excinfo:
                    await service.submit(tenant="t1", op="matvec", a="A",
                                         rhs=np.ones(96))
                assert excinfo.value.tenant == "t1"
                assert excinfo.value.quota == 1
                # another tenant is unaffected by t1's quota
                other = await service.submit(tenant="t2", op="matvec", a="A",
                                             rhs=np.ones(96))
                await service.wait(first, timeout=120.0)
                await service.wait(other, timeout=120.0)
                return service.metrics()

        metrics = run(scenario())
        assert metrics["admission"]["shed"] == 1

    def test_global_queue_depth_sheds_load(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs", workers=1,
                tenant_quota=10, max_queue_depth=2,
            ) as service:
                ids = []
                for tenant in ("t1", "t2"):
                    ids.append(await service.submit(
                        tenant=tenant, op="multiply", a="A", b="B"
                    ))
                with pytest.raises(QuotaExceededError, match="queue is full"):
                    await service.submit(tenant="t3", op="matvec", a="A",
                                         rhs=np.ones(96))
                for job_id in ids:
                    await service.wait(job_id, timeout=120.0)

        run(scenario())


class TestJobLifecycle:
    def test_unknown_matrix_and_job(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                with pytest.raises(UnknownMatrixError):
                    await service.submit(tenant="t", op="multiply",
                                         a="ghost", b="B")
                with pytest.raises(UnknownJobError):
                    await service.status("no-such-job")

        run(scenario())

    def test_cancel_queued_job(self, registry, tmp_path):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            # not started: no workers drain the queue, jobs stay QUEUED
            job_id = await service.submit(tenant="t", op="matvec", a="A",
                                          rhs=np.ones(96))
            assert await service.cancel(job_id)
            status = await service.status(job_id)
            assert status.state is JobState.CANCELLED
            assert not await service.cancel(job_id)  # already terminal

        run(scenario())

    def test_failed_job_reports_typed_error(self, registry, tmp_path):
        async def scenario():
            async with MatrixService(
                registry, job_dir=tmp_path / "jobs"
            ) as service:
                job_id = await service.submit(
                    tenant="t", op="solve", a="SPD", rhs=np.ones(48),
                    params={"method": "cg", "max_iterations": 1,
                            "tolerance": 1e-14},
                )
                status = await service.wait(job_id, timeout=120.0)
                return status, service.metrics()

        status, metrics = run(scenario())
        assert status.state is JobState.FAILED
        assert status.error_type == "ConvergenceError"
        assert metrics["metrics"]["service.jobs_failed"]["value"] == 1

    def test_done_multiply_drops_its_journal(self, registry, tmp_path, monkeypatch):
        journaled = []
        real_flush = CheckpointStore.flush

        def spying_flush(store):
            written = real_flush(store)
            journaled.extend(store.directory.glob("pairs/pair-*.npz"))
            return written

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            async with service:
                job_id = await service.submit(
                    tenant="t", op="multiply", a="A", b="B"
                )
                status = await service.wait(job_id, timeout=120.0)
                assert status.state is JobState.DONE, status.error
            return service.store, job_id

        monkeypatch.setattr(CheckpointStore, "flush", spying_flush)
        store, job_id = run(scenario())
        # The run journaled its pairs; the DONE job no longer holds them.
        assert journaled
        assert {path.parent.parent for path in journaled} == {
            store.checkpoint_dir(job_id)
        }
        assert not store.checkpoint_dir(job_id).exists()
        assert store.load(job_id).state is JobState.DONE
        # CRC-checked on load.
        np.testing.assert_allclose(
            store.load_result(job_id),
            dense_of(registry, "A") @ dense_of(registry, "B"),
            atol=1e-9,
        )


class TestProtocol:
    def test_tcp_round_trip(self, registry, tmp_path):
        """submit → poll → result over the JSON-lines TCP endpoint."""

        async def request(reader, writer, payload):
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=STREAM_LIMIT_BYTES
                )
                assert (await request(reader, writer, {"op": "ping"}))["ok"]
                listing = await request(reader, writer, {"op": "matrices"})
                assert listing["matrices"] == ["A", "B", "DENSE", "SPD"]
                submitted = await request(reader, writer, {
                    "op": "submit", "tenant": "wire",
                    "job": {"op": "multiply", "a": "A", "b": "B"},
                })
                assert submitted["ok"], submitted
                job_id = submitted["job_id"]
                for _ in range(3000):
                    status = await request(reader, writer,
                                           {"op": "status", "job_id": job_id})
                    if status["status"]["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.01)
                assert status["status"]["state"] == "done", status
                result = await request(reader, writer,
                                       {"op": "result", "job_id": job_id})
                metrics = await request(reader, writer, {"op": "metrics"})
                # typed errors cross the wire without closing the stream
                error = await request(reader, writer, {
                    "op": "submit", "tenant": "wire",
                    "job": {"op": "multiply", "a": "ghost", "b": "B"},
                })
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return result["result"], metrics["metrics"], error

        payload, metrics, error = run(scenario())
        values = np.frombuffer(
            base64.b64decode(payload["data"]), dtype="<f8"
        ).reshape(payload["shape"])
        expected = dense_of(registry, "A") @ dense_of(registry, "B")
        np.testing.assert_allclose(values, expected, atol=1e-9)
        digest = crc32c(np.ascontiguousarray(values).tobytes())
        assert digest == payload["crc32c"]
        assert metrics["jobs"] == {"done": 1}
        assert not error["ok"]
        assert error["error"]["type"] == "UnknownMatrixError"

    def test_malformed_requests_answered_not_fatal(self, registry, tmp_path):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                writer.write(json.dumps({"op": "frobnicate"}).encode() + b"\n")
                await writer.drain()
                unknown = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return bad, unknown

        bad, unknown = run(scenario())
        assert not bad["ok"] and bad["error"]["type"] == "BadRequest"
        assert not unknown["ok"] and unknown["error"]["type"] == "FormatError"

    def test_result_encoded_off_the_event_loop(self, registry, tmp_path, monkeypatch):
        """The result's base64 bytes and JSON are built on an executor thread."""
        threads = []
        build = protocol_module._result_payload

        def recording(values):
            threads.append(threading.get_ident())
            return build(values)

        monkeypatch.setattr(protocol_module, "_result_payload", recording)

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                job_id = await service.submit(tenant="t", op="multiply", a="A", b="B")
                await service.wait(job_id, timeout=120.0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=STREAM_LIMIT_BYTES
                )
                writer.write(json.dumps({"op": "result", "job_id": job_id}).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return response, threading.get_ident()

        response, loop_thread = run(scenario())
        assert response["ok"], response
        values = np.frombuffer(
            base64.b64decode(response["result"]["data"]), dtype="<f8"
        ).reshape(response["result"]["shape"])
        assert crc32c(values) == response["result"]["crc32c"]
        assert len(threads) == 1
        assert threads[0] != loop_thread


class TestResultFrame:
    @pytest.mark.parametrize("shape", [(0,), (1,), (3, 4), (384, 384)])
    def test_frame_parses_like_the_json_dumps_frame(self, rng, shape):
        values = rng.standard_normal(shape)
        frame = protocol_module._result_frame(values)
        array = np.ascontiguousarray(values, dtype="<f8")
        dumped = json.dumps({
            "ok": True,
            "result": {
                "shape": list(array.shape),
                "data": base64.b64encode(array).decode("ascii"),
                "crc32c": crc32c(array),
            },
        }).encode() + b"\n"
        assert json.loads(frame) == json.loads(dumped)
        assert frame.count(b"\n") == 1
        assert frame.endswith(b"\n")


class TestObservationRetention:
    JOBS = 6

    async def run_jobs(self, service):
        async with service:
            for index in range(self.JOBS):
                op = "multiply" if index % 2 else "matvec"
                extra = {"b": "B"} if op == "multiply" else {"rhs": np.ones(96)}
                job_id = await service.submit(tenant="t", op=op, a="A", **extra)
                status = await service.wait(job_id, timeout=120.0)
                assert status.state is JobState.DONE, status.error
        return service.observer

    def test_server_observation_keeps_a_bounded_window(
        self, registry, tmp_path, monkeypatch
    ):
        """Spans and cost samples stop at the cap; the job counter does not."""
        monkeypatch.setattr(server_module, "OBSERVATION_RETAIN", 8)
        observer = run(self.run_jobs(MatrixService(registry, job_dir=tmp_path / "jobs")))
        assert len(observer.tracer) == 8
        assert len(observer.cost_accuracy) == 8
        assert observer.metrics.value("service.jobs_completed") == self.JOBS

    def test_caller_observer_keeps_everything(self, registry, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "OBSERVATION_RETAIN", 8)
        mine = Observation()
        service = MatrixService(registry, job_dir=tmp_path / "jobs", observer=mine)
        assert run(self.run_jobs(service)) is mine
        assert len(mine.tracer) > 8
        assert len(mine.cost_accuracy) > 8
