"""Tests for the supervised multiprocess shard executor (clean paths).

Worker-kill recovery, quarantine and fault-injection parity live in
``tests/integration/test_worker_kill.py``; this module covers the
happy-path contract: bit-identical results, report population,
checkpoint cadence and resume, what a run leaves behind, and which
workers a later run may reuse.
"""

import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.engine.executor as executor
import repro.engine.shard as shard
import repro.formats.serialize as serialize
import repro.kernels.registry as registry
import repro.resilience.supervisor as supervisor
from repro import (
    COOMatrix,
    Observation,
    SystemConfig,
    SystemTopology,
    atmult,
    build_at_matrix,
    distribute_tile_rows,
)
from repro.core.parallel import parallel_atmult
from repro.engine import MultiplyOptions
from repro.engine.plan import ExecutionPlan
from repro.errors import OperationCancelledError, TaskFailedError
from repro.formats import write_matrix_market
from repro.kinds import StorageKind
from repro.resilience import CancelToken, FaultPlan, RetryPolicy, inject_faults
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.report import WorkerRecord

from ..conftest import assert_builtin_dtypes, heterogeneous_array, payload_arrays

pytestmark = pytest.mark.usefixtures("fresh_shard_workers")

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
PRESSURE_CONFIG = SystemConfig(llc_bytes=16 * 1024, b_atomic=16)
TOPOLOGY = SystemTopology(sockets=2, cores_per_socket=2)


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


def process_options(**overrides):
    defaults = dict(
        config=CONFIG, execution="processes", heartbeat_interval_seconds=0.05
    )
    defaults.update(overrides)
    return MultiplyOptions(**defaults)


class TestSupervisedCorrectness:
    def test_matches_sequential_bit_for_bit(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert report.pairs > 0
        assert report.products > 0

    def test_matches_thread_backend_bit_for_bit(self, rng):
        a = heterogeneous_array(rng, 64, 48)
        b = heterogeneous_array(rng, 48, 64)
        at_a, at_b = build(a), build(b)
        threaded, _ = parallel_atmult(
            at_a, at_b, topology=TOPOLOGY,
            options=MultiplyOptions(config=CONFIG, execution="threads"),
        )
        supervised, _ = parallel_atmult(
            at_a, at_b, topology=TOPOLOGY, options=process_options()
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), threaded.to_dense()
        )

    def test_single_worker_supervised_run(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=1)
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert report.workers == 1

    def test_spread_operand_is_dispatched_in_plan_order(self, rng, monkeypatch):
        at = distribute_tile_rows(build(heterogeneous_array(rng, 64, 64)), TOPOLOGY)
        sequential, _ = atmult(at, at, config=CONFIG)
        pending_pairs = []
        real_run_supervised = supervisor.run_supervised

        def capturing(plan, at_a, at_b, pending, *args, **kwargs):
            pending_pairs.extend(pending)
            return real_run_supervised(plan, at_a, at_b, pending, *args, **kwargs)

        monkeypatch.setattr(supervisor, "run_supervised", capturing)
        observer = Observation()
        supervised, _ = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(workers=2, observer=observer),
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        # Tile-rows alternate between both nodes, yet the pairs go out
        # from one queue in plan order, as on the thread backend.
        assert {pair.team_node for pair in pending_pairs} == {0, 1}
        dispatched = sorted(
            observer.tracer.find("shard.dispatch"), key=lambda span: span.start
        )
        assert [(span.attrs["ti"], span.attrs["tj"]) for span in dispatched] == [
            (pair.ti, pair.tj) for pair in pending_pairs
        ]


class TestSupervisedReport:
    def test_worker_records_are_populated(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        _, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        failure = report.failure
        assert failure.worker_deaths == 0
        assert failure.pairs_reassigned == 0
        assert failure.pairs_quarantined == 0
        assert failure.clean
        assert len(failure.workers) >= 1
        completed = 0
        for record in failure.workers.values():
            assert isinstance(record, WorkerRecord)
            assert record.pid is not None and record.pid > 0
            assert record.heartbeats >= 1
            assert not record.died
            completed += record.pairs_completed
        assert completed == report.pairs

    def test_busy_time_lands_on_shard_lanes(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        _, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        assert report.worker_busy_seconds
        assert all(
            lane.startswith("shard-") for lane in report.worker_busy_seconds
        )
        assert sum(report.worker_busy_seconds.values()) > 0.0

    def test_generous_pair_deadline_changes_nothing(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(pair_deadline_seconds=120.0),
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert report.failure.worker_deaths == 0

    def test_pair_deadline_kills_a_stalled_worker(self):
        # One pair whose every execution stalls far past the deadline:
        # the supervisor must kill its worker rather than wait out the
        # stall, twice, and then quarantine the pair.
        at = build(np.random.default_rng(3).random((16, 16)))
        stall_seconds = 30.0
        start = time.monotonic()
        with inject_faults(FaultPlan(0, stall_rate=1.0, stall_seconds=stall_seconds)):
            with pytest.raises(TaskFailedError, match=r"\(0, 0\)") as caught:
                parallel_atmult(
                    at, at, topology=TOPOLOGY,
                    options=process_options(workers=1, pair_deadline_seconds=0.5),
                )
        elapsed = time.monotonic() - start
        report = caught.value.report
        failure = report.failure
        assert report.pairs == 1
        assert failure.worker_deaths == 2
        assert failure.pairs_quarantined == 1
        assert [coords for coords, _ in failure.pair_errors] == [(0, 0)]
        assert len(failure.workers) == 2
        for record in failure.workers.values():
            assert record.died
            assert "dispatch deadline" in record.cause
        assert elapsed < stall_seconds / 2


class TestStartupGrace:
    """A worker's first heartbeat may come up to the startup grace late."""

    DELAY_SECONDS = 1.5

    def run_with_slow_first_worker(self, rng, monkeypatch, tmp_path):
        # Only the first worker forked sleeps before serving: a
        # replacement finds the marker taken and starts at once.
        marker = tmp_path / "slept"
        real_worker_main = shard.worker_main

        def slow_first_worker(channel, first_run=None):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                time.sleep(self.DELAY_SECONDS)
            real_worker_main(channel, first_run)

        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        supervisor._shutdown_idle()  # the run must fork its worker
        monkeypatch.setattr(shard, "worker_main", slow_first_worker)
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=1)
        )
        assert marker.exists()
        assert supervised.to_dense().tobytes() == sequential.to_dense().tobytes()
        return report.failure

    def test_slow_start_within_the_grace_is_not_a_death(
        self, rng, monkeypatch, tmp_path
    ):
        failure = self.run_with_slow_first_worker(rng, monkeypatch, tmp_path)
        assert failure.worker_deaths == 0
        assert len(failure.workers) == 1

    def test_slow_start_past_the_grace_is_buried_and_replaced(
        self, rng, monkeypatch, tmp_path
    ):
        # Before its first beat a worker counts as stale only after
        # max(1.0 s, the grace): 1.0 s here, under the 1.5 s sleep.
        monkeypatch.setattr(supervisor, "_STARTUP_GRACE_SECONDS", 0.5)
        failure = self.run_with_slow_first_worker(rng, monkeypatch, tmp_path)
        assert failure.worker_deaths == 1
        assert failure.pairs_quarantined == 0
        dead = [record for record in failure.workers.values() if record.died]
        assert len(dead) == 1
        assert dead[0].cause.startswith("missed heartbeats")


class TestSupervisedMemoryLimit:
    def test_demotion_matches_the_thread_backend(self, monkeypatch):
        # Two rank-2 stripes whose outer product density propagation
        # underestimates: the dense result overshoots a 13.5 kB limit
        # and the end-of-run repair has to demote a tile.
        rng = np.random.default_rng(0)
        a = np.zeros((48, 48))
        b = np.zeros((48, 48))
        for j in range(2):
            a[:24, j] = np.where(rng.random(24) < 0.8, rng.random(24), 0.0)
            b[j, :24] = np.where(rng.random(24) < 0.8, rng.random(24), 0.0)
        for x in (a, b):
            x[24:, 24:] = np.where(
                rng.random((24, 24)) < 0.12, rng.random((24, 24)), 0.0
            )
        at_a, at_b = build(a), build(b)
        limit = 13_500.0
        demotions: dict[str, list[int]] = {"threads": [], "processes": []}
        enforce = executor.enforce_memory_limit
        backend = ["threads"]

        def counting_enforce(result, memory_limit_bytes):
            demotions[backend[0]].append(enforce(result, memory_limit_bytes))
            return demotions[backend[0]][-1]

        monkeypatch.setattr(executor, "enforce_memory_limit", counting_enforce)
        threaded, _ = parallel_atmult(
            at_a, at_b, topology=TOPOLOGY,
            options=MultiplyOptions(
                config=CONFIG, execution="threads", memory_limit_bytes=limit
            ),
        )
        backend[0] = "processes"
        supervised, _ = parallel_atmult(
            at_a, at_b, topology=TOPOLOGY,
            options=process_options(memory_limit_bytes=limit),
        )
        assert demotions["threads"][0] >= 1
        assert demotions["processes"] == demotions["threads"]
        assert supervised.memory_bytes() <= limit
        assert [tile.kind for tile in supervised.tiles] == [
            tile.kind for tile in threaded.tiles
        ]
        np.testing.assert_array_equal(
            supervised.to_dense(), threaded.to_dense()
        )

    @staticmethod
    def pressured_operand():
        # Four 64² dense blocks over a 2 % background: under a 520 kB
        # limit the self-product needs the end-of-run repair.
        rng = np.random.default_rng(3)
        a = np.zeros((256, 256))
        for _ in range(4):
            i, j = rng.integers(0, 256 - 64, 2)
            a[i : i + 64, j : j + 64] = rng.random((64, 64))
        mask = rng.random(a.shape) < 0.02
        a[mask] = rng.random(mask.sum())
        return build_at_matrix(COOMatrix.from_dense(a), PRESSURE_CONFIG)

    PRESSURE_LIMIT = 520_000

    @classmethod
    def pressured_options(cls, **overrides):
        return process_options(
            config=PRESSURE_CONFIG, workers=2,
            memory_limit_bytes=cls.PRESSURE_LIMIT,
            resilience=RetryPolicy(), **overrides,
        )

    def assert_same_result(self, result, sequential, label):
        assert [tile.kind for tile in result.tiles] == [
            tile.kind for tile in sequential.tiles
        ], label
        assert result.memory_bytes() == sequential.memory_bytes(), label
        assert result.memory_bytes() <= self.PRESSURE_LIMIT, label
        assert (
            result.to_dense().tobytes() == sequential.to_dense().tobytes()
        ), label

    def test_bit_identical_on_every_backend(self):
        # Two workers finish pairs in varying order; with the limit
        # handled at plan time and by the end-of-run repair, that order
        # must not reach the result.
        at = self.pressured_operand()
        sequential, _ = atmult(at, at, options=self.pressured_options())
        for execution in ("threads", "processes"):
            for run in range(3):
                result, _ = parallel_atmult(
                    at, at, topology=TOPOLOGY,
                    options=self.pressured_options(execution=execution),
                )
                self.assert_same_result(result, sequential, (execution, run))

    def test_resumed_runs_match_sequential(self, tmp_path):
        at = self.pressured_operand()
        sequential, _ = atmult(at, at, options=self.pressured_options())
        journal = tmp_path / "journal"
        parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=self.pressured_options(
                execution="threads", checkpoint=CheckpointStore(journal)
            ),
        )
        records = sorted(journal.glob("pairs/pair-*.npz"))
        for record in records[len(records) // 2 :]:
            record.unlink()
        for execution in ("threads", "processes"):
            # Each resume gets its own copy of the half journal.
            copy = tmp_path / execution
            shutil.copytree(journal, copy)
            result, report = parallel_atmult(
                at, at, topology=TOPOLOGY,
                options=self.pressured_options(
                    execution=execution,
                    checkpoint=CheckpointStore(copy, resume=True),
                ),
            )
            assert report.failure.pairs_resumed == len(records) // 2
            self.assert_same_result(result, sequential, execution)


class TestSupervisedCheckpoint:
    def test_resume_skips_journaled_pairs(self, rng, tmp_path):
        at = build(heterogeneous_array(rng, 64, 64))
        first_store = CheckpointStore(tmp_path / "ckpt")
        first, first_report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(checkpoint=first_store),
        )
        assert first_report.pairs_executed > 0
        resume_store = CheckpointStore(tmp_path / "ckpt", resume=True)
        resumed, resumed_report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(checkpoint=resume_store),
        )
        np.testing.assert_array_equal(resumed.to_dense(), first.to_dense())
        assert resumed_report.failure.pairs_resumed == first_report.pairs
        assert resumed_report.pairs_executed == 0


class TestOperandHandoff:
    """Workers get the plan and operands in a run message, not files."""

    def test_spawned_worker_unpickles_its_arguments(self, rng, monkeypatch):
        # The only run of a spawn-started worker: fork platforms never
        # reach it otherwise.
        monkeypatch.setattr(
            supervisor, "_make_context", lambda: multiprocessing.get_context("spawn")
        )
        spawned_pids = []
        real_start = multiprocessing.context.SpawnProcess.start

        def recording_start(process):
            real_start(process)
            spawned_pids.append(process.pid)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", recording_start)
        at = build(heterogeneous_array(rng, 48, 48))
        sequential, _ = atmult(at, at, config=CONFIG)
        spawned, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=1)
        )
        np.testing.assert_array_equal(spawned.to_dense(), sequential.to_dense())
        assert report.pairs_executed == report.pairs > 0
        # A spawn-started process served the run, not a warm fork worker.
        assert [r.pid for r in report.failure.workers.values()] == spawned_pids

    def test_forked_run_writes_no_operand_archive_or_pickle(
        self, rng, monkeypatch, tmp_path
    ):
        archives = []
        real_save = serialize.save_at_matrix

        def spying_save(*args):
            archives.append(args)
            real_save(*args)

        monkeypatch.setattr(serialize, "save_at_matrix", spying_save)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_files = []
        real_run_supervised = supervisor.run_supervised

        def listing_run_supervised(*args, **kwargs):
            adopted = real_run_supervised(*args, **kwargs)
            run_files.extend(tmp_path.rglob("*"))
            return adopted

        monkeypatch.setattr(supervisor, "run_supervised", listing_run_supervised)
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        supervised, _ = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert archives == []
        # No run directory: results, heartbeats and statistics travel on
        # the worker channels.
        assert run_files == []


class TestCheckpointCadence:
    def test_flush_interval_is_honoured_on_processes(self, rng, tmp_path):
        at = build(heterogeneous_array(rng, 64, 64))
        flushes = {}
        results = {}
        for execution in ("threads", "processes"):
            store = CheckpointStore(tmp_path / execution)
            # One pool thread: concurrent pool threads may both record
            # before either checks the buffer and so merge two flushes.
            workers = 1 if execution == "threads" else 2
            results[execution], report = parallel_atmult(
                at, at, topology=TOPOLOGY,
                options=process_options(
                    execution=execution, workers=workers, checkpoint=store,
                    checkpoint_flush_pairs=4,
                ),
            )
            flushes[execution] = report.checkpoint_flushes
        pairs = report.pairs
        assert pairs > 4
        assert flushes["processes"] == flushes["threads"] == -(-pairs // 4)
        resumed, resumed_report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(
                checkpoint=CheckpointStore(tmp_path / "processes", resume=True)
            ),
        )
        assert resumed_report.failure.pairs_resumed == pairs
        assert resumed_report.pairs_executed == 0
        assert resumed.to_dense().tobytes() == results["processes"].to_dense().tobytes()
        assert resumed.to_dense().tobytes() == results["threads"].to_dense().tobytes()


class TestNoLeaks:
    def test_back_to_back_runs_leak_nothing(self, rng, monkeypatch):
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("needs /proc/self/fd to count open descriptors")
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def spying_mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)

        def run():
            result, report = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
            np.testing.assert_array_equal(
                result.to_dense(), sequential.to_dense()
            )
            return sorted(r.pid for r in report.failure.workers.values())

        fds_before = len(os.listdir(fd_dir))  # no idle worker yet
        run()  # warm-up: lazy imports may open descriptors once
        fds = len(os.listdir(fd_dir))
        threads = threading.active_count()
        monkeypatch.setattr(tempfile, "mkdtemp", spying_mkdtemp)
        pids = [run() for _ in range(5)]
        assert len(os.listdir(fd_dir)) == fds
        assert threading.active_count() == threads
        assert made == []
        # The same warm workers served all five runs.
        assert pids == [pids[0]] * 5
        supervisor._shutdown_idle()
        assert multiprocessing.active_children() == []
        assert len(os.listdir(fd_dir)) == fds_before


class TestWithoutSemaphores:
    def test_process_backend_runs_without_the_synchronize_module(self):
        # Platforms without OS semaphores cannot import
        # multiprocessing.synchronize; the backend needs only Process,
        # Pipe and connection.wait, so it must still run there.
        script = textwrap.dedent(
            """
            import sys
            sys.modules["multiprocessing.synchronize"] = None
            import numpy as np
            from repro import COOMatrix, SystemConfig, SystemTopology
            from repro import atmult, build_at_matrix
            from repro.core.parallel import parallel_atmult
            from repro.engine import MultiplyOptions

            config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
            array = np.random.default_rng(5).random((48, 48))
            array[array < 0.6] = 0.0
            at = build_at_matrix(COOMatrix.from_dense(array), config)
            sequential, _ = atmult(at, at, config=config)
            result, report = parallel_atmult(
                at, at, topology=SystemTopology(sockets=2, cores_per_socket=2),
                options=MultiplyOptions(
                    config=config, execution="processes", workers=1,
                    heartbeat_interval_seconds=0.05,
                ),
            )
            assert result.to_dense().tobytes() == sequential.to_dense().tobytes()
            assert len(report.failure.workers) == 1, report.failure.workers
            print("ok", report.pairs_executed)
            """
        )
        completed = run_python("-W", "error::RuntimeWarning", "-c", script)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("ok ")


def worker_pids(report):
    return {record.pid for record in report.failure.workers.values()}


class TestWarmWorkers:
    """Workers stay up between runs; buried ones never serve again."""

    def test_second_call_starts_no_process(self, rng, monkeypatch):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        _, first = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        starts = []
        real_start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            starts.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        second, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        assert starts == []
        assert worker_pids(report) == worker_pids(first)
        assert len(worker_pids(report)) == report.workers
        assert second.to_dense().tobytes() == sequential.to_dense().tobytes()

    def test_warm_run_tiles_have_builtin_dtypes(self, rng):
        # Both calls' result tiles are unpickled from the worker
        # channels; the second call's operands reach warm workers the
        # same way.
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        expected = {tile.extent: tile for tile in sequential.tiles}
        _, first = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        result, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        assert worker_pids(report) == worker_pids(first)
        assert {tile.extent for tile in result.tiles} == expected.keys()
        for tile in result.tiles:
            assert tile.kind is expected[tile.extent].kind
            assert_builtin_dtypes(tile.data)
            arrays = payload_arrays(expected[tile.extent].data)
            for name, array in payload_arrays(tile.data).items():
                assert array.tobytes() == arrays[name].tobytes(), name

    def assert_next_call_avoids(self, at, dead_pids):
        assert dead_pids
        sequential, _ = atmult(at, at, config=CONFIG)
        result, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        assert worker_pids(report).isdisjoint(dead_pids)
        assert report.failure.worker_deaths == 0
        assert result.to_dense().tobytes() == sequential.to_dense().tobytes()

    def test_crashed_worker_is_never_reused(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        crash = FaultPlan(0, worker_crash_pairs=((0, 0),), worker_crash_attempts=1)
        with inject_faults(crash):
            _, report = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
        dead = {r.pid for r in report.failure.workers.values() if r.died}
        self.assert_next_call_avoids(at, dead)

    def test_deadline_killed_worker_is_never_reused(self):
        at = build(np.random.default_rng(3).random((16, 16)))
        with inject_faults(FaultPlan(0, stall_rate=1.0, stall_seconds=30.0)):
            with pytest.raises(TaskFailedError) as caught:
                parallel_atmult(
                    at, at, topology=TOPOLOGY,
                    options=process_options(workers=1, pair_deadline_seconds=0.3),
                )
        records = caught.value.report.failure.workers.values()
        assert all(record.died for record in records)
        self.assert_next_call_avoids(at, {record.pid for record in records})

    def test_cancelled_run_workers_are_never_reused(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        _, warm = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        token = CancelToken()
        timer = threading.Timer(0.3, token.cancel)
        timer.start()
        try:
            with inject_faults(FaultPlan(0, stall_rate=1.0, stall_seconds=30.0)):
                with pytest.raises(OperationCancelledError):
                    parallel_atmult(
                        at, at, topology=TOPOLOGY,
                        options=process_options(cancel=token),
                    )
        finally:
            timer.cancel()
        # The cancelled run took the warm workers and killed them.
        assert supervisor._idle == []
        self.assert_next_call_avoids(at, worker_pids(warm))

    def test_failed_run_workers_are_never_reused(self, rng, tmp_path, monkeypatch):
        at = build(heterogeneous_array(rng, 64, 64))
        _, warm = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )

        def failing_record(store, coords, tile):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(CheckpointStore, "record", failing_record)
            with pytest.raises(OSError, match="disk full"):
                parallel_atmult(
                    at, at, topology=TOPOLOGY,
                    options=process_options(
                        checkpoint=CheckpointStore(tmp_path / "ckpt")
                    ),
                )
        # The failed run's workers may have been mid-pair: killed, not kept.
        assert supervisor._idle == []
        self.assert_next_call_avoids(at, worker_pids(warm))

    def test_a_run_counts_only_its_own_heartbeats(self):
        at = build(np.random.default_rng(3).random((16, 16)))
        with inject_faults(FaultPlan(0, stall_rate=1.0, stall_seconds=0.3)):
            _, busy = parallel_atmult(
                at, at, topology=TOPOLOGY,
                options=process_options(workers=1, heartbeat_interval_seconds=0.01),
            )
        (busy_record,) = busy.failure.workers.values()
        assert busy_record.heartbeats >= 5
        _, quiet = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(workers=1, heartbeat_interval_seconds=60.0),
        )
        (quiet_record,) = quiet.failure.workers.values()
        assert quiet_record.pid == busy_record.pid
        # Only the run's own first beat: nothing left over from the last.
        assert quiet_record.heartbeats == 1

    def test_idle_workers_send_nothing(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(heartbeat_interval_seconds=0.01),
        )
        time.sleep(0.2)  # twenty heartbeat intervals
        assert len(supervisor._idle) == 2
        assert not any(idle.channel.poll() for idle in supervisor._idle)

    def test_idle_list_keeps_the_returning_run_worker_count(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        _, two = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=2)
        )
        _, one = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=1)
        )
        assert worker_pids(one) < worker_pids(two)
        assert [idle.process.pid for idle in supervisor._idle] == list(
            worker_pids(one)
        )
        assert {p.pid for p in multiprocessing.active_children()} == worker_pids(one)


    def test_concurrent_runs_share_the_idle_list(self, rng):
        # Three callers, one worker each, on 2 cores: two runs taking
        # the same idle worker would mix their messages on its pipe.
        at = build(heterogeneous_array(rng, 48, 48))
        sequential, _ = atmult(at, at, config=CONFIG)
        results, errors = [], []

        def caller():
            try:
                for _ in range(3):
                    result, _ = parallel_atmult(
                        at, at, topology=TOPOLOGY,
                        options=process_options(workers=1),
                    )
                    results.append(result.to_dense().tobytes())
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert results == [sequential.to_dense().tobytes()] * 9
        idle = [worker.process.pid for worker in supervisor._idle]
        # Each returning run keeps at most its own worker count (1), and
        # every other worker was shut down, none leaked.
        assert len(idle) == 1
        assert {p.pid for p in multiprocessing.active_children()} == set(idle)

    def test_fresh_workers_take_their_first_run_from_their_arguments(
        self, rng, monkeypatch
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        pickled_runs = []
        real_dumps = supervisor.ForkingPickler.dumps

        def counting_dumps(cls, obj, protocol=None):
            if isinstance(obj, tuple) and len(obj) == 4 and isinstance(
                obj[0], ExecutionPlan
            ):
                pickled_runs.append(obj)
            return real_dumps(obj, protocol)

        monkeypatch.setattr(
            supervisor.ForkingPickler, "dumps", classmethod(counting_dumps)
        )
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        for expected_pickles in (0, 1):
            result, report = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
            assert result.to_dense().tobytes() == sequential.to_dense().tobytes()
            # Forked workers inherit their first run; warm ones get it
            # pickled once for the whole run.
            assert len(pickled_runs) == expected_pickles
            assert report.workers == 2

    def test_a_changed_kernel_registry_gets_new_workers(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, config=CONFIG)
        _, before = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        saved = {
            c_kind: registry.get_kernel(StorageKind.SPARSE, StorageKind.SPARSE, c_kind)
            for c_kind in StorageKind
        }

        def twice(kernel):
            def doubled(a, wa, b, wb, out, row0, col0):
                kernel(a, wa, b, wb, out, row0, col0)
                kernel(a, wa, b, wb, out, row0, col0)

            return doubled

        try:
            for c_kind, kernel in saved.items():
                registry.register_kernel(
                    StorageKind.SPARSE, StorageKind.SPARSE, c_kind, twice(kernel)
                )
            threaded, _ = parallel_atmult(
                at, at, topology=TOPOLOGY,
                options=MultiplyOptions(config=CONFIG, execution="threads"),
            )
            changed, during = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
        finally:
            for c_kind, kernel in saved.items():
                registry.register_kernel(
                    StorageKind.SPARSE, StorageKind.SPARSE, c_kind, kernel
                )
        # The doubled kernels change the product, on every backend.
        assert threaded.to_dense().tobytes() != sequential.to_dense().tobytes()
        assert changed.to_dense().tobytes() == threaded.to_dense().tobytes()
        assert worker_pids(during).isdisjoint(worker_pids(before))
        # Workers forked under the doubled kernels keep them: not reused.
        restored, after = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        assert restored.to_dense().tobytes() == sequential.to_dense().tobytes()
        assert worker_pids(after).isdisjoint(worker_pids(during))

    def test_long_idle_workers_are_shut_down(self, rng, monkeypatch):
        monkeypatch.setattr(supervisor, "_IDLE_SECONDS", 1.0)
        at = build(heterogeneous_array(rng, 48, 48))
        parallel_atmult(at, at, topology=TOPOLOGY, options=process_options())
        assert supervisor._idle
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert supervisor._idle == []
        assert multiprocessing.active_children() == []

    def test_a_worker_gone_after_its_last_pair_does_not_stall_the_run(
        self, rng, monkeypatch
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        # Another process holds a copy of the worker's pipe end, as a
        # worker forked by a concurrent run can: its exit brings no
        # end-of-file, only its process sentinel.
        ctx = multiprocessing.get_context("fork")
        held = []

        class HoldingContext:
            Process = ctx.Process

            def Pipe(self):  # noqa: N802 — multiprocessing's spelling
                channel, worker_end = ctx.Pipe()
                held.append(os.dup(worker_end.fileno()))
                return channel, worker_end

        real_worker_main = shard.worker_main

        def exiting_worker_main(channel, first_run):
            class ExitInsteadOfEnding:
                recv = channel.recv

                def send(self, message):
                    if message == ("ended",):
                        os._exit(0)
                    channel.send(message)

            real_worker_main(ExitInsteadOfEnding(), first_run)

        monkeypatch.setattr(supervisor, "_make_context", HoldingContext)
        monkeypatch.setattr(shard, "worker_main", exiting_worker_main)
        at = build(heterogeneous_array(rng, 48, 48))
        sequential, _ = atmult(at, at, config=CONFIG)
        start = time.monotonic()
        try:
            result, _ = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options(workers=1)
            )
        finally:
            for fd in held:
                os.close(fd)
        assert time.monotonic() - start < supervisor._STOP_SECONDS / 2
        assert result.to_dense().tobytes() == sequential.to_dense().tobytes()
        assert supervisor._idle == []


class TestExitHygiene:
    def test_forked_child_starts_with_no_idle_workers(self, rng):
        at = build(heterogeneous_array(rng, 48, 48))
        parallel_atmult(at, at, topology=TOPOLOGY, options=process_options())
        assert supervisor._idle
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            try:
                closed = all(idle.channel.closed for idle in supervisor._idle)
                os.write(write_end, f"{len(supervisor._idle)} {closed}".encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            seen = reader.read()
        os.waitpid(pid, 0)
        assert seen == b"0 True"
        assert supervisor._idle  # the parent keeps its own

    def test_nothing_forks_outside_a_process_call(self):
        script = textwrap.dedent(
            """
            import os
            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            import numpy as np
            import repro
            import repro.resilience.supervisor
            from repro import COOMatrix, SystemConfig, SystemTopology
            from repro import atmult, build_at_matrix
            from repro.core.parallel import parallel_atmult
            from repro.engine import MultiplyOptions

            config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
            array = np.random.default_rng(5).random((48, 48))
            at = build_at_matrix(COOMatrix.from_dense(array), config)
            topology = SystemTopology(sockets=2, cores_per_socket=2)
            atmult(at, at, config=config)
            parallel_atmult(at, at, topology=topology, options=MultiplyOptions(
                config=config, execution="threads"))
            assert forks == [], forks
            options = MultiplyOptions(config=config, execution="processes")
            for _ in range(3):
                parallel_atmult(at, at, topology=topology, options=options)
            print("forks", len(forks))
            """
        )
        completed = run_python(script)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["forks", "2"]

    def test_ctrl_c_at_the_prompt_spares_idle_workers(self):
        # Ctrl-C signals the whole process group: the caller handles its
        # KeyboardInterrupt, and its idle workers must survive it.
        script = textwrap.dedent(
            """
            import os, signal, time
            import numpy as np
            from repro import COOMatrix, SystemConfig, SystemTopology
            from repro import build_at_matrix
            from repro.core.parallel import parallel_atmult
            from repro.engine import MultiplyOptions

            config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
            array = np.random.default_rng(5).random((48, 48))
            at = build_at_matrix(COOMatrix.from_dense(array), config)
            topology = SystemTopology(sockets=2, cores_per_socket=2)
            options = MultiplyOptions(config=config, execution="processes")

            def pids():
                _, report = parallel_atmult(
                    at, at, topology=topology, options=options)
                return sorted(r.pid for r in report.failure.workers.values())

            before = pids()
            try:
                os.killpg(os.getpgrp(), signal.SIGINT)
                time.sleep(5)
            except KeyboardInterrupt:
                pass
            time.sleep(0.2)
            assert pids() == before
            print("ok")
            """
        )
        completed = run_python(script, start_new_session=True)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["ok"]
        assert "Traceback" not in completed.stderr

    def test_workers_hold_no_caller_end_of_any_channel(self, rng):
        if not Path("/proc").is_dir():
            pytest.skip("needs /proc to read a worker's descriptors")
        at = build(heterogeneous_array(rng, 48, 48))
        _, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=2)
        )
        first, second = (report.failure.workers[i].pid for i in (0, 1))
        caller_ends = {
            idle.process.pid: descriptor_target(os.getpid(), idle.channel.fileno())
            for idle in supervisor._idle
        }
        assert set(caller_ends) == {first, second}
        # The second worker was forked while the caller held the first
        # one's channel; neither holds the caller's end of its own.
        for pid in (first, second):
            assert descriptor_targets(pid).isdisjoint(caller_ends.values()), pid

    def test_idle_workers_exit_when_their_caller_is_killed(self, tmp_path):
        if not Path("/proc").is_dir():
            pytest.skip("needs /proc to watch the workers")
        script = textwrap.dedent(
            """
            import time
            import numpy as np
            from repro import COOMatrix, SystemConfig, SystemTopology
            from repro import build_at_matrix
            from repro.core.parallel import parallel_atmult
            from repro.engine import MultiplyOptions

            config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
            array = np.random.default_rng(5).random((48, 48))
            at = build_at_matrix(COOMatrix.from_dense(array), config)
            topology = SystemTopology(sockets=2, cores_per_socket=2)
            options = MultiplyOptions(config=config, execution="processes")
            _, report = parallel_atmult(at, at, topology=topology, options=options)
            print(*(r.pid for r in report.failure.workers.values()), flush=True)
            time.sleep(60)
            """
        )
        stderr = tmp_path / "stderr"
        with open(stderr, "w") as err:
            caller = subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE,
                stderr=err, text=True, env=python_env(),
            )
        try:
            pids = [int(pid) for pid in caller.stdout.readline().split()]
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in pids if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert len(pids) == 2
        assert left == []
        assert "Traceback" not in stderr.read_text()

    def test_cli_process_run_exits_and_leaves_no_worker(self, tmp_path):
        proc = Path("/proc")
        if not proc.is_dir():
            pytest.skip("needs /proc to look for leftover workers")
        array = np.random.default_rng(5).random((48, 48))
        array[array < 0.6] = 0.0
        matrix = tmp_path / "a.mtx"
        write_matrix_market(COOMatrix.from_dense(array), matrix)
        marker = str(tmp_path / "product.mtx")
        start = time.monotonic()
        completed = run_python(
            "-m", "repro", "multiply", str(matrix), str(matrix),
            "--llc-kib", "8", "--execution", "processes", "--workers", "2",
            "-o", marker,
        )
        elapsed = time.monotonic() - start
        assert completed.returncode == 0, completed.stderr
        assert "execution: processes, 2 workers" in completed.stdout
        assert elapsed < 30.0
        # Forked workers share the parent's command line.
        leftovers = []
        for entry in proc.iterdir():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue  # not a process, or it just exited
            if marker.encode() in cmdline:
                leftovers.append(entry.name)
        assert leftovers == []


def python_env():
    """The environment for a child interpreter that imports this repro."""
    src = str(Path(supervisor.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_python(*args, **kwargs):
    """Run the interpreter on ``args`` (a script alone means ``-c``)."""
    argv = ["-c", args[0]] if len(args) == 1 else list(args)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=python_env(), timeout=120, **kwargs,
    )


def descriptor_target(pid, fd):
    """What descriptor ``fd`` of process ``pid`` is, e.g. ``socket:[123]``."""
    return os.readlink(f"/proc/{pid}/fd/{fd}")


def descriptor_targets(pid):
    targets = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            targets.add(descriptor_target(pid, fd))
        except OSError:
            pass  # closed since the listing
    return targets


def running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status
