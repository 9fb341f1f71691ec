"""Tests for the supervised multiprocess shard executor (clean paths).

Worker-kill recovery, quarantine and fault-injection parity live in
``tests/integration/test_worker_kill.py``; this module covers the
happy-path contract: bit-identical results, report population,
checkpoint cadence and resume, and what a run leaves behind.
"""

import multiprocessing
import os
import shutil
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
import repro.formats.serialize as serialize
import repro.resilience.supervisor as supervisor
from repro import COOMatrix, SystemConfig, SystemTopology, atmult, build_at_matrix
from repro.core.parallel import parallel_atmult
from repro.engine import MultiplyOptions
from repro.errors import TaskFailedError
from repro.resilience import FaultPlan, RetryPolicy, inject_faults
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.report import WorkerRecord

from ..conftest import heterogeneous_array

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
        # limit the self-product degrades once mid-run.
        rng = np.random.default_rng(3)
        a = np.zeros((256, 256))
        for _ in range(4):
            i, j = rng.integers(0, 256 - 64, 2)
            a[i : i + 64, j : j + 64] = rng.random((64, 64))
        mask = rng.random(a.shape) < 0.02
        a[mask] = rng.random(mask.sum())
        return build_at_matrix(COOMatrix.from_dense(a), PRESSURE_CONFIG)

    @staticmethod
    def pressured_options(**overrides):
        return process_options(
            config=PRESSURE_CONFIG, workers=1, memory_limit_bytes=520_000,
            resilience=RetryPolicy(), **overrides,
        )

    def test_one_worker_degrades_where_threads_do(self):
        at = self.pressured_operand()
        runs = {
            "sequential": atmult(at, at, options=self.pressured_options()),
        }
        for execution in ("threads", "processes"):
            runs[execution] = parallel_atmult(
                at, at, topology=TOPOLOGY,
                options=self.pressured_options(execution=execution),
            )
        sequential, _ = runs["sequential"]
        for execution, (result, report) in runs.items():
            assert report.failure.degradations == 1, execution
            assert [tile.kind for tile in result.tiles] == [
                tile.kind for tile in sequential.tiles
            ], execution
            assert result.memory_bytes() == sequential.memory_bytes(), execution
            assert (
                result.to_dense().tobytes() == sequential.to_dense().tobytes()
            ), execution

    def test_resumed_process_run_degrades_where_threads_do(self, tmp_path):
        at = self.pressured_operand()
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
        degradations = {}
        for execution in ("threads", "processes"):
            # Each resume gets its own copy of the half journal.
            copy = tmp_path / execution
            shutil.copytree(journal, copy)
            _, report = parallel_atmult(
                at, at, topology=TOPOLOGY,
                options=self.pressured_options(
                    execution=execution,
                    checkpoint=CheckpointStore(copy, resume=True),
                ),
            )
            assert report.failure.pairs_resumed == len(records) // 2
            degradations[execution] = report.failure.degradations
        assert degradations["threads"] >= 1
        assert degradations["processes"] == degradations["threads"]


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
    """Workers get the plan and operands as process arguments, not files."""

    def test_spawned_worker_unpickles_its_arguments(self, rng, monkeypatch):
        # The only run of the pickled-arguments path: fork platforms
        # never reach it otherwise.
        monkeypatch.setattr(
            supervisor, "_make_context", lambda: multiprocessing.get_context("spawn")
        )
        at = build(heterogeneous_array(rng, 48, 48))
        sequential, _ = atmult(at, at, config=CONFIG)
        spawned, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=1)
        )
        np.testing.assert_array_equal(spawned.to_dense(), sequential.to_dense())
        assert report.pairs_executed == report.pairs > 0

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
        real_supervise = supervisor._supervise

        def listing_supervise(*args):
            adopted = real_supervise(*args)
            run_files.extend(tmp_path.rglob("*"))
            return adopted

        monkeypatch.setattr(supervisor, "_supervise", listing_supervise)
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
            result, _ = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
            np.testing.assert_array_equal(
                result.to_dense(), sequential.to_dense()
            )

        run()  # warm-up: lazy imports may open descriptors once
        fds = len(os.listdir(fd_dir))
        threads = threading.active_count()
        monkeypatch.setattr(tempfile, "mkdtemp", spying_mkdtemp)
        for _ in range(5):
            run()
        assert len(os.listdir(fd_dir)) == fds
        assert threading.active_count() == threads
        assert made == []


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
        src = str(Path(supervisor.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("ok ")
