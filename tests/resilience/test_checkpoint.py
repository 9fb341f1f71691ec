"""Tests for the crash-safe checkpoint journal (resilience/checkpoint.py)."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CheckpointStore,
    COOMatrix,
    MultiplyOptions,
    PlanMismatchError,
    atmult,
    M,
    build_at_matrix,
    multiply_chain,
    parallel_atmult,
    plan,
)
from repro.errors import ConfigError, IntegrityError
from repro.solve import conjugate_gradient
from repro.topology.system import SystemTopology

from ..conftest import heterogeneous_array


@pytest.fixture
def workload(rng, small_config):
    a = heterogeneous_array(rng, 96, 72, background=0.06)
    b = heterogeneous_array(rng, 72, 88, background=0.06)
    at_a = build_at_matrix(COOMatrix.from_dense(a), small_config)
    at_b = build_at_matrix(COOMatrix.from_dense(b), small_config)
    return a, b, at_a, at_b


def run(at_a, at_b, config, directory, *, resume=False, flush=1):
    store = CheckpointStore(directory, resume=resume)
    options = MultiplyOptions(checkpoint=store, checkpoint_flush_pairs=flush)
    result, report = atmult(at_a, at_b, config=config, options=options)
    return result, report, store


def pair_records(directory) -> list[Path]:
    return sorted(Path(directory).glob("pairs/pair-*.npz"))


class TestJournalLifecycle:
    def test_fresh_run_journals_every_pair(self, workload, small_config, tmp_path):
        a, b, at_a, at_b = workload
        result, report, store = run(at_a, at_b, small_config, tmp_path)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert report.pairs_executed > 0
        assert report.failure.pairs_resumed == 0
        assert (tmp_path / "MANIFEST.json").exists()
        assert len(pair_records(tmp_path)) == report.pairs_executed
        assert store.records_written == report.pairs_executed
        assert report.checkpoint_flushes == store.flushes > 0

    def test_resume_reexecutes_nothing(self, workload, small_config, tmp_path):
        a, b, at_a, at_b = workload
        first, first_report, _ = run(at_a, at_b, small_config, tmp_path)
        second, second_report, _ = run(
            at_a, at_b, small_config, tmp_path, resume=True
        )
        assert second_report.pairs_executed == 0
        assert second_report.failure.pairs_resumed == first_report.pairs_executed
        assert np.array_equal(second.to_dense(), first.to_dense())
        assert "resumed" in second_report.failure.summary()

    def test_resume_after_partial_journal(self, workload, small_config, tmp_path):
        a, b, at_a, at_b = workload
        reference, full_report, _ = run(at_a, at_b, small_config, tmp_path)
        # Simulate a crash that lost the last three flushed records.
        survivors = pair_records(tmp_path)
        for record in survivors[-3:]:
            record.unlink()
        resumed, report, _ = run(at_a, at_b, small_config, tmp_path, resume=True)
        assert report.pairs_executed == 3
        assert report.failure.pairs_resumed == full_report.pairs_executed - 3
        assert np.array_equal(resumed.to_dense(), reference.to_dense())

    def test_flush_interval_batches_records(self, workload, small_config, tmp_path):
        _, _, at_a, at_b = workload
        _, report, store = run(at_a, at_b, small_config, tmp_path, flush=4)
        total = report.pairs_executed
        assert store.records_written == total
        # One flush per full batch plus at most one final drain.
        assert store.flushes <= total // 4 + 1
        assert len(pair_records(tmp_path)) == total

    def test_fresh_run_clears_stale_journal(self, workload, small_config, tmp_path):
        _, _, at_a, at_b = workload
        _, first_report, _ = run(at_a, at_b, small_config, tmp_path)
        _, second_report, _ = run(at_a, at_b, small_config, tmp_path, resume=False)
        # Without --resume the journal is rebuilt, never trusted.
        assert second_report.pairs_executed == first_report.pairs_executed
        assert second_report.failure.pairs_resumed == 0
        assert len(pair_records(tmp_path)) == second_report.pairs_executed


def member_compression(record: Path) -> set[int]:
    with zipfile.ZipFile(record) as archive:
        return {info.compress_type for info in archive.infolist()}


class TestRecordFormat:
    def test_records_are_written_uncompressed(self, workload, small_config, tmp_path):
        _, _, at_a, at_b = workload
        run(at_a, at_b, small_config, tmp_path)
        for record in pair_records(tmp_path):
            assert member_compression(record) == {zipfile.ZIP_STORED}

    def test_compressed_journal_from_older_versions_resumes(
        self, workload, small_config, tmp_path
    ):
        _, _, at_a, at_b = workload
        reference, first_report, _ = run(at_a, at_b, small_config, tmp_path)
        # Rewrite every record the way older versions wrote them.
        for record in pair_records(tmp_path):
            with np.load(record, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            np.savez_compressed(record, **arrays)
            assert member_compression(record) == {zipfile.ZIP_DEFLATED}
        resumed, report, _ = run(at_a, at_b, small_config, tmp_path, resume=True)
        assert report.pairs_executed == 0
        assert report.failure.pairs_resumed == first_report.pairs_executed
        assert np.array_equal(resumed.to_dense(), reference.to_dense())


class TestJournalValidation:
    def test_plan_mismatch_raises(self, workload, rng, small_config, tmp_path):
        _, _, at_a, at_b = workload
        run(at_a, at_b, small_config, tmp_path)
        other = build_at_matrix(
            COOMatrix.from_dense(heterogeneous_array(rng, 72, 88, background=0.2)),
            small_config,
        )
        with pytest.raises(PlanMismatchError, match="different plan"):
            run(at_a, other, small_config, tmp_path, resume=True)

    def test_tampered_record_fails_its_crc(self, workload, small_config, tmp_path):
        _, _, at_a, at_b = workload
        run(at_a, at_b, small_config, tmp_path)
        target = next(
            record
            for record in pair_records(tmp_path)
            if self._tamper_payload(record)
        )
        assert target is not None
        with pytest.raises(IntegrityError, match="CRC-32C"):
            run(at_a, at_b, small_config, tmp_path, resume=True)

    @staticmethod
    def _tamper_payload(record: Path) -> bool:
        """Flip one payload value while keeping the archive readable."""
        with np.load(record, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        for name, array in arrays.items():
            if name != "meta" and array.size:
                tampered = array.copy()
                tampered.ravel()[0] += 1
                arrays[name] = tampered
                np.savez_compressed(record, **arrays)
                return True
        return False

    def test_unreadable_record_raises(self, workload, small_config, tmp_path):
        _, _, at_a, at_b = workload
        run(at_a, at_b, small_config, tmp_path)
        pair_records(tmp_path)[0].write_bytes(b"not a zip archive")
        with pytest.raises(IntegrityError, match="unreadable"):
            run(at_a, at_b, small_config, tmp_path, resume=True)

    def test_garbage_manifest_raises(self, workload, small_config, tmp_path):
        _, _, at_a, at_b = workload
        run(at_a, at_b, small_config, tmp_path)
        (tmp_path / "MANIFEST.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(IntegrityError, match="manifest"):
            run(at_a, at_b, small_config, tmp_path, resume=True)

    def test_unsupported_manifest_version_raises(
        self, workload, small_config, tmp_path
    ):
        _, _, at_a, at_b = workload
        run(at_a, at_b, small_config, tmp_path)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IntegrityError, match="unsupported layout"):
            run(at_a, at_b, small_config, tmp_path, resume=True)


class TestParallelCheckpoint:
    def test_parallel_run_resumes_bit_identical(
        self, workload, small_config, tmp_path
    ):
        a, b, at_a, at_b = workload
        topology = SystemTopology(sockets=2, cores_per_socket=1)
        store = CheckpointStore(tmp_path)
        options = MultiplyOptions(checkpoint=store, checkpoint_flush_pairs=2)
        first, first_report = parallel_atmult(
            at_a, at_b, topology=topology, config=small_config, options=options
        )
        np.testing.assert_allclose(first.to_dense(), a @ b, atol=1e-10)
        assert store.records_written == first_report.pairs_executed > 0

        resume_store = CheckpointStore(tmp_path, resume=True)
        resume_options = MultiplyOptions(checkpoint=resume_store)
        second, second_report = parallel_atmult(
            at_a,
            at_b,
            topology=topology,
            config=small_config,
            options=resume_options,
        )
        assert second_report.pairs_executed == 0
        assert second_report.failure.pairs_resumed == first_report.pairs_executed
        assert np.array_equal(second.to_dense(), first.to_dense())

    def test_parallel_run_resumes_partial_journal_in_pair_order(
        self, workload, small_config, tmp_path
    ):
        _, _, at_a, at_b = workload
        options = MultiplyOptions(config=small_config)
        pairs = plan(at_a, at_b, options=options).pairs
        sequential, _ = atmult(at_a, at_b, options=options)
        run(at_a, at_b, small_config, tmp_path)
        # Lose the journal records of the first pairs, so the resumed
        # pairs are not a prefix of the plan's pair order.
        for pair in pairs[:3]:
            (tmp_path / "pairs" / f"pair-{pair.ti:05d}-{pair.tj:05d}.npz").unlink()

        resumed, report = parallel_atmult(
            at_a,
            at_b,
            topology=SystemTopology(sockets=2, cores_per_socket=1),
            options=options.replace(
                checkpoint=CheckpointStore(tmp_path, resume=True)
            ),
        )
        assert np.array_equal(resumed.to_dense(), sequential.to_dense())
        assert report.pairs_executed == 3
        assert report.failure.pairs_resumed + report.pairs_executed == len(pairs)
        assert [(t.row0, t.col0) for t in resumed.tiles] == [
            (t.row0, t.col0) for t in sequential.tiles
        ]


class TestCheckpointIsPerProduct:
    """A journal holds one product under one plan: many-product calls refuse it."""

    def test_chain_refuses_a_checkpoint(self, workload, small_config, tmp_path):
        a, b, at_a, at_b = workload
        at_c = build_at_matrix(COOMatrix.from_dense(b.T.copy()), small_config)
        options = MultiplyOptions(
            config=small_config, checkpoint=CheckpointStore(tmp_path, resume=True)
        )
        with pytest.raises(ConfigError, match="Session.multiply"):
            multiply_chain([at_a, at_b, at_c], options=options)
        with pytest.raises(ConfigError, match="--checkpoint-dir"):
            (M(at_a) @ M(at_b) @ M(at_c)).evaluate(options=options)
        assert not (tmp_path / "MANIFEST.json").exists()

    def test_solver_refuses_a_checkpoint(self, rng, small_config, tmp_path):
        n = 64
        mask = rng.random((n, n)) < 0.05
        base = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
        spd = (base + base.T) / 2.0
        np.fill_diagonal(spd, spd.sum(axis=1) + 1.0)
        matrix = build_at_matrix(COOMatrix.from_dense(spd), small_config)
        options = MultiplyOptions(
            config=small_config, checkpoint=CheckpointStore(tmp_path, resume=True)
        )
        with pytest.raises(ConfigError, match="Session.multiply"):
            conjugate_gradient(matrix, rng.random(n), options=options)
        assert not (tmp_path / "MANIFEST.json").exists()
