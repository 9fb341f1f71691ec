"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro import COOMatrix
from repro.cli import main
from repro.formats.matrix_market import read_matrix_market, write_matrix_market

from .conftest import heterogeneous_array


@pytest.fixture
def mtx_file(tmp_path, rng):
    array = heterogeneous_array(rng, 96, 96)
    path = tmp_path / "input.mtx"
    write_matrix_market(COOMatrix.from_dense(array), path)
    return path, array


class TestInfo:
    def test_prints_statistics(self, mtx_file, capsys):
        path, array = mtx_file
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "96 x 96" in out
        assert f"nnz={np.count_nonzero(array)}" in out
        assert "block density map" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.mtx")]) == 1
        assert "error" in capsys.readouterr().err


class TestPartition:
    def test_reports_tiles(self, mtx_file, capsys):
        path, _ = mtx_file
        assert main(["partition", str(path), "--llc-kib", "8"]) == 0
        out = capsys.readouterr().out
        assert "partitioned into" in out
        assert "tile layout" in out

    def test_custom_b_atomic(self, mtx_file, capsys):
        path, _ = mtx_file
        assert main(["partition", str(path), "--llc-kib", "8", "--b-atomic", "32"]) == 0

    def test_invalid_b_atomic(self, mtx_file, capsys):
        path, _ = mtx_file
        assert main(["partition", str(path), "--b-atomic", "33"]) == 1
        assert "error" in capsys.readouterr().err


class TestMultiply:
    def test_self_product_roundtrip(self, mtx_file, tmp_path, capsys):
        path, array = mtx_file
        out_path = tmp_path / "c.mtx"
        code = main(
            ["multiply", str(path), str(path), "-o", str(out_path),
             "--llc-kib", "8"]
        )
        assert code == 0
        result = read_matrix_market(out_path)
        np.testing.assert_allclose(result.to_dense(), array @ array, atol=1e-8)
        assert "kernels" in capsys.readouterr().out

    def test_memory_limit_flag(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            ["multiply", str(path), str(path), "--llc-kib", "8",
             "--memory-limit-mb", "100"]
        )
        assert code == 0

    def test_fault_injection_with_retries(self, mtx_file, tmp_path, capsys):
        path, array = mtx_file
        out_path = tmp_path / "c.mtx"
        code = main(
            ["multiply", str(path), str(path), "-o", str(out_path),
             "--llc-kib", "8", "--inject-faults", "2", "--max-retries", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "faults injected" in out
        result = read_matrix_market(out_path)
        np.testing.assert_allclose(result.to_dense(), array @ array, atol=1e-8)

    def test_max_retries_without_faults(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            ["multiply", str(path), str(path), "--llc-kib", "8",
             "--max-retries", "2", "--task-deadline", "30"]
        )
        assert code == 0
        assert "resilience:" in capsys.readouterr().out


class TestArgumentValidation:
    """Satellite 2: reject nonsensical numeric arguments up front."""

    def test_negative_memory_limit(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            ["multiply", str(path), str(path), "--memory-limit-mb", "-5"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_read_threshold_above_one(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            ["multiply", str(path), str(path), "--read-threshold", "1.5"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_zero_max_retries(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(["multiply", str(path), str(path), "--max-retries", "0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_non_power_of_two_b_atomic(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(["multiply", str(path), str(path), "--b-atomic", "17"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_task_deadline(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            ["multiply", str(path), str(path), "--task-deadline", "-1"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExecutionFlags:
    def test_thread_backend_runs_and_reports_workers(self, mtx_file, capsys):
        path, array = mtx_file
        assert main(
            ["multiply", str(path), str(path), "--execution", "threads"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution: threads, 2 workers" in out
        assert f"nnz={np.count_nonzero(array @ array)}" in out

    def test_process_backend_runs_supervised(self, mtx_file, capsys):
        path, array = mtx_file
        assert main(
            [
                "multiply", str(path), str(path),
                "--execution", "processes",
                "--workers", "2",
                "--heartbeat-interval", "0.05",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "execution: processes, 2 workers" in out
        assert f"nnz={np.count_nonzero(array @ array)}" in out

    def test_workers_without_execution_rejected(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(["multiply", str(path), str(path), "--workers", "2"])
        assert code == 1
        assert "--workers requires --execution" in capsys.readouterr().err

    def test_zero_workers_rejected(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            [
                "multiply", str(path), str(path),
                "--execution", "threads", "--workers", "0",
            ]
        )
        assert code == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_non_positive_heartbeat_rejected(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            [
                "multiply", str(path), str(path),
                "--execution", "processes", "--heartbeat-interval", "0",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_startup_grace_flag_is_gone(self, mtx_file, capsys):
        path, _ = mtx_file
        with pytest.raises(SystemExit) as caught:
            main(
                [
                    "multiply", str(path), str(path),
                    "--execution", "processes", "--startup-grace", "5",
                ]
            )
        assert caught.value.code == 2
        assert "--startup-grace" in capsys.readouterr().err


class TestCheckpointFlags:
    def test_checkpointed_multiply_writes_journal(self, mtx_file, tmp_path, capsys):
        path, _ = mtx_file
        ckpt = tmp_path / "ckpt"
        code = main(
            ["multiply", str(path), str(path), "--llc-kib", "8",
             "--checkpoint-dir", str(ckpt), "--checkpoint-flush", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        assert "0 pairs resumed" in out
        assert (ckpt / "MANIFEST.json").exists()
        assert list(ckpt.glob("pairs/pair-*.npz"))

    def test_resume_skips_completed_pairs(self, mtx_file, tmp_path, capsys):
        path, _ = mtx_file
        ckpt = tmp_path / "ckpt"
        base = ["multiply", str(path), str(path), "--llc-kib", "8",
                "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out

    def test_resume_requires_checkpoint_dir(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(["multiply", str(path), str(path), "--resume"])
        assert code == 1
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_zero_checkpoint_flush_rejected(self, mtx_file, capsys):
        path, _ = mtx_file
        code = main(
            ["multiply", str(path), str(path), "--checkpoint-flush", "0"]
        )
        assert code == 1
        assert "--checkpoint-flush" in capsys.readouterr().err


class TestVerify:
    @pytest.fixture
    def archive(self, mtx_file, tmp_path):
        from repro import COOMatrix, SystemConfig, build_at_matrix, save_at_matrix

        _, array = mtx_file
        at = build_at_matrix(
            COOMatrix.from_dense(array),
            SystemConfig(llc_bytes=8 * 1024, b_atomic=16),
        )
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        return path

    def test_clean_archive_exits_zero(self, archive, capsys):
        assert main(["verify", str(archive)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_clean_mtx_exits_zero(self, mtx_file, capsys):
        path, _ = mtx_file
        assert main(["verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupt_archive_exits_four(self, archive, capsys):
        archive.write_bytes(b"garbage, not an archive")
        assert main(["verify", str(archive)]) == 4
        captured = capsys.readouterr()
        assert "archive-unreadable" in captured.out
        assert "integrity violation(s) found" in captured.err

    def test_unparsable_mtx_exits_four(self, tmp_path, capsys):
        path = tmp_path / "broken.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1\n")
        assert main(["verify", str(path)]) == 4
        assert "parse-error" in capsys.readouterr().out

    def test_mixed_targets_report_each(self, archive, mtx_file, capsys):
        path, _ = mtx_file
        assert main(["verify", str(archive), str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.npz")]) == 1
        assert "error" in capsys.readouterr().err


class TestKeyboardInterrupt:
    def test_interrupt_exits_130_with_one_line(self, mtx_file, capsys, monkeypatch):
        path, _ = mtx_file
        from repro import cli

        monkeypatch.setattr(
            cli, "cmd_multiply", lambda args: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        code = main(["multiply", str(path), str(path)])
        assert code == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"

    def test_interrupt_mentions_checkpoint_dir(
        self, mtx_file, tmp_path, capsys, monkeypatch
    ):
        path, _ = mtx_file
        from repro import cli

        monkeypatch.setattr(
            cli, "cmd_multiply", lambda args: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        ckpt = tmp_path / "ckpt"
        code = main(
            ["multiply", str(path), str(path), "--checkpoint-dir", str(ckpt)]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert "--resume" in err


class TestAdvise:
    def test_prints_recommendation(self, mtx_file, capsys):
        path, _ = mtx_file
        assert main(["advise", str(path), "--llc-kib", "8"]) == 0
        out = capsys.readouterr().out
        assert "topology class" in out
        assert "partition into AT Matrix" in out


class TestGenerate:
    def test_emits_suite_matrix(self, tmp_path, capsys):
        out_path = tmp_path / "r7.mtx"
        assert main(["generate", "R7", "-o", str(out_path)]) == 0
        matrix = read_matrix_market(out_path)
        assert matrix.nnz > 0

    def test_unknown_key(self, tmp_path, capsys):
        assert main(["generate", "R99", "-o", str(tmp_path / "x.mtx")]) == 2
        assert "unknown suite key" in capsys.readouterr().err


class TestSolve:
    @pytest.fixture
    def spd_mtx(self, tmp_path):
        n = 32
        array = np.eye(n) * 4.0
        for i in range(n - 1):
            array[i, i + 1] = array[i + 1, i] = -1.0
        path = tmp_path / "spd.mtx"
        write_matrix_market(COOMatrix.from_dense(array), path)
        return path, array

    def test_cg_converges(self, spd_mtx, tmp_path, capsys):
        path, array = spd_mtx
        out_path = tmp_path / "x.mtx"
        code = main(
            ["solve", str(path), "--llc-kib", "8", "-o", str(out_path)]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out
        solution = read_matrix_market(out_path).to_dense().ravel()
        np.testing.assert_allclose(array @ solution, np.ones(32), atol=1e-6)

    def test_jacobi_method(self, spd_mtx, capsys):
        path, _ = spd_mtx
        assert main(["solve", str(path), "--method", "jacobi", "--llc-kib", "8"]) == 0

    def test_nonconvergence_exit_code(self, spd_mtx, capsys):
        path, _ = spd_mtx
        code = main(
            ["solve", str(path), "--llc-kib", "8", "--max-iterations", "1",
             "--tolerance", "1e-300"]
        )
        assert code == 3
        assert "NOT converged" in capsys.readouterr().out


class TestCalibrate:
    def test_prints_coefficients(self, capsys):
        assert main(["calibrate", "--size", "32", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "dense_flop" in out
        assert "sparse_expand" in out
