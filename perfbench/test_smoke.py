"""Smoke test of the benchmark itself (not part of the repository's test suite).

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit, that no op failed,
and that the run refuses to start without the program's sources::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metric_lists_match_the_harness() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from harness import END_TO_END, PER_LAYER
    finally:
        del sys.path[:2]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    stem = HERE / "results" / f"{workload}-seed3-trace{trace}"
    report = json.loads(stem.with_suffix(".json").read_text())
    assert report["failed_ratio"] == 0
    assert report["host"]["nproc"] >= 1 and report["inputs"]
    if trace:
        assert (stem.parent / f"{stem.name}.chrome.json").is_file()
        assert "unexplained" in (stem.parent / f"{stem.name}.layers.txt").read_text()


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
