"""BaseReport: canonical phase dict, subclass shapes, keyword parity."""

from __future__ import annotations

import inspect
import json

import pytest

from repro import BaseReport, MultiplyReport, ParallelReport, atmult
from repro.core.parallel import parallel_atmult

#: keywords the API-alignment redesign guarantees on every multiply entry point
ALIGNED_KEYWORDS = {"options", "config", "cost_model", "plan_cache"}


class TestBaseReport:
    def test_phase_accumulation_and_total(self):
        report = BaseReport()
        report.add_phase("estimate", 1.0)
        report.add_phase("estimate", 0.5)
        report.add_phase("multiply", 2.5)
        assert report.phase("estimate") == pytest.approx(1.5)
        assert report.phase("missing") == 0.0
        assert report.total_seconds == pytest.approx(4.0)
        assert report.phase_fraction("multiply") == pytest.approx(2.5 / 4.0)

    def test_empty_report_fractions_are_zero(self):
        report = BaseReport()
        assert report.total_seconds == 0.0
        assert report.phase_fraction("estimate") == 0.0
        assert report.estimate_fraction == 0.0

    def test_kernel_count_merge(self):
        report = BaseReport()
        report.count_kernel("ddd_gemm")
        report.merge_kernel_counts({"ddd_gemm": 2, "spspsp_gemm": 1})
        assert report.kernel_counts == {"ddd_gemm": 3, "spspsp_gemm": 1}

    def test_as_dict_is_json_serializable(self):
        report = BaseReport()
        report.add_phase("estimate", 0.1)
        report.count_kernel("ddd_gemm")
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["phase_seconds"] == {"estimate": pytest.approx(0.1)}
        assert payload["kernel_counts"] == {"ddd_gemm": 1}
        assert payload["observed"] is False


class TestParallelEfficiency:
    def test_parallel_efficiency_over_pair_loop_wall(self):
        report = ParallelReport(workers=2)
        report.add_phase("multiply", 4.0)
        report.worker_busy_seconds = {"team0-0": 3.0, "team1-0": 3.0}
        assert report.parallel_efficiency == pytest.approx(6.0 / 8.0)

    def test_parallel_efficiency_defaults_to_one(self):
        assert ParallelReport().parallel_efficiency == 1.0


class TestSubclassShapes:
    def test_multiply_report_extends_base(self):
        report = MultiplyReport(write_threshold=0.5)
        assert isinstance(report, BaseReport)
        payload = report.as_dict()
        assert payload["write_threshold"] == 0.5
        assert payload["tasks"] == 0

    def test_parallel_report_extends_base(self):
        report = ParallelReport(pairs=4, products=8, workers=2)
        assert isinstance(report, BaseReport)
        payload = report.as_dict()
        assert payload["pairs"] == 4
        assert payload["products"] == 8
        assert payload["workers"] == 2
        assert payload["parallel_efficiency"] == 1.0


class TestKeywordParity:
    """The redesign aligns keyword surfaces across the multiply entry points."""

    def test_atmult_and_parallel_share_aligned_keywords(self):
        atmult_kwargs = set(inspect.signature(atmult).parameters)
        parallel_kwargs = set(inspect.signature(parallel_atmult).parameters)
        assert ALIGNED_KEYWORDS <= atmult_kwargs
        assert ALIGNED_KEYWORDS <= parallel_kwargs
        # documented intentional divergence: only atmult seeds C, only
        # parallel_atmult takes a topology
        assert "c" in atmult_kwargs and "c" not in parallel_kwargs
        assert "topology" in parallel_kwargs and "topology" not in atmult_kwargs
