"""Tests for RetryPolicy and the resilient pair runner."""

import time

import pytest

from repro.errors import (
    ConfigError,
    MemoryLimitError,
    ResultCorruptionError,
    RetryExhaustedError,
)
from repro.resilience.report import FailureReport
from repro.resilience.retry import ResilientPairRunner, RetryPolicy


def make_runner(policy):
    """A runner whose returned (and raised) outcomes merge into ``report``."""
    report = FailureReport()
    sleeps = []
    runner = ResilientPairRunner(policy, sleep=sleeps.append)

    class MergingRunner:
        def run(self, *args, **kwargs):
            try:
                result, outcome = runner.run(*args, **kwargs)
            except RetryExhaustedError as error:
                report.merge_outcome(error.outcome)
                raise
            report.merge_outcome(outcome)
            return result

    return MergingRunner(), report, sleeps


class TestRetryPolicyValidation:
    def test_defaults_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_seconds": -1.0},
            {"backoff_factor": 0.5},
            {"backoff_max_seconds": -0.1},
            {"jitter_fraction": 1.5},
            {"task_deadline_seconds": 0.0},
            {"max_degradations": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_deterministic(self):
        policy = RetryPolicy(backoff_base_seconds=0.01)
        assert policy.backoff_seconds((0, 1), 2) == policy.backoff_seconds((0, 1), 2)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.01,
            backoff_factor=2.0,
            backoff_max_seconds=0.05,
            jitter_fraction=0.0,
        )
        assert policy.backoff_seconds((0, 0), 1) == pytest.approx(0.01)
        assert policy.backoff_seconds((0, 0), 2) == pytest.approx(0.02)
        assert policy.backoff_seconds((0, 0), 5) == pytest.approx(0.05)  # capped

    def test_jitter_shrinks_only(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.01, jitter_fraction=0.5, backoff_factor=1.0
        )
        for attempt in range(1, 10):
            delay = policy.backoff_seconds((1, 2), attempt)
            assert 0.005 <= delay <= 0.01

    def test_zero_base_no_sleep(self):
        policy = RetryPolicy(backoff_base_seconds=0.0)
        assert policy.backoff_seconds((0, 0), 1) == 0.0


class TestRunner:
    def test_success_first_attempt(self):
        runner, report, sleeps = make_runner(RetryPolicy())
        assert runner.run((0, 0), lambda fs: "ok") == "ok"
        assert report.attempts == 1
        assert report.clean
        assert not sleeps

    def test_transient_failures_recovered(self):
        runner, report, sleeps = make_runner(
            RetryPolicy(max_attempts=3, backoff_base_seconds=0.01)
        )
        calls = []

        def compute(force_sparse):
            calls.append(force_sparse)
            if len(calls) < 3:
                raise RuntimeError("flaky")
            return "recovered"

        assert runner.run((1, 2), compute) == "recovered"
        assert report.retries == 2
        assert report.failures == 0
        assert len(sleeps) == 2
        assert report.pair_outcomes[(1, 2)].retries == 2

    def test_exhaustion_raises_with_pair(self):
        runner, report, _ = make_runner(
            RetryPolicy(max_attempts=3, backoff_base_seconds=0.0)
        )

        def compute(force_sparse):
            raise RuntimeError("always broken")

        with pytest.raises(RetryExhaustedError) as excinfo:
            runner.run((4, 7), compute)
        error = excinfo.value
        assert error.pair == (4, 7)
        assert error.attempts == 3
        assert isinstance(error.last_error, RuntimeError)
        assert report.failures == 1
        assert report.retries == 2
        assert report.pair_outcomes[(4, 7)].failed

    def test_memory_pressure_degrades_to_sparse(self):
        runner, report, _ = make_runner(RetryPolicy())
        seen = []

        def compute(force_sparse):
            seen.append(force_sparse)
            if len(seen) == 1:
                raise MemoryLimitError("spike")
            return "sparse result"

        assert runner.run((0, 0), compute) == "sparse result"
        assert seen == [False, True]
        assert report.degradations == 1
        assert report.retries == 0  # degradations do not consume retry budget

    def test_degradation_budget_exhausted(self):
        runner, report, _ = make_runner(RetryPolicy(max_degradations=2))

        def compute(force_sparse):
            raise MemoryLimitError("persistent pressure")

        with pytest.raises(RetryExhaustedError):
            runner.run((0, 1), compute)
        assert report.degradations == 2
        assert report.failures == 1

    def test_deadline_violation_retries_then_accepts_late(self):
        runner, report, _ = make_runner(
            RetryPolicy(
                max_attempts=3,
                task_deadline_seconds=0.005,
                backoff_base_seconds=0.0,
            )
        )
        calls = []

        def compute(force_sparse):
            calls.append(1)
            time.sleep(0.02)
            return "slow"

        assert runner.run((0, 0), compute) == "slow"
        assert len(calls) == 3
        assert report.deadline_violations == 2
        outcome = report.pair_outcomes[(0, 0)]
        assert outcome.late

    def test_guard_violation_triggers_fallback(self):
        runner, report, _ = make_runner(RetryPolicy())

        def validate(result):
            if result != "reference":
                raise ResultCorruptionError("corrupt", reason="non-finite")

        result = runner.run(
            (0, 0),
            lambda fs: "vectorized",
            validate=validate,
            fallback=lambda fs: "reference",
        )
        assert result == "reference"
        assert report.fallbacks == 1

    def test_validation_disabled_by_policy(self):
        runner, report, _ = make_runner(RetryPolicy(validate_results=False))

        def validate(result):
            raise AssertionError("must not be called")

        assert runner.run((0, 0), lambda fs: "x", validate=validate) == "x"
        assert report.fallbacks == 0
