"""Integration tests: killing supervised workers mid-multiply.

The headline robustness claim of the supervised executor: a worker
SIGKILLed mid-run costs nothing but time — the supervisor detects the
death, reassigns the unfinished pairs, and the final matrix is
bit-identical to an unfaulted run.  A pair that keeps killing its
hosts is quarantined instead of looping forever.
"""

import numpy as np
import pytest

from repro import COOMatrix, SystemConfig, SystemTopology, build_at_matrix
from repro.core.parallel import parallel_atmult
from repro.engine import MultiplyOptions
from repro.errors import TaskFailedError
from repro.resilience import FaultPlan, RetryPolicy, inject_faults

from ..conftest import heterogeneous_array

pytestmark = pytest.mark.usefixtures("fresh_shard_workers")

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
TOPOLOGY = SystemTopology(sockets=2, cores_per_socket=2)


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


def process_options(**overrides):
    defaults = dict(
        config=CONFIG, execution="processes", heartbeat_interval_seconds=0.05
    )
    defaults.update(overrides)
    return MultiplyOptions(**defaults)


def first_pair_coords(at):
    # Every plan for a self-product includes the (0, 0) pair; killing
    # its host exercises reassignment on a pair that definitely runs.
    return (0, 0)


class TestWorkerKillRecovery:
    def test_sigkilled_worker_is_bit_identical_to_clean_run(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        clean, _ = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        crash = FaultPlan(
            0, worker_crash_pairs=(first_pair_coords(at),),
            worker_crash_attempts=1,
        )
        with inject_faults(crash):
            survived, report = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
        np.testing.assert_array_equal(survived.to_dense(), clean.to_dense())
        failure = report.failure
        assert failure.worker_deaths >= 1
        assert failure.pairs_reassigned >= 1
        assert failure.pairs_quarantined == 0
        assert not failure.clean
        assert "worker deaths" in failure.summary()
        assert any(record.died for record in failure.workers.values())

    def test_repeat_killer_pair_is_quarantined(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        coords = first_pair_coords(at)
        # The pair kills *every* host it is dispatched to; after two
        # murdered workers the supervisor quarantines it instead of
        # feeding it a third.
        crash = FaultPlan(
            0, worker_crash_pairs=(coords,), worker_crash_attempts=99
        )
        with inject_faults(crash):
            with pytest.raises(TaskFailedError, match=r"\(0, 0\)"):
                parallel_atmult(
                    at, at, topology=TOPOLOGY, options=process_options()
                )


class TestFaultInjectionParity:
    def test_seeded_kernel_faults_reproduce_across_backends(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        policy = RetryPolicy(max_attempts=8)

        def run(execution, resilience=policy, **rates):
            plan = FaultPlan(3, **rates)
            with inject_faults(plan):
                result, report = parallel_atmult(
                    at, at, topology=TOPOLOGY,
                    options=process_options(
                        execution=execution, resilience=resilience
                    ),
                )
            return result, report, plan

        rates = dict(kernel_error_rate=0.2, corruption_rate=0.1)
        threaded, thread_report, thread_plan = run("threads", **rates)
        supervised, process_report, process_plan = run("processes", **rates)
        np.testing.assert_array_equal(
            supervised.to_dense(), threaded.to_dense()
        )
        # Fault decisions hash (seed, site, task, attempt): the same
        # pairs fail on the same attempts regardless of which process
        # hosts them, so the event totals agree exactly.
        assert process_plan.injected == thread_plan.injected
        assert process_plan.injected > 0
        assert (
            process_report.failure.retries == thread_report.failure.retries
        )
        assert process_report.failure.retries > 0
        assert process_report.failure.fallbacks > 0
        # Every counter, every per-pair outcome and the pair statistics
        # agree too: both backends finish pairs through one step.
        for counter in (
            "attempts", "retries", "degradations", "deadline_violations",
            "fallbacks", "failures",
        ):
            assert getattr(process_report.failure, counter) == getattr(
                thread_report.failure, counter
            ), counter
        assert (
            process_report.failure.pair_outcomes
            == thread_report.failure.pair_outcomes
        )
        assert process_report.pairs_executed == thread_report.pairs_executed
        assert process_report.products == thread_report.products
        # Without a policy each pair counts the one attempt that ran.
        for execution in ("threads", "processes"):
            _, report, _ = run(execution, resilience=None)
            assert report.failure.attempts == report.pairs
