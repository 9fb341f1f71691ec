"""Tests for the worker-side shard protocol (no processes involved).

Everything here runs in-process: ``worker_main`` is driven by a stub
:class:`TaskSource` and handed its plan and operands directly, so the
done-file protocol, the journal-before-done ordering and the fault-spec
plumbing are all exercised without ``multiprocessing``.
"""

import json
import pickle

import pytest

from repro import COOMatrix, SystemConfig, build_at_matrix
from repro.cost.model import CostModel
from repro.engine import build_plan
from repro.engine.shard import (
    ShardConfig,
    assign_shards,
    done_file,
    heartbeat_file,
    worker_main,
)
from repro.engine.shard import _failure_snapshot, _outcome_delta
from repro.errors import IntegrityError, PlanMismatchError
from repro.resilience import FaultPlanSpec, RetryPolicy
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.report import FailureReport, PairOutcome

from ..conftest import heterogeneous_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


@pytest.fixture
def planned(rng):
    at = build(heterogeneous_array(rng, 64, 64))
    plan = build_plan(at, at, config=CONFIG, cost_model=CostModel())
    return at, plan


class TestAssignShards:
    def test_pairs_follow_their_team_node(self, planned):
        _, plan = planned
        shards = assign_shards(plan.pairs, 2)
        assert len(shards) == 2
        placed = {coords for shard in shards for coords in shard}
        assert placed == {(p.ti, p.tj) for p in plan.pairs}
        for pair in plan.pairs:
            assert (pair.ti, pair.tj) in shards[pair.team_node % 2]

    def test_single_worker_gets_everything_in_plan_order(self, planned):
        _, plan = planned
        shards = assign_shards(plan.pairs, 1)
        assert shards == [[(p.ti, p.tj) for p in plan.pairs]]

    def test_assignment_is_deterministic(self, planned):
        _, plan = planned
        assert assign_shards(plan.pairs, 3) == assign_shards(plan.pairs, 3)

    def test_more_workers_than_pairs_leaves_empty_shards(self, planned):
        _, plan = planned
        shards = assign_shards(plan.pairs, len(plan.pairs) + 5)
        assert sum(len(shard) for shard in shards) == len(plan.pairs)

    def test_zero_workers_rejected(self, planned):
        _, plan = planned
        with pytest.raises(ValueError, match="workers must be >= 1"):
            assign_shards(plan.pairs, 0)


class TestRunDirRoundTrip:
    """What a spawned worker receives must survive a pickle round trip."""

    def shard_config(self, tmp_path, **overrides):
        defaults = dict(
            config=CONFIG,
            cost_model=CostModel(),
            resilience=None,
            heartbeat_interval=0.25,
            journal_dir=str(tmp_path / "journal"),
        )
        defaults.update(overrides)
        return ShardConfig(**defaults)

    def test_shard_config_pickles_with_fault_spec(self, tmp_path):
        spec = FaultPlanSpec(
            seed=7,
            kernel_error_rate=0.1,
            worker_crash_pairs=((1, 2),),
            worker_crash_attempts=2,
        )
        config = self.shard_config(
            tmp_path, resilience=RetryPolicy(max_attempts=2), fault_spec=spec
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.fault_spec == spec
        assert clone.resilience.max_attempts == 2
        rebuilt = clone.fault_spec.build()
        assert rebuilt.worker_crash_pairs == ((1, 2),)


class TestFileNaming:
    def test_heartbeat_and_done_files_are_stable(self, tmp_path):
        assert heartbeat_file(tmp_path, 3).name == "hb-003.json"
        assert done_file(tmp_path, (12, 7)).name == "done-00012-00007.json"


class TestOutcomeDelta:
    def test_without_policy_reports_the_one_attempt(self):
        failure = FailureReport()
        before = _failure_snapshot(failure)
        delta = _outcome_delta(failure, before, (0, 0))
        assert delta["attempts"] == 1
        assert delta["failed"] is False
        assert delta["error"] is None

    def test_with_policy_reports_the_accrued_counters(self):
        failure = FailureReport()
        before = _failure_snapshot(failure)
        failure.merge_outcome(
            PairOutcome(pair=(1, 1), attempts=3, retries=2, late=True)
        )
        delta = _outcome_delta(failure, before, (1, 1))
        assert delta["attempts"] == 3
        assert delta["retries"] == 2
        assert delta["late"] is True


class _StubSource:
    """A TaskSource fed from a list (dispatch ends with the sentinel)."""

    def __init__(self, tasks):
        self._tasks = list(tasks) + [None]

    def get(self):
        return self._tasks.pop(0)


class TestWorkerMainInProcess:
    def run_worker(self, tmp_path, planned, coords_list, operand_b=None):
        at, plan = planned
        journal = tmp_path / "journal"
        shard_config = ShardConfig(
            config=CONFIG,
            cost_model=CostModel(),
            resilience=None,
            heartbeat_interval=0.05,
            journal_dir=str(journal),
        )
        supervisor_store = CheckpointStore(journal)
        supervisor_store.begin(plan)
        tasks = [(coords, 1) for coords in coords_list]
        worker_main(
            0, str(tmp_path), _StubSource(tasks), plan, at,
            at if operand_b is None else operand_b, shard_config,
        )
        return plan, supervisor_store

    def test_done_files_and_journal_records_appear(self, tmp_path, planned):
        _, plan = planned
        coords = [(p.ti, p.tj) for p in plan.pairs[:3]]
        plan, store = self.run_worker(tmp_path, planned, coords)
        for pair_coords in coords:
            payload = json.loads(
                done_file(tmp_path, pair_coords).read_text(encoding="utf-8")
            )
            assert payload["failed"] is False
            assert payload["worker"] == 0
            assert payload["dispatch_attempt"] == 1
            assert payload["products"] >= 1
            assert payload["outcome"]["attempts"] == 1
            # Journal-before-done: the result is durable by the time the
            # done file exists, so the supervisor can always adopt it.
            assert store.load_pair(pair_coords) is not None

    def test_heartbeat_file_appears_with_worker_pid(self, tmp_path, planned):
        _, plan = planned
        plan, _ = self.run_worker(
            tmp_path, planned, [(plan.pairs[0].ti, plan.pairs[0].tj)]
        )
        beat = json.loads(
            heartbeat_file(tmp_path, 0).read_text(encoding="utf-8")
        )
        assert beat["worker"] == 0
        assert beat["beat"] >= 1
        assert beat["pid"] > 0

    def test_unjournaled_pair_is_an_integrity_error(self, tmp_path, planned):
        _, plan = planned
        plan, store = self.run_worker(
            tmp_path, planned, [(plan.pairs[0].ti, plan.pairs[0].tj)]
        )
        with pytest.raises(IntegrityError):
            store.load_pair((99, 99))

    def test_mismatched_operands_are_refused(self, tmp_path, planned, rng):
        _, plan = planned
        other = build(rng.uniform(0.1, 1.0, size=(64, 64)))
        with pytest.raises(PlanMismatchError):
            self.run_worker(
                tmp_path, planned, [(plan.pairs[0].ti, plan.pairs[0].tj)],
                operand_b=other,
            )
