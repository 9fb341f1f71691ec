"""Tests for the worker-side shard protocol (no processes involved).

Everything here runs in-process: ``worker_main`` is driven by a stub
:class:`Channel` that feeds it a run message with its plan and operands,
so the heartbeat, done and end-of-run messages and the fault-spec
plumbing are all exercised without ``multiprocessing``.
"""

import pickle
import time

import pytest

from repro import COOMatrix, SystemConfig, build_at_matrix
from repro.cost.model import CostModel
from repro.engine import build_plan
from repro.core.tile import Tile
from repro.engine.shard import ShardConfig, assign_shards, worker_main
from repro.errors import PlanMismatchError
from repro.resilience import FaultPlanSpec, RetryPolicy

from ..conftest import heterogeneous_array

pytestmark = pytest.mark.usefixtures("fresh_shard_workers")

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
    """What every worker receives must survive a pickle round trip."""

    def shard_config(self, **overrides):
        defaults = dict(
            config=CONFIG,
            cost_model=CostModel(),
            resilience=None,
            heartbeat_interval=0.25,
        )
        defaults.update(overrides)
        return ShardConfig(**defaults)

    def test_shard_config_pickles_with_fault_spec(self):
        spec = FaultPlanSpec(
            seed=7,
            kernel_error_rate=0.1,
            worker_crash_pairs=((1, 2),),
            worker_crash_attempts=2,
        )
        config = self.shard_config(
            resilience=RetryPolicy(max_attempts=2), fault_spec=spec
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.fault_spec == spec
        assert clone.resilience.max_attempts == 2
        rebuilt = clone.fault_spec.build()
        assert rebuilt.worker_crash_pairs == ((1, 2),)


class _StubChannel:
    """A Channel fed ``runs`` runs, then shutdown.

    Each run is the run message, the tasks and the ``None`` that ends
    the run; a last ``None`` shuts the worker down.
    """

    def __init__(self, run, tasks, runs=1):
        self._messages = [run, *tasks, None] * runs + [None]
        self.sent = []

    def recv(self):
        return self._messages.pop(0)

    def send(self, message):
        # Pickled like a Pipe would, so only wire-safe messages pass.
        self.sent.append(pickle.loads(pickle.dumps(message)))


class TestWorkerMainInProcess:
    def run_worker(self, planned, coords_list, operand_b=None):
        at, plan = planned
        shard_config = ShardConfig(
            config=CONFIG,
            cost_model=CostModel(),
            resilience=None,
            heartbeat_interval=0.05,
        )
        run = (plan, at, at if operand_b is None else operand_b, shard_config)
        channel = _StubChannel(run, [(coords, 1) for coords in coords_list])
        worker_main(channel)
        return channel.sent

    def test_done_messages_carry_stats_and_tiles(self, planned):
        _, plan = planned
        coords = [(p.ti, p.tj) for p in plan.pairs[:3]]
        done = [m for m in self.run_worker(planned, coords) if m[0] == "done"]
        # One done message per pair, in dispatch order.
        assert [message[1]["pair"] for message in done] == coords
        for _, payload, outcome in done:
            assert payload["error"] is None
            assert payload["dispatch_attempt"] == 1
            assert outcome.stats.products >= 1
            assert outcome.record.attempts == 1
            assert outcome.tile is None or isinstance(outcome.tile, Tile)
        assert any(outcome.tile is not None for _, _, outcome in done)

    def test_heartbeats_are_sent_before_any_result(self, planned):
        _, plan = planned
        sent = self.run_worker(planned, [(plan.pairs[0].ti, plan.pairs[0].tj)])
        assert sent[0] == ("beat", 1)
        beats = [message[1] for message in sent if message[0] == "beat"]
        assert beats == list(range(1, len(beats) + 1))

    def test_runs_end_with_ended_and_beats_restart(self, planned):
        at, plan = planned
        shard_config = ShardConfig(
            config=CONFIG, cost_model=CostModel(), resilience=None,
            heartbeat_interval=0.01,
        )
        run = (plan, at, at, shard_config)
        coords = [(p.ti, p.tj) for p in plan.pairs[:2]]
        channel = _StubChannel(run, [(c, 1) for c in coords], runs=2)
        worker_main(channel)
        ends = [i for i, m in enumerate(channel.sent) if m == ("ended",)]
        assert len(ends) == 2 and ends[-1] == len(channel.sent) - 1
        for first, last in ((0, ends[0]), (ends[0] + 1, ends[1])):
            messages = channel.sent[first:last]
            beats = [m[1] for m in messages if m[0] == "beat"]
            assert messages[0] == ("beat", 1)
            assert beats == list(range(1, len(beats) + 1))
            assert [m[1]["pair"] for m in messages if m[0] == "done"] == coords

    def test_first_run_from_the_arguments_then_the_channel(self, planned):
        at, plan = planned
        shard_config = ShardConfig(
            config=CONFIG, cost_model=CostModel(), resilience=None,
            heartbeat_interval=0.05,
        )
        run = (plan, at, at, shard_config)
        coords = [(p.ti, p.tj) for p in plan.pairs[:2]]
        tasks = [(c, 1) for c in coords]
        # The channel holds the first run's tasks, then a whole second run.
        channel = _StubChannel(run, tasks)
        channel._messages = [*tasks, None, *channel._messages]
        first_run = [run]
        worker_main(channel, first_run)
        assert first_run == []
        assert channel._messages == []
        assert channel.sent.count(("ended",)) == 2
        done = [m[1]["pair"] for m in channel.sent if m[0] == "done"]
        assert done == coords * 2

    def test_mismatched_operands_are_refused(self, planned, rng):
        _, plan = planned
        other = build(rng.uniform(0.1, 1.0, size=(64, 64)))
        with pytest.raises(PlanMismatchError):
            self.run_worker(
                planned, [(plan.pairs[0].ti, plan.pairs[0].tj)],
                operand_b=other,
            )


class _SlowChannel(_StubChannel):
    """A stub channel whose sends take long and count overlaps."""

    def __init__(self, run, tasks):
        super().__init__(run, tasks)
        self.overlaps = 0
        self._sending = False

    def send(self, message):
        if self._sending:
            self.overlaps += 1
        self._sending = True
        # A large message leaves a pipe in several writes; a second
        # sender in between would interleave its bytes with them.
        time.sleep(0.002)
        super().send(message)
        self._sending = False


class TestChannelContention:
    def test_heartbeats_never_overlap_a_done_message(self, planned):
        at, plan = planned
        tasks = [((p.ti, p.tj), 1) for p in plan.pairs] * 10
        shard_config = ShardConfig(
            config=CONFIG, cost_model=CostModel(), resilience=None,
            heartbeat_interval=0.0,
        )
        channel = _SlowChannel((plan, at, at, shard_config), tasks)
        worker_main(channel)
        beats = [message for message in channel.sent if message[0] == "beat"]
        done = [message for message in channel.sent if message[0] == "done"]
        assert len(beats) >= 5
        assert [message[1]["pair"] for message in done] == [c for c, _ in tasks]
        assert channel.overlaps == 0
