"""Fused chain plans: parity, caching and scheduling."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import (
    COOMatrix,
    DenseMatrix,
    FaultPlan,
    FusedChainPlan,
    MultiplyOptions,
    PlanCache,
    RetryPolicy,
    Session,
    SystemConfig,
    atmult,
    build_at_matrix,
    build_chain_plan,
    inject_faults,
    multiply_chain,
    plan_chain,
)
from repro.core.chain import ChainReport
from repro.core.operands import operand_density_map
from repro.engine.cache import ChainKey
from repro.engine.executor import execute_fused_chain
from repro.errors import PlanMismatchError, ShapeError

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
OPTIONS = MultiplyOptions(config=CONFIG)


def build(array: np.ndarray):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


def sparse_chain(rng: np.random.Generator, dims: list[int], density: float = 0.15):
    """AT Matrix operands for a random all-sparse chain over ``dims``."""
    return [
        build(
            np.where(
                rng.random((rows, cols)) < density,
                rng.random((rows, cols)),
                0.0,
            )
        )
        for rows, cols in zip(dims, dims[1:], strict=False)
    ]


def dense_reference(operands) -> np.ndarray:
    result = operands[0].to_dense()
    for operand in operands[1:]:
        result = result @ operand.to_dense()
    return result


class TestFusedParity:
    """Fused replays must be bit-identical to cache-less cold chain runs."""

    @pytest.mark.parametrize("dims", [[48, 32, 40], [64, 48, 80, 32, 40]])
    def test_all_sparse_chain_parity(self, rng, dims):
        operands = sparse_chain(rng, dims)
        baseline, baseline_report = multiply_chain(list(operands), options=OPTIONS)
        assert not baseline_report.fused  # no cache: a cold run

        session = Session(config=CONFIG)
        cold, cold_report = session.multiply_chain(list(operands))
        warm, warm_report = session.multiply_chain(list(operands))
        assert not cold_report.plan_cache_hit
        assert warm_report.fused and warm_report.plan_cache_hit
        assert baseline_report.plan.order == cold_report.plan.order == warm_report.plan.order
        assert np.array_equal(baseline.to_dense(), cold.to_dense())
        assert np.array_equal(baseline.to_dense(), warm.to_dense())
        np.testing.assert_allclose(
            warm.to_dense(), dense_reference(operands), atol=1e-10
        )

    def test_mixed_dense_sparse_chain_parity(self, rng):
        sparse_a, sparse_b = sparse_chain(rng, [48, 64, 32])
        dense_c = DenseMatrix(rng.random((32, 24)))
        operands = [sparse_a, sparse_b, dense_c]
        baseline, _ = multiply_chain(list(operands), options=OPTIONS)

        session = Session(config=CONFIG)
        cold, _ = session.multiply_chain(list(operands))
        warm, warm_report = session.multiply_chain(list(operands))
        assert warm_report.fused and warm_report.plan_cache_hit
        assert np.array_equal(baseline.to_dense(), cold.to_dense())
        assert np.array_equal(baseline.to_dense(), warm.to_dense())

    def test_random_chains_parity(self, rng):
        for _ in range(5):
            length = int(rng.integers(2, 5))
            dims = [int(d) for d in rng.integers(2, 6, size=length + 1) * 16]
            operands = sparse_chain(rng, dims, density=0.2)
            baseline, _ = multiply_chain(list(operands), options=OPTIONS)
            session = Session(config=CONFIG)
            session.multiply_chain(list(operands))
            warm, warm_report = session.multiply_chain(list(operands))
            assert warm_report.plan_cache_hit
            assert np.array_equal(baseline.to_dense(), warm.to_dense())


def per_hop_reference(operands, order, options):
    """The chain as one ``atmult`` per hop of ``order``.

    An independent baseline: it shares the planner and the kernels with
    the chain path but none of the chain code, so fused and cold chain
    runs are checked against something that is not themselves.
    """
    results = {(i, i): operand for i, operand in enumerate(operands)}
    for i, k, j in order:
        results[(i, j)], _ = atmult(
            results[(i, k)], results[(k + 1, j)], options=options
        )
    return results[(0, len(operands) - 1)]


def demotion_chain():
    """``B @ I`` runs first and overshoots its estimate, so a 13.5 kB
    memory limit demotes one of its dense tiles (the stripe outer
    products are underestimated by density propagation)."""
    rng = np.random.default_rng(0)
    n = 48
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for j in range(2):
        a[:24, j] = np.where(rng.random(24) < 0.8, rng.random(24), 0.0)
        b[j, :24] = np.where(rng.random(24) < 0.8, rng.random(24), 0.0)
    for x in (a, b):
        x[24:, 24:] = np.where(
            rng.random((24, 24)) < 0.12, rng.random((24, 24)), 0.0
        )
    return [build(a), build(b), build(np.eye(n))]


#: name -> (options, whether the chain may be cached and replayed)
PARITY_OPTIONS = {
    "plain": (OPTIONS, True),
    "memory-limit": (OPTIONS.replace(memory_limit_bytes=13_500.0), False),
    "retry": (OPTIONS.replace(resilience=RetryPolicy(max_attempts=6)), False),
}


class TestPerHopParity:
    """Cold and warm chain runs are bit-identical to per-hop ``atmult``."""

    @pytest.mark.parametrize("name", sorted(PARITY_OPTIONS))
    def test_cold_and_warm_match_per_hop_atmult(self, name, rng, monkeypatch):
        options, replays = PARITY_OPTIONS[name]
        if name == "memory-limit":
            operands = demotion_chain()
        else:
            operands = sparse_chain(rng, [64, 48, 80, 32, 40])
        demotions: list[int] = []
        executor_module = importlib.import_module("repro.engine.executor")
        enforce = executor_module.enforce_memory_limit

        def counting_enforce(result, limit):
            demotions.append(enforce(result, limit))
            return demotions[-1]

        monkeypatch.setattr(executor_module, "enforce_memory_limit", counting_enforce)
        faults = FaultPlan(11, kernel_error_rate=0.05 if name == "retry" else 0.0)
        cached = options.replace(plan_cache=PlanCache())
        with inject_faults(faults):
            cold, cold_report = multiply_chain(list(operands), options=cached)
            chain_demotions = list(demotions)
            warm, warm_report = multiply_chain(list(operands), options=cached)
            reference = per_hop_reference(operands, cold_report.plan.order, options)

        assert not cold_report.plan_cache_hit
        assert warm_report.plan_cache_hit is replays
        assert warm_report.fused is replays
        assert cold_report.plan.order == warm_report.plan.order
        assert np.array_equal(reference.to_dense(), cold.to_dense())
        assert np.array_equal(reference.to_dense(), warm.to_dense())
        np.testing.assert_allclose(
            cold.to_dense(), dense_reference(operands), atol=1e-10
        )
        if name == "memory-limit":
            # The first hop's output is an intermediate, and it was demoted.
            assert chain_demotions[0] > 0
        if name == "retry":
            assert faults.raising_count > 0
            assert sum(step.failure.retries for step in cold_report.steps) > 0

    def test_replay_divergence_falls_back_then_caches_again(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 32, 40])
        session = Session(config=CONFIG)
        _, report = session.multiply_chain(list(operands))
        i, k, j = report.plan.order[0]
        assert (i, j) == (k, k + 1)  # the first hop multiplies two leaves
        # Same patterns, so the same ChainKey; but the left factor's top
        # rows times the all-tiny right factor underflow to zero, so the
        # first intermediate loses tiles the cached plan recorded.
        left = operands[i].to_dense()
        top = left[: left.shape[0] // 2]
        top[top != 0] = 1e-170
        right = operands[j].to_dense()
        right[right != 0] = 1e-170
        scaled = list(operands)
        scaled[i], scaled[j] = build(left), build(right)

        result, fallback = session.multiply_chain(list(scaled))
        assert not fallback.plan_cache_hit
        assert np.any(result.to_dense())
        reference = per_hop_reference(scaled, fallback.plan.order, OPTIONS)
        assert np.array_equal(result.to_dense(), reference.to_dense())
        np.testing.assert_allclose(
            result.to_dense(), dense_reference(scaled), rtol=1e-9, atol=0.0
        )

        again, replay = session.multiply_chain(list(scaled))
        assert replay.fused and replay.plan_cache_hit
        assert np.array_equal(again.to_dense(), result.to_dense())


class TestChainCache:
    def test_repeated_chain_run_is_a_single_cache_hit(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))
        before = session.cache_stats()
        assert before.hits == 0  # cold run only misses and records

        _, report = session.multiply_chain(list(operands))
        after = session.cache_stats()
        assert report.plan_cache_hit
        assert after.hits == before.hits + 1  # ONE hit for the whole chain
        assert after.misses == before.misses  # and no new misses

    def test_fused_plan_reports_eager_frees(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 32, 40])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))
        _, report = session.multiply_chain(list(operands))
        assert report.fused
        # A 4-hop chain has 3 intermediates; every one dies before the end.
        assert report.intermediates_freed > 0
        assert report.peak_intermediate_bytes > 0

    def test_value_change_same_topology_replays(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))

        # Same sparsity pattern, different values: same ChainKey, and the
        # intermediates keep their topology, so the fused replay applies.
        rescaled = [
            build(operand.to_dense() * 2.0) for operand in operands
        ]
        result, report = session.multiply_chain(rescaled)
        assert report.plan_cache_hit
        np.testing.assert_allclose(
            result.to_dense(), dense_reference(rescaled), atol=1e-10
        )

    def test_ineligible_options_fall_back_to_legacy_loop(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        # A memory limit disqualifies fusion (enforcement is per-hop).
        opts = MultiplyOptions(config=CONFIG, memory_limit_bytes=float("inf"))
        result, report = multiply_chain(list(operands), options=opts)
        assert isinstance(report, ChainReport)
        assert not report.fused and not report.plan_cache_hit
        np.testing.assert_allclose(
            result.to_dense(), dense_reference(operands), atol=1e-10
        )

    def test_session_front_door_does_not_warn(self, rng):
        import warnings

        operands = sparse_chain(rng, [48, 32, 40])
        session = Session(config=CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.multiply_chain(list(operands))


class TestBuildChainPlan:
    def test_build_chain_plan_surface(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40, 32])
        fused = build_chain_plan(list(operands), options=OPTIONS)
        assert isinstance(fused, FusedChainPlan)
        assert fused.num_hops == 3
        assert len(fused.schedule) == fused.num_pairs
        assert len(fused.frees) == len(fused.schedule)
        description = fused.describe()
        assert description["hops"] == 3
        assert description["parenthesization"].count("(") == 3
        assert fused.memory_bytes() > 0
        assert fused.fingerprint  # stable identity string

    def test_schedule_interleaves_across_hops(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40], density=0.3)
        fused = build_chain_plan(list(operands), options=OPTIONS)
        hops_in_order = [hop_index for hop_index, _ in fused.schedule]
        # Downstream hops start before upstream hops finish: the schedule
        # is NOT sorted by hop (that would be barrier-per-hop execution).
        assert hops_in_order != sorted(hops_in_order)

    def test_executes_against_cache_key_checked_leaves(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        fused = build_chain_plan(list(operands), options=OPTIONS)
        result, outcome = execute_fused_chain(
            fused, operands, config=CONFIG, cost_model=OPTIONS.resolved_cost_model()
        )
        np.testing.assert_allclose(
            result.to_dense(), dense_reference(operands), atol=1e-10
        )
        assert len(outcome.steps) == fused.num_hops

    def test_mismatched_leaves_rejected(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        fused = build_chain_plan(list(operands), options=OPTIONS)
        other = sparse_chain(rng, [48, 32, 40])
        with pytest.raises(PlanMismatchError):
            execute_fused_chain(
                fused,
                other,
                config=CONFIG,
                cost_model=OPTIONS.resolved_cost_model(),
            )

    def test_single_operand_rejected(self, rng):
        (operand,) = sparse_chain(rng, [48, 32])[:1]
        with pytest.raises(ShapeError):
            build_chain_plan([operand], options=OPTIONS)

    def test_chain_key_identity(self, rng):
        operands = sparse_chain(rng, [48, 32, 40, 24])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))
        keys = [
            key
            for key in session.plan_cache._plans
            if isinstance(key, ChainKey)
        ]
        assert len(keys) == 1
        assert len(keys[0].operand_fingerprints) == 3


class TestPlanChainFixes:
    def test_empty_chain_message_is_typed(self):
        with pytest.raises(ShapeError, match="empty matrix chain"):
            plan_chain([])

    def test_dimension_mismatch_names_position(self, rng):
        good, _ = sparse_chain(rng, [48, 32, 40])
        bad = build(rng.random((16, 24)))
        with pytest.raises(ShapeError, match="at operand 0"):
            plan_chain([good, bad], config=CONFIG)

    def test_structural_plan_matches_default_for_sparse(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40])
        # plan_chain always scores the structural density view; CSR
        # patterns are fingerprinted exactly, so for all-sparse operands
        # it agrees with the value-level density maps.
        for operand in operands:
            structural = operand_density_map(operand, CONFIG, structural=True)
            exact = operand_density_map(operand, CONFIG)
            assert np.array_equal(structural.grid, exact.grid)
        plan = plan_chain(list(operands), config=CONFIG)
        _, report = multiply_chain(list(operands), options=OPTIONS)
        assert plan.order == report.plan.order
