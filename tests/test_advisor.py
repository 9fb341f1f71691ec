"""Tests for the storage/execution advisor."""

import time

import numpy as np
import pytest

from repro import (
    COOMatrix,
    SystemConfig,
    atmult,
    build_at_matrix,
    profile_topology,
    recommend,
)
from repro.advisor import _gini
from repro.formats import coo_to_csr
from repro.formats.convert import csr_to_dense
from repro.generate import banded_matrix, power_network_matrix, uniform_random_matrix
from repro.kernels import gemm
from repro.kinds import StorageKind

from .conftest import heterogeneous_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


def best_seconds(call, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def atmult_measured_fastest(staged):
    """Whether ATMULT beats every plain kernel on ``staged @ staged``."""
    at = build_at_matrix(staged, CONFIG)
    csr = coo_to_csr(staged)
    dense = csr_to_dense(csr)
    partitioned = best_seconds(lambda: atmult(at, at, config=CONFIG))
    plain = min(
        best_seconds(lambda: gemm.spspsp_gemm(csr, csr)),
        best_seconds(lambda: gemm.spspd_gemm(csr, csr)),
        best_seconds(lambda: gemm.ddd_gemm(dense, dense)),
    )
    return partitioned < plain


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_is_high(self):
        counts = np.zeros(100)
        counts[0] = 1000.0
        assert _gini(counts) > 0.9

    def test_empty_and_singleton(self):
        assert _gini(np.array([])) == 0.0
        assert _gini(np.array([5.0])) == 0.0


class TestProfile:
    def test_heterogeneous_detected(self, rng):
        staged = COOMatrix.from_dense(heterogeneous_array(rng, 96, 96))
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "heterogeneous"
        assert profile.dense_block_fraction > 0

    def test_banded_detected(self):
        staged = banded_matrix(512, 3000, bandwidth=4, seed=1)
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "banded"
        assert profile.normalized_bandwidth < 0.02

    def test_uniform_detected(self):
        staged = uniform_random_matrix(256, 4000, seed=2)
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "uniform"
        assert profile.block_skew < 0.4

    def test_dense_detected(self, rng):
        staged = COOMatrix.from_dense(rng.random((32, 32)))
        profile = profile_topology(staged, CONFIG)
        assert profile.topology_class == "dense"

    def test_empty_matrix(self):
        profile = profile_topology(COOMatrix.empty(64, 64), CONFIG)
        assert profile.nnz == 0
        assert profile.block_skew == 0.0


class TestRecommend:
    def test_power_network_partitions(self):
        """The power-network class profiles as heterogeneous with dense
        regions.  Whether partitioning pays at this toy tile size is
        measured, not assumed: see the contrast-pair test."""
        staged = power_network_matrix(
            512, block_size=48, block_fill=0.9, background_density=0.001, seed=3
        )
        rec = recommend(staged, CONFIG)
        assert rec.profile.topology_class == "heterogeneous"
        assert any("dense regions" in note for note in rec.notes)

    def test_banded_does_not_partition(self):
        staged = banded_matrix(512, 2000, bandwidth=4, seed=4)
        rec = recommend(staged, CONFIG)
        assert not rec.partition_worthwhile
        assert any("hypersparse" in note for note in rec.notes)

    def test_plain_storage_follows_density(self, rng):
        dense = recommend(COOMatrix.from_dense(rng.random((32, 32))), CONFIG)
        assert dense.plain_storage is StorageKind.DENSE
        sparse = recommend(uniform_random_matrix(128, 200, seed=5), CONFIG)
        assert sparse.plain_storage is StorageKind.SPARSE

    def test_all_strategies_costed(self, rng):
        rec = recommend(COOMatrix.from_dense(heterogeneous_array(rng, 64, 64)), CONFIG)
        assert set(rec.predicted_costs) == {
            "spspsp_gemm", "spspd_gemm", "ddd_gemm", "atmult",
        }
        assert all(cost >= 0 for cost in rec.predicted_costs.values())

    def test_summary_renders(self, rng):
        rec = recommend(COOMatrix.from_dense(heterogeneous_array(rng, 64, 64)), CONFIG)
        text = rec.summary()
        assert "topology class" in text
        assert "predicted" in text

    def test_prediction_matches_reality_on_contrast_pair(self):
        """The advisor's verdict must match the measured winner on both
        classes: ATMULT against the three plain kernels it is costed
        against, each timed on the self-product.  At this toy tile size
        (~140 tiles of 16-row blocks) the winner is a plain kernel on both
        inputs, by 15x or more."""
        inputs = [
            power_network_matrix(
                512, block_size=48, block_fill=0.9,
                background_density=0.001, seed=6,
            ),
            banded_matrix(512, 2000, bandwidth=4, seed=7),
        ]
        for staged in inputs:
            rec = recommend(staged, CONFIG)
            assert rec.partition_worthwhile == atmult_measured_fastest(staged)
