"""Tests for cost-based matrix chain multiplication."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemConfig,
    build_at_matrix,
    multiply_chain,
    plan_chain,
)
from repro.errors import ShapeError

from ..conftest import as_csr, random_sparse_array


CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
OPTIONS = MultiplyOptions(config=CONFIG)


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


class TestPlan:
    def test_single_operand(self, rng):
        a = random_sparse_array(rng, 10, 10, 0.3)
        plan = plan_chain([build(a)], config=CONFIG)
        assert plan.order == ()
        assert plan.cost == 0.0

    def test_two_operands_single_product(self, rng):
        a = random_sparse_array(rng, 10, 12, 0.3)
        b = random_sparse_array(rng, 12, 8, 0.3)
        plan = plan_chain([build(a), build(b)], config=CONFIG)
        assert plan.order == ((0, 0, 1),)
        assert plan.cost > 0

    def test_dimension_mismatch_rejected(self, rng):
        a = random_sparse_array(rng, 10, 12, 0.3)
        b = random_sparse_array(rng, 11, 8, 0.3)
        with pytest.raises(ShapeError):
            plan_chain([build(a), build(b)], config=CONFIG)

    def test_empty_chain_rejected(self):
        with pytest.raises(ShapeError):
            plan_chain([], config=CONFIG)

    def test_skewed_dimensions_prefer_cheap_order(self, rng):
        """Classic chain case: (A(BC)) vs ((AB)C) with a bottleneck dim."""
        # A: 64 x 4, B: 4 x 64, C: 64 x 4 -- (AB)C inflates a 64x64
        # intermediate, A(BC) keeps everything thin.
        a = random_sparse_array(rng, 64, 4, 0.8)
        b = random_sparse_array(rng, 4, 64, 0.8)
        c = random_sparse_array(rng, 64, 4, 0.8)
        plan = plan_chain([build(a), build(b), build(c)], config=CONFIG)
        assert plan.parenthesization() == "(A1 (A2 A3))"

    def test_parenthesization_names(self, rng):
        a = random_sparse_array(rng, 8, 8, 0.4)
        plan = plan_chain([build(a), build(a)], config=CONFIG)
        assert plan.parenthesization(["X", "Y"]) == "(X Y)"


class TestExecution:
    def test_three_matrix_chain_correct(self, rng):
        a = random_sparse_array(rng, 20, 30, 0.3)
        b = random_sparse_array(rng, 30, 10, 0.4)
        c = random_sparse_array(rng, 10, 25, 0.3)
        result, report = multiply_chain(
            [build(a), build(b), build(c)], options=OPTIONS
        )
        np.testing.assert_allclose(result.to_dense(), a @ b @ c, atol=1e-9)
        assert len(report.plan.order) == 2

    def test_plain_operands_accepted(self, rng):
        a = random_sparse_array(rng, 12, 12, 0.4)
        result, _ = multiply_chain([as_csr(a), as_csr(a), as_csr(a)], options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), a @ a @ a, atol=1e-9)

    def test_single_operand_passthrough(self, rng):
        a = random_sparse_array(rng, 12, 12, 0.4)
        result, report = multiply_chain([build(a)], options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), a)
        assert report.plan.order == ()

    def test_memory_limit_propagated(self, rng):
        a = random_sparse_array(rng, 24, 24, 0.3)
        result, _ = multiply_chain(
            [build(a), build(a)],
            options=MultiplyOptions(config=CONFIG, memory_limit_bytes=1e9),
        )
        np.testing.assert_allclose(result.to_dense(), a @ a, atol=1e-9)


class TestChainProperties:
    @given(st.integers(0, 500), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_any_chain_matches_numpy(self, seed, length):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(3, 25, length + 1)]
        arrays = [
            random_sparse_array(rng, dims[i], dims[i + 1], 0.35)
            for i in range(length)
        ]
        result, _ = multiply_chain([build(x) for x in arrays], options=OPTIONS)
        expected = arrays[0]
        for array in arrays[1:]:
            expected = expected @ array
        np.testing.assert_allclose(result.to_dense(), expected, atol=1e-8)
