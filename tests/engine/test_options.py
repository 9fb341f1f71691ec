"""MultiplyOptions, the context-keyword coercion helper, and the 2.0 and 3.0 cuts."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import (
    ChainReport,
    ConfigError,
    COOMatrix,
    CostModel,
    MultiplyOptions,
    MultiplyReport,
    ParallelReport,
    RetryPolicy,
    Session,
    atmult,
    build_at_matrix,
    multiply_chain,
    parallel_atmult,
    plan,
)
from repro.engine.executor import execute_plan
from repro.engine.options import coerce_options
from repro.expr import M
from repro.topology import SystemTopology

from ..conftest import heterogeneous_array


@pytest.fixture
def operands(rng, small_config):
    array = heterogeneous_array(rng, 80, 80, background=0.05)
    matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
    return array, matrix


class TestCoercion:
    def test_defaults_pass_through(self):
        opts = coerce_options(None)
        assert opts == MultiplyOptions()

    def test_options_instance_is_used_verbatim(self):
        base = MultiplyOptions(use_estimation=False)
        assert coerce_options(base) is base

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError, match="atmult"):
            atmult(None, None, bogus=1)

    def test_config_and_cost_model_fold_in_silently(self, small_config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = coerce_options(None, config=small_config)
        assert opts.config is small_config

    def test_options_only_call_is_warning_free(self, operands, small_config):
        _, matrix = operands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            atmult(matrix, matrix, options=MultiplyOptions(config=small_config))


#: The 1.x keywords each multiply entry point took before ``MultiplyOptions``.
LEGACY_KEYWORDS = {
    "memory_limit_bytes": None,
    "dynamic_conversion": True,
    "use_estimation": True,
    "resilience": None,
    "observer": None,
}
TOPOLOGY = SystemTopology(sockets=2, cores_per_socket=1)


def _atmult(matrix, **kwargs):
    return atmult(matrix, matrix, **kwargs)


def _parallel_atmult(matrix, **kwargs):
    return parallel_atmult(matrix, matrix, topology=TOPOLOGY, **kwargs)


def _multiply_chain(matrix, **kwargs):
    return multiply_chain([matrix, matrix], **kwargs)


def _evaluate(matrix, **kwargs):
    return M(matrix).evaluate(**kwargs)


def _execute_plan(matrix, **kwargs):
    options = MultiplyOptions(config=matrix.config)
    return execute_plan(
        plan(matrix, matrix, options=options),
        matrix,
        matrix,
        config=matrix.config,
        cost_model=CostModel(),
        options=options,
        **kwargs,
    )


def _session_solve(matrix, **kwargs):
    return Session(config=matrix.config).solve(
        matrix, np.ones(matrix.rows), max_iterations=1, **kwargs
    )


def _removed_spellings():
    entry_points = {
        "atmult": (_atmult, LEGACY_KEYWORDS),
        "parallel_atmult": (_parallel_atmult, {**LEGACY_KEYWORDS, "workers": 2}),
        "multiply_chain": (_multiply_chain, LEGACY_KEYWORDS),
    }
    for entry, (call, keywords) in entry_points.items():
        for name, value in keywords.items():
            yield pytest.param(
                call, {name: value}, TypeError, name, id=f"{entry}-{name}"
            )
    yield pytest.param(
        _multiply_chain, {"return_report": False}, TypeError, "return_report",
        id="multiply_chain-return_report",
    )
    yield pytest.param(
        _multiply_chain, {"config": None}, TypeError, "config",
        id="multiply_chain-config",
    )
    yield pytest.param(
        _evaluate, {"config": None}, TypeError, "config", id="evaluate-config"
    )
    yield pytest.param(
        _execute_plan, {"parallel": True}, TypeError, "parallel",
        id="execute_plan-parallel",
    )
    for report, name in (
        (MultiplyReport, "estimate_seconds"),
        (MultiplyReport, "optimize_seconds"),
        (MultiplyReport, "multiply_seconds"),
        (ParallelReport, "wall_seconds"),
    ):
        yield pytest.param(
            lambda _matrix, report=report, name=name: getattr(report(), name),
            {}, AttributeError, name, id=f"{report.__name__}-{name}",
        )
    yield pytest.param(
        lambda _matrix: repro.multiply, {}, AttributeError, "multiply",
        id="repro-multiply",
    )
    # Removed in 3.0.
    for name in ("richardson", "jacobi", "conjugate_gradient"):
        yield pytest.param(
            lambda matrix, name=name: getattr(Session(config=matrix.config), name),
            {}, AttributeError, name, id=f"Session-{name}",
        )
    yield pytest.param(
        _session_solve, {"method": "conjugate_gradient"}, ConfigError,
        "conjugate_gradient", id="Session.solve-conjugate_gradient",
    )
    yield pytest.param(
        lambda matrix: Session(config=matrix.config).cache_stats()["hits"],
        {}, TypeError, "subscriptable", id="CacheStats-getitem",
    )
    for name in ("order", "cost", "splits", "parenthesization"):
        yield pytest.param(
            lambda _matrix, name=name: getattr(ChainReport(), name),
            {}, AttributeError, name, id=f"ChainReport-{name}",
        )
    for name in (
        "resilience", "checkpoint", "checkpoint_flush_pairs", "cancel",
        "heartbeat_interval", "pair_deadline_seconds", "startup_grace_seconds",
    ):
        yield pytest.param(
            _execute_plan, {name: None}, TypeError, name, id=f"execute_plan-{name}",
        )
    for cls, name in (
        (MultiplyOptions, "startup_grace_seconds"),
        (RetryPolicy, "validate_results"),
        (RetryPolicy, "fallback_to_reference"),
    ):
        yield pytest.param(
            lambda _matrix, cls=cls, name=name: cls(**{name: 1}),
            {}, TypeError, name, id=f"{cls.__name__}-{name}",
        )


@pytest.mark.parametrize("call,kwargs,error,name", list(_removed_spellings()))
def test_removed_spelling_fails_loudly(operands, call, kwargs, error, name):
    """Every spelling removed in 2.0 or 3.0 raises instead of running."""
    _, matrix = operands
    with pytest.raises(error, match=name):
        call(matrix, **kwargs)
