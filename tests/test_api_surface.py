"""The public API surface: docs drift, Session facade, CacheStats.

Guards the finished API shell around the engine: every exported symbol
is documented, ``Session.solve`` is a bit-for-bit facade over the named
solver functions, ``Session`` works as a context manager that exports
its observation on exit, and ``cache_stats()`` returns the typed
:class:`~repro.engine.cache.CacheStats` view.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CacheStats, COOMatrix, Session, build_at_matrix
from repro.errors import ConfigError
from repro.solve import conjugate_gradient, jacobi, richardson

from .conftest import random_sparse_array

DOCS_API = Path(__file__).resolve().parents[1] / "docs" / "API.md"


class TestApiSurfaceDrift:
    def test_every_public_symbol_is_documented(self):
        """docs/API.md must mention every name in ``repro.__all__``."""
        text = DOCS_API.read_text(encoding="utf-8")
        missing = [name for name in repro.__all__ if name not in text]
        assert not missing, (
            f"symbols exported from repro but absent from docs/API.md: "
            f"{missing}"
        )

    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_all_is_sorted_unique(self):
        assert len(set(repro.__all__)) == len(repro.__all__)


@pytest.fixture
def spd_system(small_config, rng):
    base = random_sparse_array(rng, 48, 48, 0.1)
    dense = base @ base.T + 48 * np.eye(48)
    matrix = build_at_matrix(COOMatrix.from_dense(dense), small_config)
    rhs = rng.random(48)
    return matrix, rhs


class TestSessionSolveFacade:
    @pytest.mark.parametrize(
        "method,direct",
        [
            ("cg", conjugate_gradient),
            ("jacobi", jacobi),
            ("richardson", richardson),
        ],
    )
    def test_solve_matches_direct_solver_bitwise(
        self, small_config, spd_system, method, direct
    ):
        matrix, rhs = spd_system
        kwargs = {"omega": 0.01} if method == "richardson" else {}
        via_facade = Session(config=small_config).solve(
            matrix, rhs, method=method, max_iterations=40, **kwargs
        )
        via_direct = direct(
            matrix, rhs,
            session=Session(config=small_config),
            max_iterations=40, **kwargs,
        )
        assert np.array_equal(via_facade.solution, via_direct.solution)
        assert via_facade.iterations == via_direct.iterations
        assert via_facade.residual_norm == via_direct.residual_norm

    def test_unknown_method_is_config_error(self, small_config, spd_system):
        matrix, rhs = spd_system
        with pytest.raises(ConfigError, match="unknown solve method"):
            Session(config=small_config).solve(matrix, rhs, method="gauss")


class TestCacheStats:
    def test_typed_stats_with_mapping_compat(self, small_config, rng):
        session = Session(config=small_config)
        a = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 32, 32, 0.2)),
            small_config,
        )
        session.multiply(a, a)
        session.multiply(a, a)
        stats = session.cache_stats()
        assert isinstance(stats, CacheStats)
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.hit_rate == 0.5
        assert stats.lookups == 2
        assert stats.as_dict()["entries"] == stats.entries

    def test_clear_cache(self, small_config, rng):
        session = Session(config=small_config)
        a = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 32, 32, 0.2)),
            small_config,
        )
        session.multiply(a, a)
        assert session.cache_stats().entries == 1
        session.clear_cache()
        assert session.cache_stats().entries == 0


class TestSessionContextManager:
    def test_exit_exports_metrics_and_trace(self, small_config, rng, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        a = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 32, 32, 0.2)),
            small_config,
        )
        with Session(
            config=small_config,
            metrics_out=str(metrics_path),
            trace_out=str(trace_path),
        ) as session:
            session.multiply(a, a)
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert payload  # at least one metric landed
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["traceEvents"]
        # a closed session still answers cache queries
        assert session.cache_stats().entries >= 1

    def test_close_is_idempotent(self, small_config):
        session = Session(config=small_config)
        session.close()
        session.close()

    def test_plain_context_manager_needs_no_paths(self, small_config, rng):
        raw = random_sparse_array(rng, 16, 16, 0.4)
        a = build_at_matrix(COOMatrix.from_dense(raw), small_config)
        with Session(config=small_config) as session:
            result, report = session.multiply(a, a)
        assert report.pairs_executed > 0
        np.testing.assert_allclose(result.to_dense(), raw @ raw, atol=1e-9)
