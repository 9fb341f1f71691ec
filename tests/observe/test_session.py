"""Session activation semantics: ambient slot, nesting, explicit observers."""

from __future__ import annotations

import contextlib
import threading

from repro import COOMatrix, MultiplyOptions, atmult, build_at_matrix, observe
from repro.observe import Observation, activate, current
from repro.observe import session as observe_session

from ..conftest import heterogeneous_array


class TestActivation:
    def test_observe_installs_and_restores(self):
        assert current() is None
        with observe() as obs:
            assert current() is obs
        assert current() is None

    def test_activate_nests_and_restores_previous(self):
        outer = Observation()
        inner = Observation()
        with activate(outer):
            assert current() is outer
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_restores_on_exception(self):
        with contextlib.suppress(RuntimeError), observe():
            raise RuntimeError("boom")
        assert current() is None

    def test_resolve_with_explicit_observer_activates_it(self):
        observer = Observation()
        with observe_session.resolve(observer) as obs:
            assert obs is observer
            assert current() is observer
        assert current() is None

    def test_resolve_without_observer_yields_ambient(self):
        with observe() as ambient, observe_session.resolve(None) as obs:
            assert obs is ambient
        with observe_session.resolve(None) as obs:
            assert obs is None

    def test_worker_threads_see_ambient_session(self):
        seen: list[Observation | None] = []
        with observe() as obs:
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [obs]


class TestObserverKeyword:
    def test_explicit_observer_receives_instrumentation(self, rng, small_config):
        array = heterogeneous_array(rng, 64, 64, background=0.05)
        matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
        observer = Observation()
        _, report = atmult(
            matrix,
            matrix,
            options=MultiplyOptions(config=small_config, observer=observer),
        )
        assert report.observation is observer
        assert len(observer.tracer) > 0
        assert observer.metrics.names()
        # the session was deactivated again after the call
        assert current() is None

    def test_no_observer_and_no_session_records_nothing(self, rng, small_config):
        array = heterogeneous_array(rng, 64, 64, background=0.05)
        matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
        _, report = atmult(matrix, matrix, config=small_config)
        assert report.observation is None
