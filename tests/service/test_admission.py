"""Water-level admission control: typed rejection + footprint accounting."""

from __future__ import annotations

import pytest

from repro import AdmissionError, COOMatrix, SystemConfig
from repro.observe import Observation
from repro.service import AdmissionController, MatrixRegistry

from ..conftest import random_sparse_array


@pytest.fixture
def registry(small_config: SystemConfig) -> MatrixRegistry:
    return MatrixRegistry(config=small_config)


def dense_pair(registry: MatrixRegistry, rng) -> tuple:
    raw = rng.random((64, 64))  # fully dense: large, incompressible product
    a = registry.register("A", COOMatrix.from_dense(raw))
    b = registry.register("B", COOMatrix.from_dense(raw))
    return a, b


class TestMultiplyAdmission:
    def test_no_sla_admits_with_zero_reservation(self, registry, rng):
        a, b = dense_pair(registry, rng)
        controller = AdmissionController(None, config=registry.config)
        ticket = controller.check_multiply(a, b, tenant="t1")
        assert ticket.reserved_bytes == 0.0
        assert ticket.estimated_bytes > 0.0

    def test_generous_sla_admits(self, registry, rng):
        a, b = dense_pair(registry, rng)
        controller = AdmissionController(1 << 30, config=registry.config)
        ticket = controller.check_multiply(a, b, tenant="t1")
        assert 0.0 < ticket.reserved_bytes <= 1 << 30

    def test_impossible_sla_is_typed_rejection(self, registry, rng):
        a, b = dense_pair(registry, rng)
        observation = Observation()
        controller = AdmissionController(
            64.0, config=registry.config, metrics=observation.metrics
        )
        with pytest.raises(AdmissionError) as excinfo:
            controller.check_multiply(a, b, tenant="t1")
        assert excinfo.value.tenant == "t1"
        assert excinfo.value.limit_bytes == 64.0
        assert excinfo.value.estimated_bytes > 64.0
        assert observation.metrics.value("service.admission.rejected") == 1

    def test_sparse_product_passes_where_dense_cannot(self, registry, rng):
        raw = random_sparse_array(rng, 64, 64, 0.01)
        a = registry.register("SA", COOMatrix.from_dense(raw))
        b = registry.register("SB", COOMatrix.from_dense(raw))
        config = registry.config
        all_dense = 64 * 64 * config.dense_element_bytes
        controller = AdmissionController(all_dense / 4, config=config)
        ticket = controller.check_multiply(a, b, tenant="t1")
        assert ticket.reserved_bytes <= all_dense / 4


class TestVectorAdmission:
    def test_vector_footprint_is_one_column(self, registry, rng):
        a, _ = dense_pair(registry, rng)
        controller = AdmissionController(1 << 20, config=registry.config)
        ticket = controller.check_vector(a, tenant="t1")
        assert ticket.reserved_bytes == 64 * registry.config.dense_element_bytes

    def test_vector_rejection(self, registry, rng):
        a, _ = dense_pair(registry, rng)
        controller = AdmissionController(8.0, config=registry.config)
        with pytest.raises(AdmissionError):
            controller.check_vector(a, tenant="t1")


class TestFootprintAccounting:
    def test_acquire_release_cycle(self, small_config):
        controller = AdmissionController(1000.0, config=small_config)
        assert controller.try_acquire(600.0)
        assert controller.in_flight_bytes == 600.0
        assert not controller.try_acquire(600.0)  # would breach the SLA
        assert controller.try_acquire(300.0)
        controller.release(600.0)
        controller.release(300.0)
        assert controller.in_flight_bytes == 0.0
        assert controller.remaining_bytes() == 1000.0

    def test_empty_service_never_deadlocks(self, small_config):
        controller = AdmissionController(100.0, config=small_config)
        # an admitted-but-large reservation is granted when nothing runs
        assert controller.try_acquire(150.0)
        controller.release(150.0)

    def test_no_sla_accounting_is_noop(self, small_config):
        controller = AdmissionController(None, config=small_config)
        assert controller.try_acquire(1e12)
        controller.release(1e12)
        assert controller.remaining_bytes() is None

    def test_invalid_limit_rejected(self, small_config):
        with pytest.raises(ValueError):
            AdmissionController(0, config=small_config)
