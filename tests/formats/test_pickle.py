"""Tests for pickling tile payloads, as worker channels do.

Payloads unpickle with numpy's builtin dtype objects (the kernels'
``np.add.at`` scatter leaves its fast path on an equal but distinct
dtype), with their bytes unchanged and their cached slots still set.
"""

import pickle

import numpy as np
import pytest

from repro import COOMatrix, atmult, build_at_matrix
from repro.core.tile import Tile
from repro.engine.fingerprint import payload_fingerprint, structure_fingerprint
from repro.kinds import StorageKind

from ..conftest import (
    as_csr,
    as_dense,
    assert_builtin_dtypes,
    heterogeneous_array,
    payload_arrays,
)


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def assert_same_payload(clone, original):
    assert type(clone) is type(original)
    assert clone.shape == original.shape
    assert_builtin_dtypes(clone)
    arrays = payload_arrays(original)
    cloned = payload_arrays(clone)
    assert cloned.keys() == arrays.keys()
    for name, array in arrays.items():
        assert cloned[name].tobytes() == array.tobytes(), name
    assert clone._structure_fp == original._structure_fp


@pytest.fixture
def array(rng):
    return heterogeneous_array(rng, 48, 48)


class TestPayloadRoundTrip:
    def test_dense_keeps_bytes_and_caches(self, array):
        dense = as_dense(array)
        fingerprint = payload_fingerprint(dense)
        nnz = dense.nnz
        clone = round_trip(dense)
        assert_same_payload(clone, dense)
        assert clone._structure_fp == fingerprint
        assert clone._nnz == nnz

    def test_dense_without_caches(self, array):
        dense = as_dense(array)
        clone = round_trip(dense)
        assert_builtin_dtypes(clone)
        assert not hasattr(clone, "_structure_fp")
        assert clone.nnz == dense.nnz

    def test_csr_keeps_bytes_and_caches(self, array):
        csr = as_csr(array)
        keys = csr.sorted_keys()
        fingerprint = payload_fingerprint(csr)
        clone = round_trip(csr)
        assert_same_payload(clone, csr)
        assert clone._keys is not None
        assert clone._keys.tobytes() == keys.tobytes()
        assert clone._structure_fp == fingerprint

    def test_csr_without_keys(self, array):
        clone = round_trip(as_csr(array))
        assert clone._keys is None
        assert_builtin_dtypes(clone)
        assert clone.sorted_keys().dtype is np.dtype(np.int64)

    @pytest.mark.parametrize("kind", [StorageKind.SPARSE, StorageKind.DENSE])
    def test_tile(self, array, kind):
        payload = as_csr(array) if kind is StorageKind.SPARSE else as_dense(array)
        payload_fingerprint(payload)
        tile = Tile(8, 16, *array.shape, kind, payload, numa_node=1)
        clone = round_trip(tile)
        assert (clone.extent, clone.kind, clone.numa_node) == (tile.extent, kind, 1)
        assert_same_payload(clone.data, tile.data)


class TestATMatrixRoundTrip:
    @pytest.fixture
    def at(self, array, small_config):
        at = build_at_matrix(COOMatrix.from_dense(array), small_config)
        assert {tile.kind for tile in at.tiles} == {StorageKind.SPARSE, StorageKind.DENSE}
        structure_fingerprint(at)
        return at

    def test_every_tile_payload(self, at):
        clone = round_trip(at)
        assert clone._structure_fp == at._structure_fp
        assert len(clone.tiles) == len(at.tiles)
        for cloned, tile in zip(clone.tiles, at.tiles):
            assert cloned.extent == tile.extent
            assert_same_payload(cloned.data, tile.data)

    def test_unpickled_operands_multiply_bit_identically(self, at, small_config):
        clone = round_trip(at)
        expected, _ = atmult(at, at, config=small_config)
        result, _ = atmult(clone, clone, config=small_config)
        assert result.to_dense().tobytes() == expected.to_dense().tobytes()
        for tile in round_trip(result).tiles:
            assert_builtin_dtypes(tile.data)
