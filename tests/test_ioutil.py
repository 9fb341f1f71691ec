"""CRC-32C: RFC 3720 vectors, a bit-at-a-time oracle, continuation, inputs.

The oracle below shifts one bit at a time through the reflected
Castagnoli polynomial and shares no table or code with
:func:`repro.ioutil.crc32c`, whose scalar and lane paths (and the
chunking between them) must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ioutil
from repro.ioutil import crc32c

POLY = 0x82F63B78


def oracle_prefixes(data: bytes, lengths: set[int], value: int = 0) -> dict[int, int]:
    """Bit-at-a-time CRC-32C of ``data[:n]`` for every ``n`` in ``lengths``."""
    out = {}
    register = value ^ 0xFFFFFFFF
    if 0 in lengths:
        out[0] = register ^ 0xFFFFFFFF
    for index, byte in enumerate(data, start=1):
        register ^= byte
        for _ in range(8):
            register = (register >> 1) ^ (POLY & -(register & 1))
        if index in lengths:
            out[index] = register ^ 0xFFFFFFFF
    return out


def random_bytes(seed: int, size: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


CHUNK = ioutil._CHUNK_BYTES
SMALL = ioutil._SMALL_BYTES

#: Lengths around every size threshold: scalar/lane switch, the lane
#: width switch at 64 KiB, odd lane counts, and one and two chunks with
#: tails that take the scalar and the lane path.
BOUNDARY_LENGTHS = sorted(
    {
        n
        for centre in (SMALL, 4096, 1 << 16, 3 << 15, CHUNK, CHUNK + SMALL, 2 * CHUNK)
        for n in range(centre - 5, centre + 6)
    }
    | {CHUNK + 4097, 2 * CHUNK + 70_000, 3_000_000}
)


@pytest.fixture(scope="module")
def big_message() -> tuple[bytes, dict[int, int]]:
    data = random_bytes(7, max(BOUNDARY_LENGTHS))
    return data, oracle_prefixes(data, set(BOUNDARY_LENGTHS))


class TestRfc3720Vectors:
    @pytest.mark.parametrize(
        ("data", "expected"),
        [
            (bytes(32), 0x8A9136AA),
            (b"\xff" * 32, 0x62A8AB43),
            (bytes(range(32)), 0x46DD794E),
            (bytes(range(31, -1, -1)), 0x113FDB5C),
            (b"123456789", 0xE3069283),
        ],
    )
    def test_vector(self, data, expected):
        assert crc32c(data) == expected
        assert oracle_prefixes(data, {len(data)})[len(data)] == expected


class TestOracle:
    def test_every_length_up_to_1100(self):
        data = random_bytes(1, 1100)
        expected = oracle_prefixes(data, set(range(1101)))
        for n in range(1101):
            assert crc32c(data[:n]) == expected[n], n

    def test_every_length_with_a_start_value(self):
        data = b"\xff" * 600 + random_bytes(2, 500)
        value = 0x1234ABCD
        expected = oracle_prefixes(data, set(range(1101)), value)
        for n in range(1101):
            assert crc32c(data[:n], value) == expected[n], n

    def test_chunk_and_lane_boundaries(self, big_message):
        data, expected = big_message
        view = memoryview(data)
        for n in BOUNDARY_LENGTHS:
            assert crc32c(view[:n]) == expected[n], n


class TestContinuation:
    def test_random_unaligned_splits(self, big_message):
        data, expected = big_message
        rng = np.random.default_rng(3)
        view = memoryview(data)
        for n in (4097, 65_541, CHUNK + 4097, 3_000_000):
            for split in rng.integers(0, n + 1, 4):
                head = crc32c(view[:split])
                assert crc32c(view[split:n], head) == expected[n], (n, split)

    def test_many_pieces(self):
        data = random_bytes(4, 200_003)
        cuts = [0, 1, 5, 1023, 1024, 3000, 65_541, 150_000, 200_003]
        crc = 0
        for start, stop in zip(cuts, cuts[1:]):
            crc = crc32c(data[start:stop], crc)
        assert crc == crc32c(data)


class TestInputTypes:
    @pytest.mark.parametrize("size", [0, 3, 64, 1500, 100_000])
    def test_bytes_like(self, size):
        data = random_bytes(5, size + 3)
        expected = crc32c(data[3:])
        assert crc32c(bytearray(data[3:])) == expected
        assert crc32c(memoryview(data)[3:]) == expected  # misaligned start
        assert crc32c(memoryview(bytearray(data))[3:]) == expected
        assert crc32c(np.frombuffer(data, dtype=np.uint8)[3:]) == expected

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32, np.uint16, np.bool_, np.complex128]
    )
    @pytest.mark.parametrize("size", [1, 7, 300, 40_000])
    def test_ndarray_matches_its_bytes(self, dtype, size):
        rng = np.random.default_rng(6)
        array = (rng.random(size) * 1000).astype(dtype)
        assert crc32c(array) == crc32c(array.tobytes())
        assert crc32c(array, 99) == crc32c(array.tobytes(), 99)

    def test_ndarray_digested_in_c_order(self):
        array = np.arange(3000, dtype=np.float64).reshape(50, 60)
        assert crc32c(array) == crc32c(array.tobytes())
        assert crc32c(array.T) == crc32c(array.T.tobytes())
        assert crc32c(np.asfortranarray(array)) == crc32c(array.tobytes())
        assert crc32c(np.float64(2.5) * np.ones(())) == crc32c(np.float64(2.5).tobytes())

    def test_empty_inputs_return_the_start_value(self):
        for empty in (b"", bytearray(), memoryview(b""), np.zeros(0)):
            assert crc32c(empty) == 0
            assert crc32c(empty, 0xDEADBEEF) == 0xDEADBEEF
