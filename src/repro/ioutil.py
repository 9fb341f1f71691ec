"""Durable file I/O primitives: atomic writes and the CRC32C checksum.

Every file the library persists — ``.npz`` archives, checkpoint journal
records, ``.mtx`` exports, observation dumps — goes through
:func:`atomic_write`: the bytes land in a temporary file in the target
directory, are flushed and fsynced, and only then renamed over the final
path with ``os.replace``.  A process killed mid-save therefore leaves
either the previous file intact or a stray ``*.tmp`` — never a truncated
final file that a later load dies on.  The repro-lint rule RPR007
enforces that no code under ``src/repro`` opens a final path for
writing directly.

:func:`crc32c` is the CRC-32C (Castagnoli) checksum used for
end-to-end integrity: archive format v2 stores one checksum per payload
array and the checkpoint journal stores one per record, so a flipped
bit at rest is caught at load time instead of surfacing as wrong
numerics.  It takes any C-contiguous buffer, ndarrays included, without
copying it to ``bytes`` first.  Inputs under 1.5 KiB run a scalar
slicing-by-4 loop; longer ones are cut into lanes that numpy advances
one word at a time in parallel, and the lane registers are then folded
with precomputed GF(2) "feed 2**k zero bytes" tables.  On a 2-core Xeon
that is 300-450 MB/s from 1 MiB up, against 6-8 MB/s for a per-byte
table loop (``benchmarks/bench_crc32c.py``).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path
from typing import IO, Any

import numpy as np
from numpy.typing import NDArray

#: Reflected CRC-32C (Castagnoli) polynomial (iSCSI, ext4, RFC 3720).
_CRC32C_POLY = 0x82F63B78

#: Inputs shorter than this run the scalar word loop; longer ones the lanes.
_SMALL_BYTES = 1536

#: Bytes per vectorized pass; longer inputs chain passes through the
#: register, which bounds the padded temporary copy at this size.
_CHUNK_BYTES = 1 << 20

_U32 = NDArray[np.uint32]


def _byte_table() -> _U32:
    """The classic 256-entry table: the register after one zero byte."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(_CRC32C_POLY), table >> 1)
    return table.astype(np.uint32)


def _shift(tables: _U32, register: _U32) -> _U32:
    """Apply a zero-shift operator, given as 4x256 byte tables, per lane."""
    return (
        tables[0][register & 0xFF]
        ^ tables[1][(register >> 8) & 0xFF]
        ^ tables[2][(register >> 16) & 0xFF]
        ^ tables[3][register >> 24]
    )


def _tables_from_columns(columns: _U32) -> _U32:
    """4x256 byte tables of the GF(2)-linear map with these 32 bit images."""
    tables = np.zeros((4, 256), dtype=np.uint32)
    per_byte = columns.reshape(4, 8)
    for bit in range(8):
        span = 1 << bit
        tables[:, span : 2 * span] = tables[:, :span] ^ per_byte[:, bit : bit + 1]
    return tables


def _zero_shift_tables(count: int) -> list[_U32]:
    """Tables of the operators "feed 2**k zero bytes" for k < ``count``.

    The raw CRC register is GF(2)-linear in its start value, so feeding
    ``n`` zero bytes is a 32x32 bit matrix; squaring it doubles ``n``.
    """
    basis = np.uint32(1) << np.arange(32, dtype=np.uint32)
    columns = (basis >> 8) ^ _BYTE_TABLE[basis & 0xFF]
    out: list[_U32] = []
    for _ in range(count):
        tables = _tables_from_columns(columns)
        out.append(tables)
        columns = _shift(tables, columns)
    return out


_BYTE_TABLE = _byte_table()
#: ``_ZERO_SHIFT[k]`` feeds ``2**k`` zero bytes; enough levels to fold a chunk.
_ZERO_SHIFT = _zero_shift_tables(_CHUNK_BYTES.bit_length())
#: Slicing-by-4 (one word = four zero bytes after the XOR), as Python ints
#: for the scalar loop and as two 16-bit-indexed tables for the lanes.
_WORD_LISTS = [[int(v) for v in row] for row in _ZERO_SHIFT[2]]
_WORD_LO16 = (_ZERO_SHIFT[2][0][None, :] ^ _ZERO_SHIFT[2][1][:, None]).ravel()
_WORD_HI16 = (_ZERO_SHIFT[2][2][None, :] ^ _ZERO_SHIFT[2][3][:, None]).ravel()
_BYTE_LIST = [int(v) for v in _BYTE_TABLE]


def _scalar_register(buf: NDArray[np.uint8], register: int) -> int:
    """Raw register after ``buf``: slicing-by-4 over words, then bytes."""
    whole = buf.size - buf.size % 4
    t0, t1, t2, t3 = _WORD_LISTS
    for word in buf[:whole].view("<u4").tolist():
        x = register ^ word
        register = t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF] ^ t3[x >> 24]
    table = _BYTE_LIST
    for byte in buf[whole:].tobytes():
        register = (register >> 8) ^ table[(register ^ byte) & 0xFF]
    return register


def _lane_register(buf: NDArray[np.uint8], register: int) -> int:
    """Raw register after ``buf`` (at least four bytes), all lanes at once.

    The input is cut into equal lanes of ``words`` little-endian words,
    padded in front with zero bytes (a zero register stays zero over
    them), and laid out ``(words, lanes)`` so every numpy op advances
    all lanes by one word.  The start register enters as an XOR over the
    first four data bytes.  Lane registers then fold pairwise: the left
    one is shifted past the right one's length and XORed in.
    """
    words = 32 if buf.size >= 1 << 16 else 8
    lane_bytes = 4 * words
    lanes = -(-buf.size // lane_bytes)
    padded = np.zeros(lanes * lane_bytes, dtype=np.uint8)
    start = padded.size - buf.size
    padded[start:] = buf
    padded[start : start + 4] ^= np.array([register], dtype="<u4").view(np.uint8)
    rows = np.ascontiguousarray(padded.view("<u4").reshape(lanes, words).T)
    state = np.zeros(lanes, dtype=np.uint32)
    for row in rows:
        x = state ^ row
        state = _WORD_LO16[x & 0xFFFF] ^ _WORD_HI16[x >> 16]
    level = lane_bytes.bit_length() - 1
    while state.size > 1:
        if state.size % 2:
            state = np.concatenate((np.zeros(1, dtype=np.uint32), state))
        state = _shift(_ZERO_SHIFT[level], state[0::2]) ^ state[1::2]
        level += 1
    return int(state[0])


def crc32c(data: bytes | bytearray | memoryview | np.ndarray, value: int = 0) -> int:
    """CRC-32C checksum of ``data``, continuing from ``value``.

    ``data`` is any C-contiguous buffer; an ``ndarray`` is digested as
    its C-order bytes (what ``tobytes()`` would return), without the
    copy.  ``crc32c(b, crc32c(a))`` equals ``crc32c(a + b)``, so
    multi-array payloads can be digested without concatenating their
    bytes.
    """
    buf: NDArray[np.uint8]
    if isinstance(data, np.ndarray):
        buf = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    else:
        buf = np.frombuffer(data, dtype=np.uint8)
    register = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for start in range(0, buf.size, _CHUNK_BYTES):
        piece = buf[start : start + _CHUNK_BYTES]
        if piece.size < _SMALL_BYTES:
            register = _scalar_register(piece, register)
        else:
            register = _lane_register(piece, register)
    return register ^ 0xFFFFFFFF


@contextlib.contextmanager
def atomic_write(
    target: str | Path, *, mode: str = "wb", encoding: str | None = None
) -> Iterator[IO[Any]]:
    """Write a file atomically: temp file + fsync + ``os.replace``.

    Yields a writable handle onto a temporary file created next to
    ``target`` (same filesystem, so the final rename is atomic).  On
    clean exit the temp file replaces ``target``; on any exception it is
    removed and the previous content of ``target`` — if any — survives
    untouched.
    """
    if mode not in {"w", "wb"}:
        raise ValueError(f"atomic_write supports modes 'w'/'wb', got {mode!r}")
    path = Path(target)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_write_text(
    target: str | Path, text: str, *, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``target`` with ``text``."""
    with atomic_write(target, mode="w", encoding=encoding) as handle:
        handle.write(text)
