"""Persistence of AT Matrices as ``.npz`` archives.

The partitioning of a large matrix costs about as much as one
multiplication (paper Fig. 7), so a system keeping matrices around —
the paper's main-memory DBMS setting — wants to persist the *partitioned*
form.  :func:`save_at_matrix` stores the tile directory and payloads in
a single compressed numpy archive; :func:`load_at_matrix` restores the
matrix without re-running the partitioner.

Layout: one header array describing the tiles (position, extent, kind)
plus, per tile ``i``, either ``dense_i`` or the CSR triple
``indptr_i`` / ``indices_i`` / ``values_i``.

Durability (format v2): archives written to a path land atomically
(temp file + fsync + rename via :func:`~repro.ioutil.atomic_write`, so
a crash mid-save never leaves a truncated archive), and a ``checksums``
member maps every array name to its CRC-32C.  :func:`load_at_matrix`
verifies those checksums and raises
:class:`~repro.errors.IntegrityError` on a mismatch; unreadable input —
truncation, garbage, a flipped byte in the compressed stream — raises a
clear :class:`~repro.errors.ParseError` instead of an opaque numpy
error.  Version-1 archives (no checksums) still load.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..config import SystemConfig
from ..core.atmatrix import ATMatrix
from ..core.tile import Tile
from ..errors import IntegrityError, ParseError
from ..ioutil import atomic_write, crc32c
from ..kinds import StorageKind
from .csr import CSRMatrix
from .dense import DenseMatrix

#: Archive format version (bumped on incompatible layout changes).
FORMAT_VERSION = 2

#: Versions :func:`load_at_matrix` accepts (v1 predates checksums).
SUPPORTED_VERSIONS = frozenset({1, 2})


def save_at_matrix(matrix: ATMatrix, target: str | Path | BinaryIO) -> None:
    """Serialize an AT Matrix (tiles + config) to an ``.npz`` archive.

    Path targets are written atomically; a ``.npz`` suffix is appended
    when missing (mirroring ``np.savez``).  Every array member's
    CRC-32C is stored in the ``checksums`` member.
    """
    header = np.array(
        [
            [
                tile.row0,
                tile.col0,
                tile.rows,
                tile.cols,
                1 if tile.kind is StorageKind.DENSE else 0,
                tile.numa_node,
            ]
            for tile in matrix.tiles
        ],
        dtype=np.int64,
    ).reshape(len(matrix.tiles), 6)
    config = matrix.config
    assert config.b_atomic is not None
    meta = np.array(
        [
            FORMAT_VERSION,
            matrix.rows,
            matrix.cols,
            config.llc_bytes,
            config.alpha,
            config.beta,
            config.b_atomic,
            config.dense_element_bytes,
            config.sparse_element_bytes,
        ],
        dtype=np.int64,
    )
    arrays: dict[str, np.ndarray] = {"meta": meta, "tiles": header}
    for i, tile in enumerate(matrix.tiles):
        if isinstance(tile.data, DenseMatrix):
            arrays[f"dense_{i}"] = tile.data.array
        else:
            arrays[f"indptr_{i}"] = tile.data.indptr
            arrays[f"indices_{i}"] = tile.data.indices
            arrays[f"values_{i}"] = tile.data.values
    checksums = {name: crc32c(array) for name, array in arrays.items()}
    arrays["checksums"] = np.array(json.dumps(checksums))
    if isinstance(target, (str, Path)):
        path = Path(target)
        if path.suffix != ".npz":  # np.savez appends it; keep that contract
            path = path.with_name(path.name + ".npz")
        with atomic_write(path) as handle:
            np.savez_compressed(handle, **arrays)
    else:
        np.savez_compressed(target, **arrays)


def read_archive_arrays(
    source: str | Path | BinaryIO,
) -> tuple[dict[str, np.ndarray], dict[str, int] | None]:
    """Raw archive members plus the stored checksum map (``None`` on v1).

    Low-level accessor shared by :func:`load_at_matrix` and the deep
    verifier (:func:`repro.resilience.integrity.verify_archive`), which
    must inspect payloads without trusting any constructor validation.
    Propagates the underlying read errors unwrapped.
    """
    arrays: dict[str, np.ndarray] = {}
    checksums: dict[str, int] | None = None
    with np.load(source, allow_pickle=False) as archive:
        for name in archive.files:
            if name == "checksums":
                checksums = json.loads(str(archive[name][()]))
            else:
                arrays[name] = archive[name]
    return arrays, checksums


def load_at_matrix(source: str | Path | BinaryIO) -> ATMatrix:
    """Restore an AT Matrix saved with :func:`save_at_matrix`.

    Raises :class:`ParseError` for unreadable or truncated input and
    :class:`IntegrityError` when a version-2 archive's content does not
    match its stored checksums.
    """
    try:
        arrays, checksums = read_archive_arrays(source)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ParseError(f"not a readable AT Matrix archive: {exc}") from exc
    try:
        meta = arrays["meta"]
        header = arrays["tiles"]
    except KeyError as exc:
        raise ParseError(f"not an AT Matrix archive: missing {exc}") from exc
    if len(meta) < 9:
        raise ParseError("not an AT Matrix archive: truncated meta member")
    if int(meta[0]) not in SUPPORTED_VERSIONS:
        raise ParseError(
            f"unsupported AT Matrix archive version {int(meta[0])}"
            f" (supported: {sorted(SUPPORTED_VERSIONS)})"
        )
    if checksums is not None:
        mismatched = sorted(
            name
            for name, expected in checksums.items()
            if name not in arrays or crc32c(arrays[name]) != expected
        )
        if mismatched:
            raise IntegrityError(
                "AT Matrix archive failed its CRC-32C verification "
                f"(corrupt member(s): {', '.join(mismatched)})"
            )
    rows, cols = int(meta[1]), int(meta[2])
    config = SystemConfig(
        llc_bytes=int(meta[3]),
        alpha=int(meta[4]),
        beta=int(meta[5]),
        b_atomic=int(meta[6]),
        dense_element_bytes=int(meta[7]),
        sparse_element_bytes=int(meta[8]),
    )
    tiles = []
    try:
        for i, (row0, col0, t_rows, t_cols, is_dense, node) in enumerate(header):
            if is_dense:
                payload: CSRMatrix | DenseMatrix = DenseMatrix(
                    arrays[f"dense_{i}"], copy=False
                )
                kind = StorageKind.DENSE
            else:
                payload = CSRMatrix(
                    int(t_rows),
                    int(t_cols),
                    arrays[f"indptr_{i}"],
                    arrays[f"indices_{i}"],
                    arrays[f"values_{i}"],
                )
                kind = StorageKind.SPARSE
            tiles.append(
                Tile(
                    int(row0),
                    int(col0),
                    int(t_rows),
                    int(t_cols),
                    kind,
                    payload,
                    numa_node=int(node),
                )
            )
    except KeyError as exc:
        raise ParseError(
            f"not an AT Matrix archive: missing payload member {exc}"
        ) from exc
    return ATMatrix(rows, cols, config, tiles)
