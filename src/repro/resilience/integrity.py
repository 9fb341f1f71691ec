"""Deep structural and checksum verification of matrix data at rest.

The executor's result guard (:mod:`repro.resilience.guard`) validates
tiles the moment they are produced; this module is the complementary
*at-rest* verifier for data that has lived outside the process — loaded
archives, checkpoint journals, or long-held in-memory matrices that may
have been corrupted by a buggy kernel or bit rot.  ``repro verify``
drives it from the CLI.

Verification is collecting, not fail-fast: every violation found is
reported as an :class:`IntegrityViolation` with a stable machine-readable
``code``, so one pass over a damaged archive names *all* problems.  The
violation classes:

==================  =====================================================
``csr-indptr``      indptr length/endpoints wrong or not monotone
``csr-index-bounds``  a column index outside ``[0, cols)``
``csr-column-order``  column ids not strictly increasing within a row
``csr-values``      values/indices length mismatch or non-finite value
``dense-nonfinite``   NaN or infinity in a dense payload
``tile-shape``      a tile payload's shape differs from its directory entry
``tile-bounds``     a tile extends outside the matrix bounds
``tile-overlap``    two tiles of one directory overlap (disjointness)
``archive-checksum``  stored CRC-32C does not match the array bytes
``archive-structure`` a required archive member is missing or malformed
``archive-unreadable``  the file cannot be opened or decompressed at all
==================  =====================================================

:func:`verify_at_matrix` / :func:`verify_csr` / :func:`verify_dense`
check live objects; :func:`verify_archive` checks a serialized ``.npz``
without trusting any constructor validation (a corrupted archive must
produce a report, not a stack trace).  :func:`check_integrity` is the
raising wrapper used by loaders.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import IntegrityError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..ioutil import crc32c
from ..observe import session as observe_session

__all__ = [
    "IntegrityViolation",
    "check_integrity",
    "verify_archive",
    "verify_at_matrix",
    "verify_csr",
    "verify_dense",
]


@dataclass(frozen=True)
class IntegrityViolation:
    """One provable defect found by the verifier."""

    #: machine-readable violation class (see the module table)
    code: str
    #: human-readable description with the offending values
    message: str
    #: where in the verified object the defect sits (tile index, array name)
    location: str = ""

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.code}{where}: {self.message}"


# ---------------------------------------------------------------------------
# payload verifiers (shared by the live-object and archive paths)
# ---------------------------------------------------------------------------


def _verify_csr_arrays(
    rows: int,
    cols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    location: str,
) -> list[IntegrityViolation]:
    """CSR invariants over raw arrays (no ``CSRMatrix`` construction)."""
    out: list[IntegrityViolation] = []
    if len(indptr) != rows + 1:
        out.append(
            IntegrityViolation(
                "csr-indptr",
                f"indptr has length {len(indptr)}, expected rows + 1 = {rows + 1}",
                location,
            )
        )
        return out  # row walk below would be meaningless
    if len(indptr) and (indptr[0] != 0 or indptr[-1] != len(indices)):
        out.append(
            IntegrityViolation(
                "csr-indptr",
                f"indptr endpoints ({int(indptr[0])}, {int(indptr[-1])}) != "
                f"(0, nnz={len(indices)})",
                location,
            )
        )
    if np.any(np.diff(indptr) < 0):
        first = int(np.flatnonzero(np.diff(indptr) < 0)[0])
        out.append(
            IntegrityViolation(
                "csr-indptr",
                f"indptr decreases at row {first}",
                location,
            )
        )
        return out  # per-row slices are untrustworthy from here on
    if len(indices) != len(values):
        out.append(
            IntegrityViolation(
                "csr-values",
                f"indices ({len(indices)}) and values ({len(values)}) "
                "have different lengths",
                location,
            )
        )
    elif len(values) and not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        out.append(
            IntegrityViolation(
                "csr-values",
                f"non-finite stored value at position {bad}",
                location,
            )
        )
    if len(indices):
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= cols:
            out.append(
                IntegrityViolation(
                    "csr-index-bounds",
                    f"column indices span [{lo}, {hi}] outside [0, {cols})",
                    location,
                )
            )
        else:
            # Sorted-within-row invariant; row starts are exempt.
            row_starts = indptr[1:-1]
            row_starts = row_starts[row_starts < len(indices)]
            interior = np.ones(len(indices), dtype=bool)
            interior[row_starts] = False
            broken = (np.diff(indices) <= 0) & interior[1:]
            if np.any(broken):
                position = int(np.flatnonzero(broken)[0]) + 1
                row = int(np.searchsorted(indptr, position, side="right")) - 1
                out.append(
                    IntegrityViolation(
                        "csr-column-order",
                        f"column indices not strictly increasing in row {row}",
                        location,
                    )
                )
    return out


def verify_csr(
    matrix: CSRMatrix, *, location: str = "csr"
) -> list[IntegrityViolation]:
    """Deep-check a CSR payload's structural invariants."""
    return _verify_csr_arrays(
        matrix.rows,
        matrix.cols,
        matrix.indptr,
        matrix.indices,
        matrix.values,
        location,
    )


def verify_dense(
    matrix: DenseMatrix, *, location: str = "dense"
) -> list[IntegrityViolation]:
    """Deep-check a dense payload (finiteness)."""
    if np.isfinite(matrix.array).all():
        return []
    bad = np.argwhere(~np.isfinite(matrix.array))[0]
    return [
        IntegrityViolation(
            "dense-nonfinite",
            f"non-finite value at ({int(bad[0])}, {int(bad[1])})",
            location,
        )
    ]


# ---------------------------------------------------------------------------
# tile directories
# ---------------------------------------------------------------------------


def _verify_directory(
    rows: int,
    cols: int,
    extents: list[tuple[int, int, int, int]],
) -> list[IntegrityViolation]:
    """Bounds and pairwise disjointness of a tile directory.

    ``extents`` holds ``(row0, col0, tile_rows, tile_cols)`` per tile.
    Coverage means every tile lies inside the matrix (regions *without*
    a tile are implicitly zero, so gaps are legal); disjointness means
    no element belongs to two tiles.
    """
    out: list[IntegrityViolation] = []
    for index, (r0, c0, tr, tc) in enumerate(extents):
        if tr <= 0 or tc <= 0 or r0 < 0 or c0 < 0 or r0 + tr > rows or c0 + tc > cols:
            out.append(
                IntegrityViolation(
                    "tile-bounds",
                    f"tile [{r0}:{r0 + tr}, {c0}:{c0 + tc}] outside "
                    f"matrix bounds {rows} x {cols}",
                    f"tile {index}",
                )
            )
    # Sweep in row-major order; only neighbors with overlapping row
    # ranges can collide, which keeps the scan near-linear for the
    # row-aligned directories the partitioner emits.
    order = sorted(range(len(extents)), key=lambda i: (extents[i][0], extents[i][1]))
    for position, i in enumerate(order):
        r0, c0, tr, tc = extents[i]
        for j in order[position + 1 :]:
            s0, d0, sr, sc = extents[j]
            if s0 >= r0 + tr:
                break  # sorted by row0: nothing below can overlap i's rows
            if r0 < s0 + sr and s0 < r0 + tr and c0 < d0 + sc and d0 < c0 + tc:
                out.append(
                    IntegrityViolation(
                        "tile-overlap",
                        f"tiles {i} and {j} overlap: "
                        f"[{r0}:{r0 + tr}, {c0}:{c0 + tc}] vs "
                        f"[{s0}:{s0 + sr}, {d0}:{d0 + sc}]",
                        f"tile {i}",
                    )
                )
    return out


def verify_at_matrix(matrix: Any) -> list[IntegrityViolation]:
    """Deep-check an :class:`~repro.core.atmatrix.ATMatrix`.

    Verifies the tile directory (bounds, disjointness) and every tile
    payload (CSR structure, dense finiteness, shape consistency).
    """
    with observe_session.maybe_span("integrity.verify", attrs={"kind": "at"}):
        violations = _verify_directory(
            matrix.rows,
            matrix.cols,
            [(t.row0, t.col0, t.rows, t.cols) for t in matrix.tiles],
        )
        for index, tile in enumerate(matrix.tiles):
            location = f"tile {index}"
            if tile.data.shape != (tile.rows, tile.cols):
                violations.append(
                    IntegrityViolation(
                        "tile-shape",
                        f"payload shape {tile.data.shape} != directory "
                        f"extent {(tile.rows, tile.cols)}",
                        location,
                    )
                )
                continue
            if isinstance(tile.data, CSRMatrix):
                violations.extend(verify_csr(tile.data, location=location))
            else:
                violations.extend(verify_dense(tile.data, location=location))
        observe_session.counter("integrity.violations").inc(len(violations))
        return violations


# ---------------------------------------------------------------------------
# serialized archives
# ---------------------------------------------------------------------------


def verify_archive(path: str | Path) -> list[IntegrityViolation]:
    """Deep-check a ``save_at_matrix`` archive without trusting loaders.

    Reads the raw arrays, verifies every stored CRC-32C (format v2;
    v1 archives carry none and skip this stage), then re-runs the full
    structural verification on the raw payloads.  An archive that cannot
    be opened at all — truncation, a flipped byte in the compressed
    stream, not a zip — yields a single ``archive-unreadable`` violation
    rather than raising.
    """
    from ..formats.serialize import read_archive_arrays

    with observe_session.maybe_span("integrity.verify", attrs={"kind": "archive"}):
        try:
            arrays, checksums = read_archive_arrays(path)
        except Exception as error:  # noqa: BLE001 — any failure mode is a finding
            observe_session.counter("integrity.violations").inc()
            return [
                IntegrityViolation(
                    "archive-unreadable",
                    f"{type(error).__name__}: {error}",
                    str(path),
                )
            ]
        violations = _verify_archive_checksums(arrays, checksums)
        violations.extend(_verify_archive_structure(arrays))
        observe_session.counter("integrity.violations").inc(len(violations))
        return violations


def _verify_archive_checksums(
    arrays: dict[str, np.ndarray], checksums: dict[str, int] | None
) -> list[IntegrityViolation]:
    if checksums is None:  # format v1: no checksums to verify
        return []
    out: list[IntegrityViolation] = []
    for name, expected in sorted(checksums.items()):
        if name not in arrays:
            out.append(
                IntegrityViolation(
                    "archive-structure",
                    f"checksummed member {name!r} missing from the archive",
                    name,
                )
            )
            continue
        actual = crc32c(arrays[name])
        if actual != expected:
            out.append(
                IntegrityViolation(
                    "archive-checksum",
                    f"CRC-32C mismatch: stored {expected:#010x}, "
                    f"computed {actual:#010x}",
                    name,
                )
            )
    for name in sorted(arrays):
        if name != "checksums" and name not in checksums:
            out.append(
                IntegrityViolation(
                    "archive-structure",
                    f"member {name!r} carries no checksum",
                    name,
                )
            )
    return out


def _verify_archive_structure(
    arrays: dict[str, np.ndarray],
) -> list[IntegrityViolation]:
    """Structural verification of the raw archive members."""
    out: list[IntegrityViolation] = []
    meta = arrays.get("meta")
    header = arrays.get("tiles")
    if meta is None or len(meta) < 9 or header is None:
        out.append(
            IntegrityViolation(
                "archive-structure",
                "meta/tiles members missing or truncated",
                "meta",
            )
        )
        return out
    rows, cols = int(meta[1]), int(meta[2])
    extents: list[tuple[int, int, int, int]] = []
    for i, entry in enumerate(header):
        if len(entry) != 6:
            out.append(
                IntegrityViolation(
                    "archive-structure",
                    f"tile directory entry {i} has {len(entry)} fields, expected 6",
                    f"tile {i}",
                )
            )
            continue
        row0, col0, t_rows, t_cols, is_dense, _node = (int(x) for x in entry)
        extents.append((row0, col0, t_rows, t_cols))
        location = f"tile {i}"
        if is_dense:
            dense = arrays.get(f"dense_{i}")
            if dense is None:
                out.append(
                    IntegrityViolation(
                        "archive-structure", "dense payload missing", location
                    )
                )
            elif dense.shape != (t_rows, t_cols):
                out.append(
                    IntegrityViolation(
                        "tile-shape",
                        f"payload shape {dense.shape} != directory "
                        f"extent {(t_rows, t_cols)}",
                        location,
                    )
                )
            elif not np.isfinite(dense).all():
                out.append(
                    IntegrityViolation(
                        "dense-nonfinite", "non-finite value in payload", location
                    )
                )
        else:
            triple = tuple(
                arrays.get(f"{part}_{i}") for part in ("indptr", "indices", "values")
            )
            if any(member is None for member in triple):
                out.append(
                    IntegrityViolation(
                        "archive-structure", "CSR payload arrays missing", location
                    )
                )
                continue
            indptr, indices, values = triple
            assert indptr is not None and indices is not None and values is not None
            out.extend(
                _verify_csr_arrays(t_rows, t_cols, indptr, indices, values, location)
            )
    out.extend(_verify_directory(rows, cols, extents))
    return out


# ---------------------------------------------------------------------------
# raising front door
# ---------------------------------------------------------------------------


def check_integrity(target: Any) -> None:
    """Verify ``target`` and raise :class:`IntegrityError` on any violation.

    ``target`` may be an archive path, an AT Matrix, or a bare
    CSR/dense payload.
    """
    if isinstance(target, (str, Path)):
        violations = verify_archive(target)
    elif isinstance(target, CSRMatrix):
        violations = verify_csr(target)
    elif isinstance(target, DenseMatrix):
        violations = verify_dense(target)
    else:
        violations = verify_at_matrix(target)
    if violations:
        shown = "; ".join(violation.render() for violation in violations[:4])
        suffix = "; ..." if len(violations) > 4 else ""
        raise IntegrityError(
            f"{len(violations)} integrity violation(s): {shown}{suffix}",
            violations=violations,
        )
