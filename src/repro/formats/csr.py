"""Compressed Sparse Row (CSR) format, from scratch on numpy arrays.

CSR stores one row-pointer array (``indptr``, length ``rows + 1``) plus the
column ids and values of all non-zeros in row-major order (paper Fig. 1).
Per paper section III-B the column ids inside every row are kept sorted at
creation time so that referenced submatrix multiplications can locate a
column range with binary search instead of scanning whole rows.

Memory accounting follows the paper's ``S_sp = 16`` bytes per element
(value + coordinate).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from .._types import FloatArray, IndexArray
from ..config import S_SPARSE
from ..errors import FormatError, ShapeError


class CSRMatrix:
    """A sparse matrix in CSR layout with per-row sorted column indices."""

    # _structure_fp caches the engine's topology fingerprint (lazily set
    # by repro.engine.fingerprint; absent until first fingerprinting).
    __slots__ = ("rows", "cols", "indptr", "indices", "values", "_keys", "_structure_fp")

    rows: int
    cols: int
    indptr: IndexArray
    indices: IndexArray
    values: FloatArray

    def __init__(
        self,
        rows: int,
        cols: int,
        indptr: ArrayLike,
        indices: ArrayLike,
        values: ArrayLike,
        *,
        check: bool = True,
        copy: bool = True,
    ) -> None:
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = np.array(indptr, dtype=np.int64, copy=copy).ravel()
        self.indices = np.array(indices, dtype=np.int64, copy=copy).ravel()
        self.values = np.array(values, dtype=np.float64, copy=copy).ravel()
        self._keys: IndexArray | None = None
        if check:
            self._validate()

    def _validate(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ShapeError(f"dimensions must be positive, got {self.shape}")
        if len(self.indptr) != self.rows + 1:
            raise FormatError(
                f"indptr length {len(self.indptr)} != rows + 1 = {self.rows + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise FormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if len(self.indices) != len(self.values):
            raise FormatError("indices and values must have equal lengths")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.cols:
                raise FormatError("column indices outside matrix width")
            # Sorted-within-row invariant (needed for binary column search).
            # Positions where a new row starts are exempt from the check;
            # trailing empty rows give row starts == nnz, which are clipped.
            row_starts = self.indptr[1:-1]
            row_starts = row_starts[row_starts < self.nnz]
            interior = np.ones(self.nnz, dtype=bool)
            interior[row_starts] = False
            if np.any((np.diff(self.indices) <= 0) & interior[1:]):
                raise FormatError("column indices must be strictly increasing per row")

    # -- constructors -------------------------------------------------------
    @classmethod
    def empty(cls, rows: int, cols: int) -> CSRMatrix:
        """A matrix of the given shape with no stored elements."""
        return cls(
            rows,
            cols,
            np.zeros(rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            check=False,
            copy=False,
        )

    @classmethod
    def from_arrays_unsorted(
        cls,
        rows: int,
        cols: int,
        row_ids: ArrayLike,
        col_ids: ArrayLike,
        values: ArrayLike,
        *,
        sum_duplicates: bool = True,
    ) -> CSRMatrix:
        """Build from unordered coordinate arrays (sorting + dedup here)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        col_ids = np.asarray(col_ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(row_ids) == len(col_ids) == len(values)):
            raise FormatError("coordinate arrays must have equal lengths")
        if not len(values):
            return cls.empty(rows, cols)
        keys = row_ids * np.int64(cols) + col_ids
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        if sum_duplicates:
            boundaries = np.empty(len(keys), dtype=bool)
            boundaries[0] = True
            np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
            starts = np.flatnonzero(boundaries)
            values = np.add.reduceat(values, starts)
            keys = keys[starts]
            # Exact cancellations are dropped, matching COO semantics.
            keep = values != 0.0
            if not keep.all():
                keys = keys[keep]
                values = values[keep]
            if not len(values):
                return cls.empty(rows, cols)
        sorted_rows = keys // cols
        sorted_cols = keys % cols
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(indptr, sorted_rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(rows, cols, indptr, sorted_cols, values, copy=False)

    # -- basic properties ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def density(self) -> float:
        """Population density ``rho = nnz / (rows * cols)``."""
        return self.nnz / (self.rows * self.cols)

    def row_nnz(self) -> IndexArray:
        """Non-zero count of every row (length ``rows``)."""
        return np.diff(self.indptr)

    def memory_bytes(self) -> int:
        """Paper-model CSR footprint: ``S_sp`` bytes per stored element."""
        return self.nnz * S_SPARSE

    def sorted_keys(self) -> IndexArray:
        """Globally sorted row-major element keys ``row * cols + col``.

        Because CSR stores rows in order and columns sorted within each
        row, this array is ascending, so any rectangular window resolves
        to per-row ranges with one vectorized binary search.  Computed
        lazily and cached (adds 8 bytes per non-zero on first use).
        """
        if self._keys is None:
            rows = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_nnz())
            self._keys = rows * np.int64(self.cols) + self.indices
        return self._keys

    def window_ranges(
        self, row0: int, row1: int, col0: int, col1: int
    ) -> tuple[IndexArray, IndexArray]:
        """Per-row ``(lo, hi)`` storage-index bounds of a half-open window."""
        if col0 == 0 and col1 == self.cols:
            return self.indptr[row0:row1], self.indptr[row0 + 1 : row1 + 1]
        keys = self.sorted_keys()
        row_range = np.arange(row0, row1, dtype=np.int64) * np.int64(self.cols)
        lo = np.searchsorted(keys, row_range + col0, side="left")
        hi = np.searchsorted(keys, row_range + col1, side="left")
        return lo, hi

    # -- element access --------------------------------------------------------
    def row_slice(self, row: int) -> tuple[IndexArray, FloatArray]:
        """``(column ids, values)`` views of one row."""
        start, end = self.indptr[row], self.indptr[row + 1]
        return self.indices[start:end], self.values[start:end]

    def window_mask(
        self, row0: int, row1: int, col0: int, col1: int
    ) -> tuple[IndexArray, IndexArray, FloatArray]:
        """Entries inside a half-open window as ``(rows, cols, values)``,
        re-based to the window origin.

        Row ranges are resolved through ``indptr`` (free); the column range
        uses per-row binary search over the sorted column ids, mirroring
        the referenced-submatrix access path of paper section III-B.
        """
        if not (0 <= row0 <= row1 <= self.rows and 0 <= col0 <= col1 <= self.cols):
            raise ShapeError(
                f"window [{row0}:{row1}, {col0}:{col1}] outside {self.shape}"
            )
        lo, hi = self.window_ranges(row0, row1, col0, col1)
        lengths = hi - lo
        total = int(lengths.sum())
        if not total:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        take = _segment_gather_indices(lo, lengths)
        out_rows = np.repeat(np.arange(row1 - row0, dtype=np.int64), lengths)
        return out_rows, self.indices[take] - col0, self.values[take]

    def extract_window(self, row0: int, row1: int, col0: int, col1: int) -> CSRMatrix:
        """A standalone CSR matrix holding the windowed submatrix."""
        rows, cols, values = self.window_mask(row0, row1, col0, col1)
        return CSRMatrix.from_arrays_unsorted(
            max(1, row1 - row0),
            max(1, col1 - col0),
            rows,
            cols,
            values,
            sum_duplicates=False,
        )

    def column_nnz(self) -> IndexArray:
        """Non-zero count of every column (length ``cols``)."""
        counts = np.zeros(self.cols, dtype=np.int64)
        if self.nnz:
            np.add.at(counts, self.indices, 1)
        return counts

    def diagonal(self) -> FloatArray:
        """The main diagonal as a dense vector (missing entries are 0)."""
        out = np.zeros(min(self.rows, self.cols), dtype=np.float64)
        for row in range(len(out)):
            cols, vals = self.row_slice(row)
            position = np.searchsorted(cols, row)
            if position < len(cols) and cols[position] == row:
                out[row] = vals[position]
        return out

    # -- conversions / utilities ------------------------------------------------
    def to_dense(self) -> FloatArray:
        """Materialize as a 2-D numpy array."""
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            rows = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_nnz())
            out[rows, self.indices] = self.values
        return out

    def transpose(self) -> CSRMatrix:
        """The transposed matrix as a new CSR matrix."""
        if not self.nnz:
            return CSRMatrix.empty(self.cols, self.rows)
        rows = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_nnz())
        return CSRMatrix.from_arrays_unsorted(
            self.cols, self.rows, self.indices, rows, self.values, sum_duplicates=False
        )

    def scale(self, factor: float) -> CSRMatrix:
        """A copy with all values multiplied by ``factor``."""
        return CSRMatrix(
            self.rows,
            self.cols,
            self.indptr,
            self.indices,
            self.values * factor,
            check=False,
        )

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # As DenseMatrix.__setstate__: view unpickled arrays with numpy's
        # builtin dtypes so the kernels stay on their fast paths.
        for name, value in state[1].items():
            setattr(self, name, value)
        self.indptr = self.indptr.view(np.int64)
        self.indices = self.indices.view(np.int64)
        self.values = self.values.view(np.float64)
        if self._keys is not None:
            self._keys = self._keys.view(np.int64)

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


class CSRRunView(CSRMatrix):
    """A zero-copy view of a CSR payload that memoizes its window lookups.

    The executor hands the kernels one view per sparse tile and run.  A
    window of an A tile meets every B window of its tile row, so its
    per-row ranges (:meth:`window_ranges`) and its window triples
    (``window_memo``, filled by :mod:`repro.kernels.products`) are
    resolved once per run instead of once per product.  The view shares
    the payload's arrays and is dropped with the run, so persisted tiles
    carry no memo state.  Two threads filling the same window may both
    compute it; the results are identical and either one is kept.
    """

    __slots__ = ("source", "_ranges", "window_memo")

    def __init__(self, source: CSRMatrix) -> None:
        # Shared, not copied or re-validated: the source is already valid.
        self.rows, self.cols = source.rows, source.cols
        self.indptr, self.indices, self.values = (
            source.indptr, source.indices, source.values,
        )
        self._keys = None
        self.source = source
        self._ranges: dict[tuple[int, int, int, int], tuple[IndexArray, IndexArray]] = {}
        self.window_memo: dict[object, tuple[IndexArray, IndexArray, FloatArray]] = {}

    def sorted_keys(self) -> IndexArray:
        # Cached on the payload, where it outlives the run.
        return self.source.sorted_keys()

    def window_ranges(
        self, row0: int, row1: int, col0: int, col1: int
    ) -> tuple[IndexArray, IndexArray]:
        key = (row0, row1, col0, col1)
        ranges = self._ranges.get(key)
        if ranges is None:
            ranges = self._ranges[key] = super().window_ranges(row0, row1, col0, col1)
        return ranges


def _segment_gather_indices(starts: IndexArray, lengths: IndexArray) -> IndexArray:
    """Flat gather indices for variable-length segments.

    Produces ``concat(arange(s, s + l) for s, l in zip(starts, lengths))``
    without a Python loop.
    """
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(starts - _exclusive_cumsum(lengths), lengths)
    return np.arange(total, dtype=np.int64) + offsets


def _exclusive_cumsum(values: IndexArray) -> IndexArray:
    out = np.empty(len(values), dtype=np.int64)
    out[0] = 0
    np.cumsum(values[:-1], out=out[1:])
    return out
