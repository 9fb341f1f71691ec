"""Row-major dense matrix with referenced (leading-dimension) windows.

The paper's referenced submatrix multiplication exploits the BLAS ``gemm``
convention that an operand may live inside a larger array, addressed by an
offset plus a leading dimension ``lda`` (section III-B).  A
:class:`DenseMatrix` wraps a row-major numpy array; :meth:`window_view`
returns the equivalent of that offset/leading-dimension addressing — a
zero-copy numpy view.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from .._types import FloatArray
from ..config import S_DENSE
from ..errors import FormatError, ShapeError


class DenseMatrix:
    """A dense row-major matrix of doubles."""

    # _structure_fp caches the engine's topology fingerprint and _nnz the
    # non-zero count (both lazily set; stale if the backing array is
    # mutated in place, like every other derived statistic).
    __slots__ = ("array", "_structure_fp", "_nnz")

    array: FloatArray

    def __init__(self, array: ArrayLike, *, copy: bool = True) -> None:
        array = np.array(array, dtype=np.float64, copy=copy)
        if array.ndim != 2:
            raise FormatError(f"expected a 2-D array, got ndim={array.ndim}")
        if array.shape[0] <= 0 or array.shape[1] <= 0:
            raise ShapeError(f"dimensions must be positive, got {array.shape}")
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        self.array = array

    @classmethod
    def zeros(cls, rows: int, cols: int) -> DenseMatrix:
        """An all-zero matrix of the given shape."""
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"dimensions must be positive, got ({rows}, {cols})")
        return cls(np.zeros((rows, cols), dtype=np.float64), copy=False)

    # -- basic properties ----------------------------------------------------
    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def nnz(self) -> int:
        """Number of non-zero entries (by value, not storage)."""
        cached = getattr(self, "_nnz", None)
        if cached is None:
            cached = int(np.count_nonzero(self.array))
            self._nnz = cached
        return cached

    @property
    def density(self) -> float:
        """Population density by value."""
        return self.nnz / (self.rows * self.cols)

    def memory_bytes(self) -> int:
        """Paper-model dense footprint: ``S_d`` bytes per cell."""
        return self.rows * self.cols * S_DENSE

    # -- windows ---------------------------------------------------------------
    def window_view(self, row0: int, row1: int, col0: int, col1: int) -> FloatArray:
        """Zero-copy view of the half-open window (the ``lda`` trick)."""
        if not (0 <= row0 <= row1 <= self.rows and 0 <= col0 <= col1 <= self.cols):
            raise ShapeError(
                f"window [{row0}:{row1}, {col0}:{col1}] outside {self.shape}"
            )
        return self.array[row0:row1, col0:col1]

    def extract_window(self, row0: int, row1: int, col0: int, col1: int) -> DenseMatrix:
        """A standalone copy of the windowed submatrix."""
        return DenseMatrix(self.window_view(row0, row1, col0, col1))

    # -- utilities ---------------------------------------------------------------
    def to_dense(self) -> FloatArray:
        """The backing array (owned copy)."""
        return self.array.copy()

    def transpose(self) -> DenseMatrix:
        """The transposed matrix (materialized row-major)."""
        return DenseMatrix(self.array.T)

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # An unpickled array's dtype equals numpy's builtin float64 but is
        # another object, which takes ufuncs such as ``np.add.at`` off
        # their fast path; a view restores the builtin dtype, copying no
        # bytes.  Cached slots come back as they were pickled.
        for name, value in state[1].items():
            setattr(self, name, value)
        self.array = self.array.view(np.float64)

    def __repr__(self) -> str:
        return f"DenseMatrix(shape={self.shape}, nnz={self.nnz})"
