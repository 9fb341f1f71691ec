"""Windowed tile-product primitives underlying the 8 multiplication kernels.

Four product routines cover the (sparse|dense) x (sparse|dense) operand
combinations; each exists in a variant producing a dense block and one
producing compressed coordinate triples, giving the paper's ``2**3 = 8``
kernels once combined with the two accumulator flavors.

Sparse x sparse products follow Gustavson's row-wise algorithm, vectorized:
every non-zero ``A[i,k]`` is expanded against row ``k`` of ``B``
(:func:`spsp_expansion`).  How the partial products are merged depends on
the target:

* a dense target (:func:`spsp_dense`, and ``spspd_gemm`` through
  ``DenseAccumulator.add_triples``) scatter-adds them straight into the
  block with :func:`scatter_add`, which sums duplicates itself, so nothing
  is sorted.  A dense tile is the extreme case of a scatter accumulator;
  sort-based accumulation only pays at high compression ratios
  (arXiv:1804.01698);
* a sparse target (:func:`spsp_triples`) sorts and compresses each chunk,
  so the runs buffered by the sparse accumulator stay bounded.

All routines chunk their expansion buffers at :data:`EXPANSION_CHUNK`
elements.  The budget is L2-sized, not merely memory-bounding: every pass
over a chunk (gather, multiply, reduction, scatter) then stays in cache.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .._types import FloatArray, IndexArray
from ..errors import ShapeError
from ..formats.csr import CSRMatrix, CSRRunView
from ..formats.dense import DenseMatrix
from .window import Window

#: Expansion buffer budget (elements) for chunked products: 512 KiB per
#: float64/int64 temporary, so a chunk's working set fits in L2.  A 4M-element
#: chunk spent longer faulting in and streaming its temporaries than
#: computing: a 256x256x256 sparse x dense window at 7% density took 12 ms
#: at ``1 << 22`` and 5 ms at ``1 << 16`` (2-core Xeon, 4 MiB L2).
EXPANSION_CHUNK = 1 << 16

Triples = tuple[IndexArray, IndexArray, FloatArray]


def _empty_triples() -> Triples:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty, np.empty(0, dtype=np.float64)


def _check_inner(wa: Window, wb: Window) -> None:
    if wa.cols != wb.rows:
        raise ShapeError(
            f"inner dimensions differ: A window {wa.rows}x{wa.cols}"
            f" vs B window {wb.rows}x{wb.cols}"
        )


def compress_triples(
    rows: IndexArray, cols: IndexArray, values: FloatArray, ncols: int
) -> Triples:
    """Sort triples row-major and sum duplicates, dropping explicit zeros."""
    if not len(values):
        return _empty_triples()
    keys = rows * np.int64(ncols) + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    summed = np.add.reduceat(values, starts)
    keys = keys[starts]
    keep = summed != 0.0
    keys = keys[keep]
    summed = summed[keep]
    return keys // ncols, keys % ncols, summed


def scatter_add(
    out: FloatArray, row0: int, col0: int,
    rows: IndexArray, cols: IndexArray, values: FloatArray,
) -> None:
    """Add coordinate triples at offset ``(row0, col0)`` into ``out``.

    ``out`` must be a C-contiguous 2-D array.  Duplicate coordinates are
    summed in input order.  The scatter runs as one ``np.add.at`` over flat
    indices: on numpy 2.4 its 1-D fast path measured 4-10x faster than
    ``add.at`` with a ``(rows, cols)`` index, and faster than a
    ``bincount`` histogram of the whole array at every size tried.  numpy
    releases before 1.25 lack that fast path.  It also needs ``values``
    to carry numpy's builtin float64 dtype object: an unpickled array's
    dtype compares equal but is another object, and on numpy 2.4.6 a
    200k-entry scatter of such values into a 256x256 block took 24 ms
    against 2.0 ms.  Tile payloads restore the builtin dtypes when
    unpickled (``DenseMatrix.__setstate__``, ``CSRMatrix.__setstate__``).
    """
    ncols = out.shape[1]
    flat = rows * np.int64(ncols)
    flat += cols
    flat += row0 * ncols + col0
    np.add.at(out.ravel(), flat, values)


def _csr_row_ranges(
    matrix: CSRMatrix, window: Window
) -> tuple[IndexArray, IndexArray]:
    """Per-row ``(lo, hi)`` index bounds of ``matrix`` inside ``window``.

    The column range is resolved with one vectorized binary search over
    the matrix's sorted row-major keys (paper section III-B: sorted
    column ids enable binary column-id search).
    """
    return matrix.window_ranges(window.row0, window.row1, window.col0, window.col1)


def _csr_window_triples(matrix: CSRMatrix, window: Window) -> Triples:
    """Window-relative triples of a CSR operand, row-major order."""
    return matrix.window_mask(window.row0, window.row1, window.col0, window.col1)


def _window_triples(matrix: CSRMatrix, window: Window) -> Triples:
    """:func:`_csr_window_triples`, extracted once per window on a run view.

    Callers only read the returned arrays: on a
    :class:`~repro.formats.csr.CSRRunView` they are shared by every
    product of the run that reads the same window.
    """
    if not isinstance(matrix, CSRRunView):
        return _csr_window_triples(matrix, window)
    triples = matrix.window_memo.get(window)
    if triples is None:
        triples = matrix.window_memo[window] = _csr_window_triples(matrix, window)
    return triples


# ---------------------------------------------------------------------------
# sparse x sparse
# ---------------------------------------------------------------------------
def spsp_expansion(
    a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window
) -> Iterator[Triples]:
    """Uncompressed partial products of the windowed CSR x CSR product.

    Every non-zero ``A[i,k]`` is expanded against row ``k`` of ``B``
    (Gustavson).  Yields window-relative ``(rows, cols, values)`` chunks of
    at most ``EXPANSION_CHUNK`` elements — more only when a single ``B`` row
    exceeds it — in row-major order of ``A``; duplicates are left for the
    consumer to merge.
    """
    _check_inner(wa, wb)
    a_rows, a_cols, a_vals = _window_triples(a, wa)
    if not len(a_vals):
        return
    b_lo, b_hi = _csr_row_ranges(b, wb)
    b_starts = b_lo[a_cols]
    lens = b_hi[a_cols] - b_starts
    ends = np.cumsum(lens)
    total = int(ends[-1])
    # Element e of the whole expansion, produced by A non-zero j, gathers
    # B entry b_starts[j] + e - (ends[j] - lens[j]) = shift[j] + e.
    shift = b_starts - ends + lens
    start = base = 0
    while base < total:
        if total - base <= EXPANSION_CHUNK:
            end = len(a_vals)
        else:
            end = int(np.searchsorted(ends, base + EXPANSION_CHUNK, side="right"))
            end = max(end, start + 1)
        stop = int(ends[end - 1])
        if stop > base:
            chunk_lens = lens[start:end]
            take = np.repeat(shift[start:end], chunk_lens)
            take += np.arange(base, stop, dtype=np.int64)
            cols = b.indices[take]
            cols -= wb.col0
            values = np.repeat(a_vals[start:end], chunk_lens)
            values *= b.values[take]
            yield np.repeat(a_rows[start:end], chunk_lens), cols, values
        start, base = end, stop


def spsp_triples(a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window) -> Triples:
    """Windowed CSR x CSR product as compressed triples (Gustavson).

    Each expansion chunk is compressed as it is produced, which bounds
    the memory held for a sparse target; the compressed runs are merged
    once more when there are several.
    """
    runs = [
        compress_triples(*chunk, wb.cols) for chunk in spsp_expansion(a, wa, b, wb)
    ]
    if not runs:
        return _empty_triples()
    if len(runs) == 1:
        return runs[0]
    return compress_triples(
        np.concatenate([run[0] for run in runs]),
        np.concatenate([run[1] for run in runs]),
        np.concatenate([run[2] for run in runs]),
        wb.cols,
    )


def spsp_flops(a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window) -> int:
    """Exact scalar-multiplication count of the windowed CSR x CSR product."""
    _check_inner(wa, wb)
    __, a_cols, __ = _window_triples(a, wa)
    if not len(a_cols):
        return 0
    b_lo, b_hi = _csr_row_ranges(b, wb)
    return int((b_hi - b_lo)[a_cols].sum())


def spsp_dense(a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window) -> FloatArray:
    """Windowed CSR x CSR product materialized as a dense block.

    The expansion chunks are scattered straight into the block, which
    sums duplicates itself, so nothing is sorted.
    """
    out = np.zeros((wa.rows, wb.cols), dtype=np.float64)
    for rows, cols, values in spsp_expansion(a, wa, b, wb):
        scatter_add(out, 0, 0, rows, cols, values)
    return out


# ---------------------------------------------------------------------------
# sparse x dense
# ---------------------------------------------------------------------------
def spd_dense(a: CSRMatrix, wa: Window, b: DenseMatrix, wb: Window) -> FloatArray:
    """Windowed CSR x dense product as a dense block.

    For every non-zero ``A[i,k]`` the dense row ``B[k,:]`` is scaled and
    added into output row ``i``; rows are merged with a segmented
    reduction instead of a scatter.
    """
    _check_inner(wa, wb)
    b_view = b.window_view(wb.row0, wb.row1, wb.col0, wb.col1)
    out = np.zeros((wa.rows, wb.cols), dtype=np.float64)
    a_rows, a_cols, a_vals = _window_triples(a, wa)
    if not len(a_vals):
        return out
    chunk = max(1, EXPANSION_CHUNK // max(1, wb.cols))
    for start in range(0, len(a_vals), chunk):
        end = min(start + chunk, len(a_vals))
        rows_c = a_rows[start:end]
        expanded = a_vals[start:end, None] * b_view[a_cols[start:end]]
        boundaries = np.empty(end - start, dtype=bool)
        boundaries[0] = True
        np.not_equal(rows_c[1:], rows_c[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        # Rows are unique within a chunk; += merges rows split across chunks.
        out[rows_c[starts]] += np.add.reduceat(expanded, starts, axis=0)
    return out


def spd_triples(a: CSRMatrix, wa: Window, b: DenseMatrix, wb: Window) -> Triples:
    """Windowed CSR x dense product as compressed triples."""
    block = spd_dense(a, wa, b, wb)
    rows, cols = np.nonzero(block)
    return rows.astype(np.int64), cols.astype(np.int64), block[rows, cols]


# ---------------------------------------------------------------------------
# dense x sparse
# ---------------------------------------------------------------------------
def dsp_dense(a: DenseMatrix, wa: Window, b: CSRMatrix, wb: Window) -> FloatArray:
    """Windowed dense x CSR product as a dense block.

    Every non-zero ``B[k,j]`` contributes ``A[:,k] * v`` to output column
    ``j``; contributions are grouped by target column and merged with a
    segmented reduction along the expansion axis.
    """
    _check_inner(wa, wb)
    a_view = a.window_view(wa.row0, wa.row1, wa.col0, wa.col1)
    out = np.zeros((wa.rows, wb.cols), dtype=np.float64)
    b_rows, b_cols, b_vals = _window_triples(b, wb)
    if not len(b_vals):
        return out
    order = np.argsort(b_cols, kind="stable")
    b_rows, b_cols, b_vals = b_rows[order], b_cols[order], b_vals[order]
    chunk = max(1, EXPANSION_CHUNK // max(1, wa.rows))
    for start in range(0, len(b_vals), chunk):
        end = min(start + chunk, len(b_vals))
        cols_c = b_cols[start:end]
        expanded = a_view[:, b_rows[start:end]] * b_vals[start:end]
        boundaries = np.empty(end - start, dtype=bool)
        boundaries[0] = True
        np.not_equal(cols_c[1:], cols_c[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        out[:, cols_c[starts]] += np.add.reduceat(expanded, starts, axis=1)
    return out


def dsp_triples(a: DenseMatrix, wa: Window, b: CSRMatrix, wb: Window) -> Triples:
    """Windowed dense x CSR product as compressed triples."""
    block = dsp_dense(a, wa, b, wb)
    rows, cols = np.nonzero(block)
    return rows.astype(np.int64), cols.astype(np.int64), block[rows, cols]


# ---------------------------------------------------------------------------
# dense x dense
# ---------------------------------------------------------------------------
def dd_dense(a: DenseMatrix, wa: Window, b: DenseMatrix, wb: Window) -> FloatArray:
    """Windowed dense x dense product (delegates to BLAS via numpy)."""
    _check_inner(wa, wb)
    a_view = a.window_view(wa.row0, wa.row1, wa.col0, wa.col1)
    b_view = b.window_view(wb.row0, wb.row1, wb.col0, wb.col1)
    return a_view @ b_view


def dd_triples(a: DenseMatrix, wa: Window, b: DenseMatrix, wb: Window) -> Triples:
    """Windowed dense x dense product as compressed triples."""
    block = dd_dense(a, wa, b, wb)
    rows, cols = np.nonzero(block)
    return rows.astype(np.int64), cols.astype(np.int64), block[rows, cols]


__all__ = [
    "EXPANSION_CHUNK",
    "compress_triples",
    "scatter_add",
    "spsp_triples",
    "spsp_expansion",
    "spsp_dense",
    "spsp_flops",
    "spd_dense",
    "spd_triples",
    "dsp_dense",
    "dsp_triples",
    "dd_dense",
    "dd_triples",
]
