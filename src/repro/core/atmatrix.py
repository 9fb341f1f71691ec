"""The Adaptive Tile Matrix (AT MATRIX) container.

An :class:`ATMatrix` is the heterogeneous tiled representation of paper
section II: a directory of variable-size tiles (dense arrays or CSR),
plus an atomic-block-granularity index that maps any block coordinate to
its covering tile.  Regions without a tile are implicitly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..density.map import DensityMap
from ..errors import FormatError, ShapeError
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kinds import StorageKind
from ..zorder.zspace import ZSpace
from .tile import Tile


@dataclass
class ATMatrix:
    """A matrix stored as adaptive, heterogeneous tiles.

    Attributes
    ----------
    rows, cols:
        Element dimensions of the matrix.
    config:
        The :class:`SystemConfig` the matrix was partitioned under (fixes
        ``b_atomic`` and the tile-size bounds).
    tiles:
        The materialized tiles; positions are quadtree-aligned and
        mutually disjoint.
    """

    rows: int
    cols: int
    config: SystemConfig
    tiles: list[Tile] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ShapeError(f"dimensions must be positive, got {self.shape}")
        self._index: np.ndarray | None = None
        self._density_map: DensityMap | None = None
        self._structural_density_map: DensityMap | None = None
        self._structure_fp: str | None = None

    # -- basic properties -------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def nnz(self) -> int:
        return sum(tile.nnz for tile in self.tiles)

    @property
    def density(self) -> float:
        return self.nnz / (self.rows * self.cols)

    @property
    def zspace(self) -> ZSpace:
        assert self.config.b_atomic is not None
        return ZSpace(self.rows, self.cols, self.config.b_atomic)

    def memory_bytes(self) -> int:
        """Total paper-model footprint of all tile payloads."""
        return sum(tile.memory_bytes() for tile in self.tiles)

    def num_tiles(self, kind: StorageKind | None = None) -> int:
        """Number of tiles, optionally restricted to one storage kind."""
        if kind is None:
            return len(self.tiles)
        return sum(1 for tile in self.tiles if tile.kind is kind)

    def memory_breakdown(self) -> dict[str, int]:
        """Payload bytes split by storage kind (paper-model accounting)."""
        breakdown = {kind.value: 0 for kind in StorageKind}
        for tile in self.tiles:
            breakdown[tile.kind.value] += tile.memory_bytes()
        return breakdown

    # -- tile index ------------------------------------------------------------
    def _block_index(self) -> np.ndarray:
        """Block-grid array mapping each atomic block to its tile id (-1: none)."""
        if self._index is None:
            zspace = self.zspace
            index = np.full((zspace.grid_rows, zspace.grid_cols), -1, dtype=np.int64)
            b = zspace.b_atomic
            for tile_id, tile in enumerate(self.tiles):
                br0, bc0 = tile.row0 // b, tile.col0 // b
                br1 = -(-tile.row1 // b)
                bc1 = -(-tile.col1 // b)
                region = index[br0:br1, bc0:bc1]
                if (region != -1).any():
                    raise FormatError(f"tiles overlap at blocks [{br0}:{br1}, {bc0}:{bc1}]")
                region[:] = tile_id
            self._index = index
        return self._index

    def invalidate_index(self) -> None:
        """Drop cached derived state (call after mutating ``tiles``)."""
        self._index = None
        self._density_map = None
        self._structural_density_map = None
        self._structure_fp = None

    def tile_at(self, row: int, col: int) -> Tile | None:
        """The tile covering element ``(row, col)``, if any."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ShapeError(f"element ({row}, {col}) outside {self.shape}")
        b = self.zspace.b_atomic
        tile_id = self._block_index()[row // b, col // b]
        return self.tiles[tile_id] if tile_id >= 0 else None

    def tiles_overlapping(
        self, row0: int, row1: int, col0: int, col1: int
    ) -> list[Tile]:
        """All tiles intersecting the half-open element region."""
        return [
            self.tiles[i] for i in self.tile_ids_overlapping(row0, row1, col0, col1)
        ]

    def tile_ids_overlapping(
        self, row0: int, row1: int, col0: int, col1: int
    ) -> list[int]:
        """Ascending indices into ``tiles`` of :meth:`tiles_overlapping`."""
        if not (0 <= row0 <= row1 <= self.rows and 0 <= col0 <= col1 <= self.cols):
            raise ShapeError(
                f"region [{row0}:{row1}, {col0}:{col1}] outside {self.shape}"
            )
        if row0 == row1 or col0 == col1:
            return []
        b = self.zspace.b_atomic
        index = self._block_index()
        ids = np.unique(index[row0 // b : -(-row1 // b), col0 // b : -(-col1 // b)])
        return [int(i) for i in ids if i >= 0]

    # -- partition boundaries (used by ATMULT) -----------------------------------
    def row_cuts(self) -> list[int]:
        """Sorted distinct tile-row boundaries, always including 0 and ``rows``."""
        cuts = {0, self.rows}
        for tile in self.tiles:
            cuts.add(tile.row0)
            if tile.row1 < self.rows:
                cuts.add(tile.row1)
        return sorted(cuts)

    def col_cuts(self) -> list[int]:
        """Sorted distinct tile-column boundaries, including 0 and ``cols``."""
        cuts = {0, self.cols}
        for tile in self.tiles:
            cuts.add(tile.col0)
            if tile.col1 < self.cols:
                cuts.add(tile.col1)
        return sorted(cuts)

    # -- whole-matrix views ---------------------------------------------------
    def density_map(self, *, structural: bool = False) -> DensityMap:
        """Block-granular density map of the stored data.

        Computed tile-locally (no whole-matrix flattening) and cached as
        matrix metadata — the estimator's inputs are statistics the matrix
        carries, like SpMachO's density maps.

        ``structural=True`` is the view the planner consumes: dense
        tiles contribute their fingerprinted (two-decimal quantized)
        density spread uniformly over their extent, so the resulting
        estimate — and hence the cached plan — is a pure function of
        the plan key (see :mod:`repro.engine.fingerprint`).
        """
        cached = self._structural_density_map if structural else self._density_map
        if cached is not None:
            return cached
        computed = tile_density_map(
            self.tiles, self.rows, self.cols, self.zspace.b_atomic,
            structural=structural,
        )
        if structural:
            self._structural_density_map = computed
        else:
            self._density_map = computed
        return computed

    def to_coo(self) -> COOMatrix:
        """Flatten all tiles back into a single COO table."""
        rows_runs: list[np.ndarray] = []
        cols_runs: list[np.ndarray] = []
        vals_runs: list[np.ndarray] = []
        for tile in self.tiles:
            if isinstance(tile.data, CSRMatrix):
                row_ids = np.repeat(
                    np.arange(tile.rows, dtype=np.int64), tile.data.row_nnz()
                )
                col_ids = tile.data.indices
                values = tile.data.values
            else:
                row_ids, col_ids = np.nonzero(tile.data.array)
                values = tile.data.array[row_ids, col_ids]
            rows_runs.append(row_ids + tile.row0)
            cols_runs.append(col_ids + tile.col0)
            vals_runs.append(values)
        if not vals_runs:
            return COOMatrix.empty(self.rows, self.cols)
        return COOMatrix(
            self.rows,
            self.cols,
            np.concatenate(rows_runs),
            np.concatenate(cols_runs),
            np.concatenate(vals_runs),
            check=False,
        )

    def to_csr(self) -> CSRMatrix:
        """Flatten to a plain CSR matrix."""
        coo = self.to_coo()
        return CSRMatrix.from_arrays_unsorted(
            self.rows, self.cols, coo.row_ids, coo.col_ids, coo.values,
            sum_duplicates=False,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a 2-D numpy array."""
        out = np.zeros(self.shape, dtype=np.float64)
        for tile in self.tiles:
            if isinstance(tile.data, DenseMatrix):
                out[tile.row0 : tile.row1, tile.col0 : tile.col1] = tile.data.array
            else:
                block = tile.data.to_dense()
                out[tile.row0 : tile.row1, tile.col0 : tile.col1] = block
        return out

    def submatrix(self, row0: int, row1: int, col0: int, col1: int) -> ATMatrix:
        """The half-open region as a new AT Matrix (tiles clipped).

        Tiles fully inside the region share their payloads; boundary
        tiles are extracted through their windowed accessors.  The
        result keeps this matrix's configuration; re-partition with
        :func:`~repro.core.retile.retile` if the clipped topology calls
        for a different tiling.
        """
        if not (0 <= row0 < row1 <= self.rows and 0 <= col0 < col1 <= self.cols):
            raise ShapeError(
                f"region [{row0}:{row1}, {col0}:{col1}] invalid for {self.shape}"
            )
        b = self.zspace.b_atomic
        if row0 % b or col0 % b:
            # Unaligned origin: clipped tiles would not map cleanly onto
            # the block grid, so rebuild through the partitioner instead.
            from .builder import build_at_matrix

            window = self.to_coo().extract_window(row0, row1, col0, col1)
            return build_at_matrix(window, self.config)
        tiles: list[Tile] = []
        for tile in self.tiles_overlapping(row0, row1, col0, col1):
            lo_r, hi_r = max(row0, tile.row0), min(row1, tile.row1)
            lo_c, hi_c = max(col0, tile.col0), min(col1, tile.col1)
            if (lo_r, hi_r, lo_c, hi_c) == tile.extent:
                payload = tile.data
            else:
                payload = tile.data.extract_window(
                    lo_r - tile.row0, hi_r - tile.row0,
                    lo_c - tile.col0, hi_c - tile.col0,
                )
                if payload.nnz == 0 and isinstance(payload, CSRMatrix):
                    continue
            tiles.append(
                Tile(
                    lo_r - row0,
                    lo_c - col0,
                    hi_r - lo_r,
                    hi_c - lo_c,
                    tile.kind,
                    payload,
                    numa_node=tile.numa_node,
                )
            )
        return ATMatrix(row1 - row0, col1 - col0, self.config, tiles)

    def allclose(self, other: ATMatrix | np.ndarray, *, atol: float = 1e-12) -> bool:
        """Numerical equality against another matrix or dense array."""
        if isinstance(other, ATMatrix):
            if self.shape != other.shape:
                return False
            other = other.to_dense()
        other = np.asarray(other)
        if other.shape != self.shape:
            return False
        return bool(np.allclose(self.to_dense(), other, atol=atol))

    def transpose(self) -> ATMatrix:
        """The transposed matrix as a new AT Matrix.

        Every tile is transposed in place of its mirrored position; the
        quadtree alignment is preserved because positions and extents
        swap symmetrically.
        """
        tiles = [
            Tile(
                tile.col0,
                tile.row0,
                tile.cols,
                tile.rows,
                tile.kind,
                tile.data.transpose(),
                numa_node=tile.numa_node,
            )
            for tile in self.tiles
        ]
        return ATMatrix(self.cols, self.rows, self.config, tiles)

    def replace_tile(self, old: Tile, new: Tile) -> None:
        """Swap one tile object for another at the same position."""
        if (old.row0, old.col0, old.rows, old.cols) != (
            new.row0,
            new.col0,
            new.rows,
            new.cols,
        ):
            raise FormatError("replacement tile must occupy the same region")
        for i, tile in enumerate(self.tiles):
            if tile is old:
                self.tiles[i] = new
                self.invalidate_index()
                return
        raise FormatError("tile to replace is not part of this matrix")

    def __matmul__(self, other: ATMatrix | CSRMatrix | DenseMatrix) -> ATMatrix:
        """``A @ B`` runs ATMULT under this matrix's configuration."""
        from .atmult import atmult

        result, _ = atmult(self, other, config=self.config)
        return result

    def __getitem__(
        self, key: tuple[int | slice, int | slice]
    ) -> float | ATMatrix:
        """Element access ``at[i, j]`` and region access ``at[r0:r1, c0:c1]``.

        Element reads resolve through the tile index (dense tiles O(1),
        CSR tiles by binary search); slice pairs return a
        :meth:`submatrix`.  Slice steps are not supported.
        """
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError("expected at[row, col] or at[r0:r1, c0:c1]")
        row_key, col_key = key
        if isinstance(row_key, slice) and isinstance(col_key, slice):
            if row_key.step not in (None, 1) or col_key.step not in (None, 1):
                raise TypeError("slice steps are not supported")
            row0, row1, _ = row_key.indices(self.rows)
            col0, col1, _ = col_key.indices(self.cols)
            return self.submatrix(row0, row1, col0, col1)
        if isinstance(row_key, (int, np.integer)) and isinstance(
            col_key, (int, np.integer)
        ):
            row, col = int(row_key), int(col_key)
            if row < 0:
                row += self.rows
            if col < 0:
                col += self.cols
            tile = self.tile_at(row, col)
            if tile is None:
                return 0.0
            local_row = row - tile.row0
            local_col = col - tile.col0
            if isinstance(tile.data, DenseMatrix):
                return float(tile.data.array[local_row, local_col])
            cols, vals = tile.data.row_slice(local_row)
            position = np.searchsorted(cols, local_col)
            if position < len(cols) and cols[position] == local_col:
                return float(vals[position])
            return 0.0
        raise TypeError("mixed int/slice indexing is not supported")

    def __repr__(self) -> str:
        dense = self.num_tiles(StorageKind.DENSE)
        sparse = self.num_tiles(StorageKind.SPARSE)
        return (
            f"ATMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"tiles={len(self.tiles)} [{dense}d/{sparse}sp])"
        )


def _block_overlap(lo: int, hi: int, block: int) -> np.ndarray:
    """Element overlap of ``[lo, hi)`` with each block it touches."""
    edges = np.arange(lo // block, -(-hi // block) + 1, dtype=np.int64) * block
    return (np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)).astype(
        np.float64
    )


def tile_density_map(
    tiles: list[Tile],
    rows: int,
    cols: int,
    block: int,
    *,
    structural: bool = False,
) -> DensityMap:
    """Density map of a tile set at an arbitrary block granularity.

    With ``structural=True`` dense tiles contribute their quantized
    density uniformly over their extent instead of their exact non-zero
    pattern (see :meth:`ATMatrix.density_map`).
    """
    grid_rows = -(-rows // block)
    grid_cols = -(-cols // block)
    counts = np.zeros((grid_rows, grid_cols), dtype=np.float64)
    for tile in tiles:
        if isinstance(tile.data, CSRMatrix):
            row_ids = np.repeat(
                np.arange(tile.rows, dtype=np.int64), tile.data.row_nnz()
            )
            col_ids = tile.data.indices
        elif structural:
            # A dense tile is fingerprinted by extent + quantized density,
            # so the structural map spreads that density uniformly over
            # the extent (per-block variation is value detail the plan
            # key does not capture).
            counts[
                tile.row0 // block : -(-tile.row1 // block),
                tile.col0 // block : -(-tile.col1 // block),
            ] += tile.structural_density * np.outer(
                _block_overlap(tile.row0, tile.row1, block),
                _block_overlap(tile.col0, tile.col1, block),
            )
            continue
        else:
            row_ids, col_ids = np.nonzero(tile.data.array)
        np.add.at(
            counts,
            ((row_ids + tile.row0) // block, (col_ids + tile.col0) // block),
            1.0,
        )
    areas = DensityMap._areas(rows, cols, block)
    return DensityMap(rows, cols, block, counts / areas)
