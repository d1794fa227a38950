"""Uniform grids over 3-D point sets.

The uniform grid is the workhorse substrate for three distinct roles:

* the cuNSearch/FRNN baselines (grid-based exhaustive neighbor search);
* RTNN's megacell computation (Section 5.1), which iteratively grows a
  box of cells around each query;
* point-density estimation for the bundling cost model.

Points are bucketed by flattened cell id with ``cell_start/cell_count``
CSR-style offsets, so "all points in cell c" is a contiguous slice.
The CSR arrays are O(total cells) to build, so they are built lazily.

Box counts (megacell growth) use one of two exact counters:

* grids of at most 64 cells per point: a summed-area table, O(cells)
  to build and O(1) per box;
* finer grids: binary searches over the sorted cell ids, O(N log N)
  to build and O((2g+1)^2 log N) per level-``g`` box, so megacell
  partitioning never pays for cells nobody occupies.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import scene_bounds
from repro.geometry.sat import SummedAreaTable3D

#: build the SAT only when the grid is at most this many cells per
#: point; finer grids answer box counts from the sorted cell ids
_DIRECT_CELLS_PER_POINT = 64
#: box columns (two search keys each) evaluated at once by the sparse counter
_SPARSE_CHUNK_COLUMNS = 1 << 15


class UniformGrid:
    """A uniform 3-D grid binning a point set.

    Parameters
    ----------
    points:
        ``(N, 3)`` float64 point set.
    cell_size:
        Edge length of the (cubic) cells.
    bounds:
        Optional ``(lo, hi)`` pair; defaults to the tight scene bounds.
        Points outside the bounds are clamped into boundary cells.
    max_cells:
        Safety cap on total cell count; the cell size is grown (resolution
        shrunk) if the requested size would exceed it. This mirrors the
        paper's "smallest cell size allowed by the GPU memory capacity".
    """

    def __init__(self, points, cell_size: float, bounds=None, max_cells: int = 64_000_000):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {points.shape}")
        if len(points) == 0:
            raise ValueError("cannot grid an empty point set")
        cell_size = float(cell_size)
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")

        if bounds is None:
            lo, hi = scene_bounds(points)
        else:
            lo = np.asarray(bounds[0], dtype=np.float64)
            hi = np.asarray(bounds[1], dtype=np.float64)
        extent = np.maximum(hi - lo, 0.0)

        res = np.maximum(np.ceil(extent / cell_size), 1.0)
        # Coarsen isotropically to the memory cap (in float: int64 overflows).
        while np.prod(res) > max_cells:
            cell_size *= 2.0
            res = np.maximum(np.ceil(extent / cell_size), 1.0)
        res = res.astype(np.int64)

        self.points = points
        self.lo = lo
        self.hi = hi
        self.cell_size = cell_size
        self.res = res  # (nx, ny, nz)
        self.n_cells = int(np.prod(res))

        self._point_cells = self.cell_coords(points)
        self._flat = self.flatten(self._point_cells)
        self._point_order = None
        self._sorted_flat = None
        self._cell_count = None
        self._cell_start = None
        self._sat = None

    # ------------------------------------------------------------------
    # lazy CSR binning (O(total cells) — only consumers that slice
    # cells pay for it; megacell partitioning never does)
    # ------------------------------------------------------------------
    @property
    def point_order(self) -> np.ndarray:
        """Grid-sorted original point indices (counting sort)."""
        if self._point_order is None:
            self._point_order = np.argsort(self._flat, kind="stable")
        return self._point_order

    @property
    def sorted_flat(self) -> np.ndarray:
        """Flat cell id of each point, ascending (i.e. in ``point_order``)."""
        if self._sorted_flat is None:
            self._sorted_flat = np.sort(self._flat)
        return self._sorted_flat

    @property
    def cell_count(self) -> np.ndarray:
        """Points binned into each cell, dense over all cells."""
        if self._cell_count is None:
            self._cell_count = np.bincount(self._flat, minlength=self.n_cells)
        return self._cell_count

    @property
    def cell_start(self) -> np.ndarray:
        """CSR offsets of each cell's slice of ``point_order``."""
        if self._cell_start is None:
            counts = self.cell_count
            self._cell_start = np.concatenate(([0], np.cumsum(counts)))[:-1]
        return self._cell_start

    # ------------------------------------------------------------------
    # coordinate transforms
    # ------------------------------------------------------------------
    def cell_coords(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell coordinates ``(M, 3)``; clamped into the grid."""
        pts = np.asarray(pts, dtype=np.float64)
        raw = np.floor((pts - self.lo) / self.cell_size).astype(np.int64)
        return np.clip(raw, 0, self.res - 1)

    def flatten(self, idx3: np.ndarray) -> np.ndarray:
        """Flatten ``(M, 3)`` cell coordinates to linear cell ids."""
        nx, ny, nz = self.res
        return (idx3[:, 0] * ny + idx3[:, 1]) * nz + idx3[:, 2]

    # ------------------------------------------------------------------
    # contents
    # ------------------------------------------------------------------
    def points_in_cell(self, flat_id: int) -> np.ndarray:
        """Original indices of the points binned into one cell."""
        s = self.cell_start[flat_id]
        return self.point_order[s : s + self.cell_count[flat_id]]

    def gather_cells(self, flat_ids: np.ndarray) -> np.ndarray:
        """Original point indices for a set of cells, concatenated."""
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        pieces = [self.points_in_cell(c) for c in flat_ids]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def neighbor_cell_ids(self, center3: np.ndarray, reach: int = 1) -> np.ndarray:
        """Flat ids of the ``(2*reach+1)^3`` cells around ``center3``.

        Cells outside the grid are dropped (not wrapped).
        """
        center3 = np.asarray(center3, dtype=np.int64)
        offs = np.arange(-reach, reach + 1, dtype=np.int64)
        dx, dy, dz = np.meshgrid(offs, offs, offs, indexing="ij")
        block = center3 + np.stack([dx.ravel(), dy.ravel(), dz.ravel()], axis=1)
        ok = np.logical_and(block >= 0, block < self.res).all(axis=1)
        return self.flatten(block[ok])

    # ------------------------------------------------------------------
    # aggregate counts
    # ------------------------------------------------------------------
    @property
    def sat(self) -> SummedAreaTable3D:
        """Lazily-built summed-area table over per-cell point counts."""
        if self._sat is None:
            dense = self.cell_count.reshape(tuple(self.res))
            self._sat = SummedAreaTable3D(dense)
        return self._sat

    def count_in_boxes(self, lo3: np.ndarray, hi3: np.ndarray) -> np.ndarray:
        """Points contained in inclusive cell-coordinate boxes, batched.

        ``lo3``/``hi3`` are ``(M, 3)`` integer corner coordinates
        (inclusive on both ends) with the clipping semantics of
        :meth:`SummedAreaTable3D.box_sums`. Grids of more than 64 cells
        per point skip the O(cells) table for the sparse counter; both
        return the same counts (``tests/test_geometry_grid.py``).
        """
        if self._sat is None and (
            self.n_cells > _DIRECT_CELLS_PER_POINT * len(self.points)
        ):
            return self._count_in_boxes_direct(lo3, hi3)
        return self.sat.box_sums(lo3, hi3)

    def _count_in_boxes_direct(self, lo3: np.ndarray, hi3: np.ndarray) -> np.ndarray:
        """Sparse box counts: binary searches over the sorted cell ids.

        Cell ids run with z fastest, so each (x, y) column of a box is
        one id range, counted by a ``searchsorted`` pair on
        :attr:`sorted_flat`; all boxes' columns go through in bounded
        chunks. Clipping replicates :meth:`SummedAreaTable3D.box_sums`
        exactly (including boxes emptied or displaced by the clip).
        """
        lo3 = np.asarray(lo3, dtype=np.int64)
        hi3 = np.asarray(hi3, dtype=np.int64)
        single = lo3.ndim == 1
        if single:
            lo3 = lo3[None, :]
            hi3 = hi3[None, :]
        lo = np.clip(lo3, 0, self.res - 1)
        hi = np.clip(hi3, -1, self.res - 1)
        ids = self.sorted_flat
        ny, nz = self.res[1], self.res[2]
        # a box spanning all of z is one id range per x row: merge its
        # columns (y span ``run``) so flat scenes cost O(rows), not O(cells)
        wy = hi[:, 1] - lo[:, 1] + 1
        whole_z = (lo[:, 2] == 0) & (hi[:, 2] == nz - 1)
        run, wy = np.where(whole_z, wy, 1), np.where(whole_z, 1, wy)
        cols = np.where((hi < lo).any(axis=1), 0, (hi[:, 0] - lo[:, 0] + 1) * wy)
        ends = np.cumsum(cols)
        starts = ends - cols
        # id range of each box's first column; column (x, y) of the box
        # shifts both ends by (x * ny + y) * nz
        first = self.flatten(lo)
        last = first + (run - 1) * nz + hi[:, 2] - lo[:, 2]
        out = np.zeros(len(lo), dtype=np.int64)
        for c0 in range(0, int(cols.sum()), _SPARSE_CHUNK_COLUMNS):
            c = np.arange(c0, min(c0 + _SPARSE_CHUNK_COLUMNS, ends[-1]))
            b = np.searchsorted(ends, c, side="right")  # owning box
            x, y = np.divmod(c - starts[b], wy[b])
            step = (x * ny + y) * nz
            n = np.searchsorted(ids, last[b] + step, side="right")
            n -= np.searchsorted(ids, first[b] + step, side="left")
            np.add.at(out, b, n)
        return out[0] if single else out
