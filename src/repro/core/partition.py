"""Query partitioning via megacells (Section 5.1, Fig. 10).

For each query we find the smallest box of grid cells (the *megacell*)
that either contains at least K points or has grown as large as the
r-sphere allows. Queries with the same growth level share an AABB size
and form a partition; each partition later gets its own specialized BVH.

Correctness conditions (slightly more conservative than the paper's
prose, which speaks of the sphere-inscribed cube):

* a query may sit anywhere inside its center cell, so the worst-case
  distance from the query to a corner of a level-``g`` megacell is
  ``sqrt(3) * (g + 1) * cell``. Growth to level ``g`` is allowed only
  while that bound stays within ``r``; this guarantees every point in
  the megacell is a true ``r``-neighbor *and* that the query-centered
  Chebyshev box of width ``2 * (g + 1) * cell`` — the smallest box
  guaranteed to recover every counted megacell point from any query
  position in the center cell, and therefore the uncapped range
  partitions' AABB width — is inscribed in the sphere (so range search
  may skip the sphere test — Section 5.1's "significant performance
  gain").
* queries whose megacell hits the sphere bound before reaching K points
  are *capped*: they fall back to the full ``2r`` AABB with the sphere
  test enabled, because valid neighbors may lie between the inscribed
  cube and the sphere.

Box point-counts come from :meth:`UniformGrid.count_in_boxes`, which
picks one of two exact counters by grid fineness: a 3-D summed-area
table for grids of at most 64 cells per point (O(cells) to build, O(1)
per box), and a sparse counter over the sorted cell ids for finer grids
(O(N log N) to build, O((2g+1)^2 log N) per level-``g`` box). Either way
a growth iteration is one vectorized pass over the active queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import UniformGrid
from repro.geometry.morton import morton_order

#: KNN equi-volume heuristic coefficient: w = 2 * (3/(4*pi))^(1/3) * a
EQUIV_VOLUME_COEFF = 2.0 * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)

SQRT3 = float(np.sqrt(3.0))


@dataclass
class MegacellResult:
    """Per-query megacell description plus the growth-cost record."""

    level: np.ndarray           # (Q,) growth level g (box spans 2g+1 cells)
    capped: np.ndarray          # (Q,) True if growth hit the sphere bound
    count: np.ndarray           # (Q,) points inside the final megacell
    cell_size: float
    max_level: int              # largest level the sphere bound allows
    total_growth_steps: int     # Σ box-count evaluations (Opt cost driver)
    grid: UniformGrid

    @property
    def width(self) -> np.ndarray:
        """Megacell width per query: (2g + 1) * cell."""
        return (2 * self.level + 1) * self.cell_size


def default_cell_size(radius: float, cell_div: int = 8) -> float:
    """Cell size giving ~``cell_div`` growth levels inside the sphere bound."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return radius / (SQRT3 * max(int(cell_div), 1))


def compute_megacells(
    points: np.ndarray,
    queries: np.ndarray,
    radius: float,
    k: int,
    cell_size: float | None = None,
    max_grid_cells: int = 1 << 22,
) -> MegacellResult:
    """Grow a megacell around every query (Fig. 10a), vectorized.

    All active queries expand one cell ring per iteration; a query
    retires when its box holds >= k points or the next ring would break
    the sphere bound.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    n_q = len(queries)
    if cell_size is None:
        cell_size = default_cell_size(radius)
    grid = UniformGrid(points, cell_size, max_cells=max_grid_cells)
    cell = grid.cell_size  # may be coarser than requested (memory cap)

    # Largest level g with sqrt(3) * (g + 1) * cell <= r.
    max_level = int(np.floor(radius / (SQRT3 * cell))) - 1

    level = np.zeros(n_q, dtype=np.int64)
    capped = np.zeros(n_q, dtype=bool)
    counts = np.zeros(n_q, dtype=np.int64)
    total_steps = 0

    if n_q == 0:
        return MegacellResult(level, capped, counts, cell, max_level, 0, grid)

    centers = grid.cell_coords(queries)
    if max_level < 0:
        # Even a single cell can poke outside the sphere: everything is
        # capped and searched with the full 2r AABB + sphere test.
        capped[:] = True
        return MegacellResult(level, capped, counts, cell, max_level, n_q, grid)

    # The worst-case corner-distance bound assumes the query sits inside
    # its center cell. A query outside the grid (clamped into a boundary
    # cell) voids that assumption, so it is capped outright.
    grid_hi = grid.lo + grid.res * grid.cell_size
    outside = np.logical_or(queries < grid.lo, queries > grid_hi).any(axis=1)
    capped[outside] = True

    active = np.flatnonzero(~outside).astype(np.int64)
    g = 0
    while len(active):
        c = grid.count_in_boxes(centers[active] - g, centers[active] + g)
        total_steps += len(active)
        counts[active] = c
        level[active] = g
        found = c >= k
        active = active[~found]
        if g + 1 > max_level:
            capped[active] = True
            break
        g += 1

    return MegacellResult(
        level=level,
        capped=capped,
        count=counts,
        cell_size=cell,
        max_level=max_level,
        total_growth_steps=total_steps,
        grid=grid,
    )


@dataclass
class Partition:
    """A group of queries sharing one specialized AABB size."""

    query_ids: np.ndarray
    aabb_width: float        # S: width of the per-point AABBs in this BVH
    megacell_width: float    # C: nominal megacell width of the partition
    capped: bool
    sphere_test: bool        # must the IS shader run the sphere test?
    density: float           # rho = K / C^3 (paper's estimate)

    @property
    def n_queries(self) -> int:
        return len(self.query_ids)


def knn_aabb_width(megacell_width: float, mode: str, level: int, cell: float) -> float:
    """AABB width for an uncapped KNN partition (Fig. 10c).

    ``equiv_volume`` is the paper's density heuristic; ``conservative``
    guarantees exactness by circumscribing the worst-case circumsphere.
    """
    if mode == "equiv_volume":
        return EQUIV_VOLUME_COEFF * megacell_width
    if mode == "conservative":
        return 2.0 * SQRT3 * (level + 1) * cell
    raise ValueError(f"unknown knn_aabb mode: {mode!r}")


def make_partitions(
    mc: MegacellResult,
    kind: str,
    radius: float,
    k: int,
    knn_aabb: str = "conservative",
    shrink: float = 1.0,
) -> list[Partition]:
    """Split queries into partitions keyed by (capped, growth level).

    ``shrink < 1`` scales the uncapped partitions' AABB widths below
    what exactness requires — the Section-8 approximate-search knob
    (fewer neighbors returned, faster search). Returned partitions are
    sorted ascending by AABB width.
    """
    if kind not in ("range", "knn"):
        raise ValueError(f"kind must be 'range' or 'knn', got {kind!r}")
    if not (0.0 < shrink <= 1.0):
        raise ValueError(f"shrink must be in (0, 1], got {shrink}")
    parts: list[Partition] = []
    cell = mc.cell_size

    uncapped = ~mc.capped
    for g in np.unique(mc.level[uncapped]):
        ids = np.flatnonzero(uncapped & (mc.level == g))
        c_width = (2 * int(g) + 1) * cell
        if kind == "range":
            # The retirement count was taken over the grid-aligned
            # megacell, whose points sit up to Chebyshev (g + 1) * cell
            # from a query anywhere in its center cell — a width of
            # 2 * (g + 1) * cell is the smallest query-centered box
            # guaranteed to recover all >= k counted points. It still
            # inscribes the r-sphere (the growth bound is exactly
            # sqrt(3) * (g + 1) * cell <= r), so the sphere-test skip
            # stays sound.
            s = 2.0 * (int(g) + 1) * cell * shrink
            test = False
        else:
            s = knn_aabb_width(c_width, knn_aabb, int(g), cell) * shrink
            test = True  # KNN always computes distances (queue)
        parts.append(
            Partition(
                query_ids=ids,
                aabb_width=float(s),
                megacell_width=float(c_width),
                capped=False,
                sphere_test=test,
                density=float(k) / float(c_width) ** 3,
            )
        )

    capped_ids = np.flatnonzero(mc.capped)
    if len(capped_ids):
        c_width = (2 * max(mc.max_level, 0) + 1) * cell
        parts.append(
            Partition(
                query_ids=capped_ids,
                aabb_width=2.0 * radius,
                megacell_width=float(c_width),
                capped=True,
                sphere_test=True,
                density=float(k) / float(c_width) ** 3,
            )
        )

    parts.sort(key=lambda p: p.aabb_width)
    return parts


@dataclass(frozen=True)
class SpatialShard:
    """One spatial shard of a point cloud.

    ``point_ids`` are **global** indices into the original point array,
    sorted ascending (so a 1-shard plan is the identity and a shard
    engine over ``points[point_ids]`` maps local index ``i`` back to
    global index ``point_ids[i]``). ``lo``/``hi`` bound the member
    points tightly; a query can only have ``r``-neighbors in this shard
    if its distance to the ``[lo, hi]`` box is at most ``r``.
    """

    shard_id: int
    point_ids: np.ndarray    # (M,) int64, ascending global indices
    lo: np.ndarray           # (d,) float64 tight lower corner
    hi: np.ndarray           # (d,) float64 tight upper corner

    @property
    def n_points(self) -> int:
        return len(self.point_ids)


def make_spatial_shards(points: np.ndarray, n_shards: int) -> list[SpatialShard]:
    """Split a point cloud into ``n_shards`` spatially coherent shards.

    Reuses the partitioning machinery's spatial-ordering primitive: the
    points are walked in Morton (Z) order — the same order the engine
    uses for its BVH builds — and cut into ``n_shards`` contiguous runs
    of near-equal size. Contiguity on the Z-curve keeps each shard
    spatially compact, so shard AABBs overlap little and boundary
    queries fan out to few shards.

    Every point lands in exactly one shard (shards partition the index
    set), empty shards never occur for ``n_shards <= len(points)``, and
    the split is deterministic for a given point array.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n = len(points)
    if n == 0:
        raise ValueError("cannot shard an empty point cloud")
    n_shards = min(n_shards, n)
    order = morton_order(points)
    # Near-equal contiguous runs along the Z-curve: the first
    # ``n % n_shards`` shards take one extra point.
    bounds = np.linspace(0, n, n_shards + 1).round().astype(np.int64)
    shards: list[SpatialShard] = []
    for sid in range(n_shards):
        ids = np.sort(order[bounds[sid]:bounds[sid + 1]])
        member = points[ids]
        shards.append(
            SpatialShard(
                shard_id=sid,
                point_ids=ids,
                lo=member.min(axis=0),
                hi=member.max(axis=0),
            )
        )
    return shards
