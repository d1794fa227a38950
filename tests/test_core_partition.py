"""Megacell and partition tests."""

import numpy as np
import pytest

from repro.core.engine import RTNNConfig
from repro.core.partition import (
    EQUIV_VOLUME_COEFF,
    SQRT3,
    compute_megacells,
    default_cell_size,
    knn_aabb_width,
    make_partitions,
    make_spatial_shards,
)
from repro.datasets import nbody_like
from repro.geometry.morton import morton_order


def test_default_cell_size():
    assert default_cell_size(1.0, 8) == pytest.approx(1.0 / (np.sqrt(3) * 8))
    with pytest.raises(ValueError):
        default_cell_size(0.0)


def test_megacell_stops_at_k(rng=np.random.default_rng(0)):
    pts = rng.random((2000, 3))
    q = rng.random((100, 3))
    mc = compute_megacells(pts, q, radius=0.3, k=8)
    found = ~mc.capped
    # every uncapped megacell really holds >= k points
    assert (mc.count[found] >= 8).all()
    # and the next-smaller megacell would not (minimality): level 0 cells
    # may already satisfy it, so only check grown queries
    grown = found & (mc.level > 0)
    if grown.any():
        centers = mc.grid.cell_coords(q[grown])
        smaller = mc.grid.count_in_boxes(
            centers - (mc.level[grown] - 1)[:, None],
            centers + (mc.level[grown] - 1)[:, None],
        )
        assert (smaller < 8).all()


def test_megacell_sphere_bound():
    """All points of an uncapped megacell are within r of the query."""
    rng = np.random.default_rng(1)
    pts = rng.random((3000, 3))
    q = rng.random((50, 3))
    r = 0.25
    mc = compute_megacells(pts, q, radius=r, k=4)
    for i in np.flatnonzero(~mc.capped):
        c = mc.grid.cell_coords(q[i : i + 1])[0]
        g = mc.level[i]
        lo = mc.grid.lo + (c - g) * mc.grid.cell_size
        hi = mc.grid.lo + (c + g + 1) * mc.grid.cell_size
        inside = np.logical_and(pts >= lo, pts <= hi).all(axis=1)
        d = np.linalg.norm(pts[inside] - q[i], axis=1)
        if len(d):
            assert d.max() <= r + 1e-9


def test_all_capped_when_radius_tiny():
    pts = np.random.default_rng(0).random((100, 3))
    mc = compute_megacells(pts, pts[:10], radius=1e-6, k=4, cell_size=0.1)
    assert mc.capped.all()
    assert mc.max_level < 0


def test_empty_queries():
    pts = np.random.default_rng(0).random((100, 3))
    mc = compute_megacells(pts, np.zeros((0, 3)), radius=0.1, k=4)
    assert len(mc.level) == 0


def test_total_growth_steps_counted():
    pts = np.random.default_rng(0).random((500, 3))
    q = pts[:50]
    mc = compute_megacells(pts, q, radius=0.3, k=16)
    assert mc.total_growth_steps >= len(q)


def test_megacells_exact_on_clustered_fine_grid():
    """Engine-default grid over a clustered cloud: far finer than 64
    cells per point, so growth runs on the sparse counter. Its result
    must equal a per-query loop over the summed-area table."""
    cfg = RTNNConfig()
    pts = nbody_like(5000, seed=0)
    far = pts.max(axis=0) + 50.0
    queries = np.vstack([pts, [far, -far, [far[0], 0.0, 0.0]]])
    radius, k = 16.0, 8
    mc = compute_megacells(
        pts,
        queries,
        radius,
        k,
        cell_size=default_cell_size(radius, cfg.cell_div),
        max_grid_cells=cfg.max_grid_cells,
    )
    grid = mc.grid
    assert grid.n_cells > 64 * len(pts) and grid._sat is None
    assert mc.max_level == int(np.floor(radius / (SQRT3 * grid.cell_size))) - 1

    level = np.zeros(len(queries), dtype=np.int64)
    count = np.zeros(len(queries), dtype=np.int64)
    top = grid.lo + grid.res * grid.cell_size
    capped = ((queries < grid.lo) | (queries > top)).any(axis=1)
    steps = 0
    centers = grid.cell_coords(queries)
    for i in np.flatnonzero(~capped):
        for g in range(mc.max_level + 1):
            level[i] = g
            count[i] = grid.sat.box_sums(centers[i] - g, centers[i] + g)
            steps += 1
            if count[i] >= k:
                break
        else:
            capped[i] = True

    assert capped[-3:].all() and (level > 0).any() and (~capped).any()
    assert np.array_equal(mc.level, level)
    assert np.array_equal(mc.capped, capped)
    assert np.array_equal(mc.count, count)
    assert mc.total_growth_steps == steps


def test_knn_aabb_width_modes():
    assert knn_aabb_width(1.0, "equiv_volume", 0, 1.0) == pytest.approx(
        EQUIV_VOLUME_COEFF
    )
    assert knn_aabb_width(1.0, "conservative", 0, 1.0) == pytest.approx(
        2 * np.sqrt(3)
    )
    with pytest.raises(ValueError):
        knn_aabb_width(1.0, "bogus", 0, 1.0)


def test_make_partitions_covers_all_queries():
    rng = np.random.default_rng(2)
    pts = rng.random((2000, 3))
    q = rng.random((300, 3))
    mc = compute_megacells(pts, q, radius=0.2, k=8)
    for kind in ("range", "knn"):
        parts = make_partitions(mc, kind, 0.2, 8)
        all_ids = np.concatenate([p.query_ids for p in parts])
        assert sorted(all_ids.tolist()) == list(range(300))
        widths = [p.aabb_width for p in parts]
        assert widths == sorted(widths)


def test_range_partitions_skip_sphere_test_only_uncapped():
    rng = np.random.default_rng(2)
    pts = rng.random((2000, 3))
    q = rng.random((300, 3))
    mc = compute_megacells(pts, q, radius=0.2, k=8)
    parts = make_partitions(mc, "range", 0.2, 8)
    for p in parts:
        assert p.sphere_test == p.capped


def test_capped_partition_uses_full_width():
    rng = np.random.default_rng(3)
    pts = rng.random((200, 3))
    q = rng.random((100, 3))
    mc = compute_megacells(pts, q, radius=0.05, k=50)  # K unreachable
    parts = make_partitions(mc, "range", 0.05, 50)
    capped = [p for p in parts if p.capped]
    assert capped and capped[0].aabb_width == pytest.approx(0.1)


def test_spatial_shards_partition_morton_runs():
    rng = np.random.default_rng(11)
    pts = rng.random((257, 3))
    shards = make_spatial_shards(pts, 4)
    assert [s.shard_id for s in shards] == [0, 1, 2, 3]
    # every point appears exactly once, and sizes are near-equal
    all_ids = np.concatenate([s.point_ids for s in shards])
    assert np.array_equal(np.sort(all_ids), np.arange(len(pts)))
    sizes = [s.n_points for s in shards]
    assert max(sizes) - min(sizes) <= 1
    # shards are contiguous runs along the Z-curve, ids sorted ascending
    order = morton_order(pts)
    offset = 0
    for s in shards:
        run = order[offset:offset + s.n_points]
        assert np.array_equal(s.point_ids, np.sort(run))
        offset += s.n_points
        # tight AABB: member extrema, not padded
        member = pts[s.point_ids]
        assert np.array_equal(s.lo, member.min(axis=0))
        assert np.array_equal(s.hi, member.max(axis=0))


def test_spatial_shards_edge_cases():
    pts = np.random.default_rng(12).random((5, 3))
    # one shard is the identity split
    [only] = make_spatial_shards(pts, 1)
    assert np.array_equal(only.point_ids, np.arange(5))
    # shard count clamps to the population
    assert len(make_spatial_shards(pts, 50)) == 5
    with pytest.raises(ValueError):
        make_spatial_shards(pts, 0)
    with pytest.raises(ValueError):
        make_spatial_shards(np.empty((0, 3)), 2)


def test_shrink_validation_and_effect():
    rng = np.random.default_rng(4)
    pts = rng.random((2000, 3))
    mc = compute_megacells(pts, pts[:100], radius=0.3, k=8)
    full = make_partitions(mc, "knn", 0.3, 8, shrink=1.0)
    small = make_partitions(mc, "knn", 0.3, 8, shrink=0.5)
    for a, b in zip(full, small):
        if not a.capped:
            assert b.aabb_width == pytest.approx(0.5 * a.aabb_width)
    with pytest.raises(ValueError):
        make_partitions(mc, "knn", 0.3, 8, shrink=0.0)
    with pytest.raises(ValueError):
        make_partitions(mc, "bogus", 0.3, 8)
