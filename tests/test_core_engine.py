"""End-to-end engine correctness against the brute-force oracle,
across all optimization variants and both search types."""

import numpy as np
import pytest

from repro.baselines import brute_force_knn
from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.gpu.device import RTX_2080TI
from tests.oracle import assert_matches_oracle


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_knn_matches_oracle_all_variants(cube_points, cube_queries, variant):
    k, r = 6, 0.12
    cfg = VARIANTS[variant]
    engine = RTNNEngine(cube_points, config=cfg)
    res = engine.knn_search(cube_queries, k=k, radius=r)
    assert_matches_oracle(res, cube_points, cube_queries, k, r)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_range_matches_oracle_all_variants(cube_points, cube_queries, variant):
    k, r = 2000, 0.12
    engine = RTNNEngine(cube_points, config=VARIANTS[variant])
    res = engine.range_search(cube_queries, radius=r, k=k)
    assert_matches_oracle(res, cube_points, cube_queries, k, r, first_k=True)


def test_knn_equiv_volume_heuristic_recall(cube_points, cube_queries):
    """The paper's heuristic is 'sufficient for correctness' on its
    datasets; on uniform data it should recover essentially everything."""
    k, r = 6, 0.12
    engine = RTNNEngine(cube_points, config=RTNNConfig(knn_aabb="equiv_volume"))
    res = engine.knn_search(cube_queries, k=k, radius=r)
    ref = brute_force_knn(cube_points, cube_queries, k=k, radius=r)
    got = sum(res.counts)
    recovered = 0
    for i in range(res.n_queries):
        recovered += len(
            set(res.indices[i][: res.counts[i]].tolist())
            & set(ref.indices[i][: ref.counts[i]].tolist())
        )
    assert recovered / max(sum(ref.counts), 1) >= 0.98
    assert got <= sum(ref.counts)


def test_clustered_points(clustered_points):
    """Partitioning and bundling must stay exact on clustered data."""
    q = clustered_points[::3]
    k, r = 5, 0.08
    engine = RTNNEngine(clustered_points)
    res = engine.knn_search(q, k=k, radius=r)
    assert_matches_oracle(res, clustered_points, q, k, r)


def test_bounded_range_subset(cube_points, cube_queries):
    """With small k, returned neighbors are a k-subset of true ones."""
    r, k = 0.15, 3
    engine = RTNNEngine(cube_points)
    res = engine.range_search(cube_queries, radius=r, k=k)
    assert_matches_oracle(res, cube_points, cube_queries, k, r, first_k=True)


def test_queries_outside_cloud(cube_points):
    far = np.full((10, 3), 7.0)
    engine = RTNNEngine(cube_points)
    res = engine.knn_search(far, k=4, radius=0.1)
    assert (res.counts == 0).all()
    assert (res.indices == -1).all()


def test_empty_queries(cube_points):
    engine = RTNNEngine(cube_points)
    res = engine.range_search(np.zeros((0, 3)), radius=0.1, k=4)
    assert res.n_queries == 0
    assert res.report.modeled_time > 0  # transfer of the points still counted


def test_empty_queries_report_shape_matches_nonempty(cube_points):
    """The n_q == 0 path goes through the same report tail as every
    other run, so the serialized structure is identical."""
    from repro.metrics.breakdown import Breakdown

    engine = RTNNEngine(cube_points)
    empty = engine.range_search(np.zeros((0, 3)), radius=0.1, k=4).report
    full = engine.range_search(cube_points[:10], radius=0.1, k=4).report
    assert set(empty.extras) == set(full.extras)
    assert set(empty.extras["gas_cache"]) == set(full.extras["gas_cache"])
    # nothing is partitioned, bundled, or built for zero queries
    assert empty.n_partitions == 0
    assert empty.n_bundles == 0
    assert empty.n_bvh_builds == 0
    assert empty.is_calls == 0
    # the breakdown round-trips through its dict form exactly
    rt = Breakdown.from_dict(empty.breakdown.as_dict())
    assert rt.as_dict() == empty.breakdown.as_dict()


def test_report_structure(cube_points, cube_queries):
    engine = RTNNEngine(cube_points)
    res = engine.knn_search(cube_queries, k=4, radius=0.1)
    rep = res.report
    assert rep.breakdown.total > 0
    assert rep.is_calls > 0
    assert rep.n_bundles >= 1
    assert rep.device == "RTX 2080"
    assert set(rep.breakdown.fractions()) == {"data", "opt", "bvh", "fs", "search"}
    assert abs(sum(rep.breakdown.fractions().values()) - 1.0) < 1e-9


def test_devices_scale_modeled_time(cube_points, cube_queries):
    slow = RTNNEngine(cube_points).knn_search(cube_queries, k=4, radius=0.1)
    fast = RTNNEngine(cube_points, device=RTX_2080TI).knn_search(
        cube_queries, k=4, radius=0.1
    )
    # functional results identical
    assert (slow.indices == fast.indices).all()
    # the bigger board is modeled faster
    assert fast.report.modeled_time < slow.report.modeled_time


def test_with_config(cube_points):
    engine = RTNNEngine(cube_points)
    other = engine.with_config(schedule=False)
    assert engine.config.schedule and not other.config.schedule
    assert other.points is not None


def test_input_validation(cube_points):
    engine = RTNNEngine(cube_points)
    with pytest.raises(ValueError):
        engine.knn_search(cube_points[:5], k=0, radius=0.1)
    with pytest.raises(ValueError):
        engine.knn_search(cube_points[:5], k=4, radius=-1.0)
    with pytest.raises(ValueError):
        engine.range_search(np.zeros((5, 2)), radius=0.1, k=4)
    with pytest.raises(ValueError):
        RTNNEngine(np.full((5, 3), np.nan))


def test_approx_elide_sphere_test_bound(cube_points, cube_queries):
    """§8: without the sphere test every neighbor is within sqrt(3)r."""
    r = 0.1
    engine = RTNNEngine(
        cube_points, config=RTNNConfig(approx_elide_sphere_test=True)
    )
    res = engine.range_search(cube_queries, radius=r, k=500)
    valid = res.sq_distances[res.indices >= 0]
    assert (valid <= 3 * r * r * (1 + 1e-9)).all()


def test_approx_shrunk_aabb_trades_recall(cube_points, cube_queries):
    k, r = 6, 0.12
    ref = brute_force_knn(cube_points, cube_queries, k=k, radius=r)
    res = RTNNEngine(
        cube_points, config=RTNNConfig(aabb_shrink=0.5)
    ).knn_search(cube_queries, k=k, radius=r)
    # still valid neighbors, possibly fewer
    assert (res.counts <= ref.counts).all()
    valid = res.sq_distances[res.indices >= 0]
    assert (valid <= r * r * (1 + 1e-9)).all()


def test_negative_and_offset_coordinates(rng):
    """Scenes far from the origin / spanning negative coordinates."""
    pts = rng.random((800, 3)) * 4.0 - 100.0  # [-100, -96)^3
    q = pts[:100] + rng.normal(0, 0.02, (100, 3))
    res = RTNNEngine(pts).knn_search(q, k=4, radius=0.3)
    assert_matches_oracle(res, pts, q, 4, 0.3)


def test_anisotropic_scene(rng):
    """Thin-slab scenes (like LiDAR) exercise anisotropic grids."""
    pts = rng.random((800, 3)) * np.array([50.0, 50.0, 0.5])
    res = RTNNEngine(pts).range_search(pts[:100], radius=2.0, k=500)
    assert_matches_oracle(res, pts, pts[:100], 500, 2.0, first_k=True)
