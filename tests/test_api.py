"""One-shot API and SearchSession tests."""

import warnings

import numpy as np
import pytest

from repro.api import SearchSession, knn_search, range_search
from repro.baselines.brute import brute_force_true_knn
from repro.core.engine import RTNNConfig
from repro.gpu.device import RTX_2080TI


def test_knn_one_shot(cube_points, cube_queries):
    res = knn_search(cube_points, cube_queries, k=4, radius=0.1)
    assert res.indices.shape == (len(cube_queries), 4)
    assert res.report is not None


def test_range_one_shot(cube_points, cube_queries):
    res = range_search(cube_points, cube_queries, radius=0.1, k=8)
    assert (res.counts <= 8).all()


def test_one_shot_passes_options(cube_points, cube_queries):
    res = knn_search(
        cube_points,
        cube_queries,
        k=4,
        radius=0.1,
        device=RTX_2080TI,
        config=RTNNConfig(schedule=False),
    )
    assert res.report.device == "RTX 2080 Ti"


def test_one_shot_matches_engine(cube_points, cube_queries):
    from repro import RTNNEngine

    a = knn_search(cube_points, cube_queries, k=4, radius=0.1)
    b = RTNNEngine(cube_points).knn_search(cube_queries, k=4, radius=0.1)
    assert (a.indices == b.indices).all()


def test_session_is_importable_from_package():
    import repro

    assert repro.SearchSession is SearchSession


def test_session_amortizes_builds(cube_points, cube_queries):
    session = SearchSession(cube_points)
    first = session.knn_search(cube_queries, k=4, radius=0.1)
    warm = session.knn_search(cube_queries, k=4, radius=0.1)
    assert first.report.n_bvh_builds > 0
    assert warm.report.n_bvh_builds == 0
    assert (warm.indices == first.indices).all()
    stats = session.cache_stats
    assert set(stats) == {"hits", "misses", "evictions"}
    assert stats["hits"] > 0


def test_session_matches_one_shot(cube_points, cube_queries):
    a = SearchSession(cube_points).range_search(cube_queries, radius=0.1, k=8)
    b = range_search(cube_points, cube_queries, radius=0.1, k=8)
    assert (a.indices == b.indices).all()
    assert (a.counts == b.counts).all()


def test_session_with_config_and_update(cube_points, cube_queries):
    session = SearchSession(cube_points, config=RTNNConfig(schedule=True))
    session.knn_search(cube_queries, k=4, radius=0.1)
    other = session.with_config(schedule=False)
    assert isinstance(other, SearchSession)
    assert not other.config.schedule
    assert other.cache_stats["hits"] == 0  # derived sessions start cold
    moved = np.asarray(cube_points) + 0.001
    assert session.update_points(moved) > 0.0
    assert (session.points == moved).all()


@pytest.mark.parametrize("scale", [1e-310, 1e300], ids=["subnormal", "overflow"])
def test_search_rejects_cloud_outside_numeric_domain(scale):
    """A finite cloud too small or too large for float64 fails once, up
    front, with ValueError — not with warnings and an arithmetic error
    deep inside partitioning. The overflowing cloud is refused when the
    session is built; the subnormal one builds, and its radius is
    refused before any partitioning."""
    pts = np.random.default_rng(0).random((500, 3)) * scale
    radius = float(np.ptp(pts, axis=0).max()) / 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="numeric domain"):
            SearchSession(pts).knn_search(pts, k=4, radius=radius)
        if scale > 1:
            session = SearchSession(np.random.default_rng(1).random((500, 3)))
            with pytest.raises(ValueError, match="numeric domain"):
                session.update_points(pts)


@pytest.mark.parametrize(
    "shape", ["planar", "duplicates", "small", "large", "tiny-radius"]
)
def test_session_answers_degenerate_clouds_inside_domain(shape):
    pts = np.random.default_rng(0).random((500, 3))
    if shape == "planar":
        pts[:, 2] = 0.25
    elif shape == "duplicates":
        pts = np.repeat(pts[:50], 10, axis=0)
    elif shape in ("small", "large"):
        pts *= 1e-90 if shape == "small" else 1e90
    radius = float(np.ptp(pts, axis=0).max()) / 10
    if shape == "tiny-radius":
        radius = 1e-20  # the requested grid cell would overflow int64 cells
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = SearchSession(pts).knn_search(pts, k=4, radius=radius)
    ref = brute_force_true_knn(pts, pts, k=4)
    outside = ref.sq_distances > radius * radius
    assert np.array_equal(res.indices, np.where(outside, -1, ref.indices))
    assert np.array_equal(res.sq_distances, np.where(outside, np.inf, ref.sq_distances))
