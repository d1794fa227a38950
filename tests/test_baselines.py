"""Baseline searchers vs the brute-force oracle."""

import numpy as np
import pytest

from repro.baselines import (
    CuNSearch,
    FRNN,
    FastRNN,
    PCLOctree,
    brute,
    brute_force_knn,
    brute_force_range,
)
from repro.baselines.brute import brute_force_true_knn
from repro.workloads import DBSCANConfig, brute_dbscan, brute_hausdorff
from tests.oracle import assert_matches_oracle


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    pts = rng.random((1200, 3))
    q = rng.random((350, 3))
    return pts, q, 0.11


def test_brute_range_counts(setup):
    pts, q, r = setup
    res = brute_force_range(pts, q, r, k=2000)
    # spot-check against direct computation
    for i in range(0, len(q), 50):
        d = np.linalg.norm(pts - q[i], axis=1)
        assert res.counts[i] == (d <= r).sum()


def test_brute_knn_sorted(setup):
    pts, q, r = setup
    res = brute_force_knn(pts, q, k=5, radius=r)
    d = res.sq_distances
    for i in range(len(q)):
        c = res.counts[i]
        assert (np.diff(d[i][:c]) >= 0).all()


def test_oracle_answers_do_not_depend_on_block_size(setup, monkeypatch):
    """The element budget bounds memory only: one query row per block
    yields the very same bits as the default blocks."""
    pts, q, r = setup

    def run_all():
        return [
            brute_force_range(pts, q, r, k=40),
            brute_force_knn(pts, q, k=7, radius=r),
            brute_force_true_knn(pts, q, k=7),
            brute_dbscan(pts[:400], DBSCANConfig(eps=r, min_pts=5)),
            brute_hausdorff(q, pts),
        ]

    default = run_all()
    monkeypatch.setattr(brute, "_BLOCK_ELEMENTS", 1)
    tiny = run_all()
    for a, b in zip(default[:3], tiny[:3]):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.sq_distances, b.sq_distances)
    for a, b in zip(default[3], tiny[3]):
        assert np.array_equal(a, b)
    assert default[4] == tiny[4]


def test_oracle_ties_go_to_the_lower_index():
    """A tie across the k-th slot keeps the lowest-index tied points."""
    pts = np.zeros((12, 3))
    pts[:, 2] = [3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1]
    q = np.zeros((1, 3))
    res = brute_force_true_knn(pts, q, k=8)
    assert res.indices[0].tolist() == [1, 3, 5, 7, 9, 11, 2, 6]
    assert res.sq_distances[0].tolist() == [1.0] * 6 + [4.0] * 2
    res = brute_force_knn(pts, q, k=4, radius=1.5)
    assert res.indices[0].tolist() == [1, 3, 5, 7]
    res = brute_force_range(pts, q, radius=2.5, k=16)
    assert res.counts[0] == 9
    assert res.indices[0].tolist() == [1, 3, 5, 7, 9, 11, 2, 6, 10] + [-1] * 7


def test_cunsearch_exact(setup):
    pts, q, r = setup
    got = CuNSearch(pts).range_search(q, r, k=2000)
    assert_matches_oracle(got, pts, q, 2000, r, first_k=True)
    assert got.report.modeled_time > 0


def test_cunsearch_bounded_k(setup):
    pts, q, r = setup
    got = CuNSearch(pts).range_search(q, r, k=3)
    assert_matches_oracle(got, pts, q, 3, r, first_k=True)


def test_frnn_exact(setup):
    pts, q, r = setup
    got = FRNN(pts).knn_search(q, k=7, radius=r)
    assert_matches_oracle(got, pts, q, 7, r)


def test_pcl_octree_range_exact(setup):
    pts, q, r = setup
    got = PCLOctree(pts).range_search(q, r, k=2000)
    assert_matches_oracle(got, pts, q, 2000, r, first_k=True)


def test_pcl_octree_nn_exact(setup):
    pts, q, r = setup
    got = PCLOctree(pts).knn_search(q, k=1, radius=r)
    assert_matches_oracle(got, pts, q, 1, r)


def test_pcl_octree_rejects_k_gt_1(setup):
    pts, q, r = setup
    with pytest.raises(ValueError):
        PCLOctree(pts).knn_search(q, k=2, radius=r)


def test_fastrnn_exact(setup):
    pts, q, r = setup
    got = FastRNN(pts).knn_search(q, k=5, radius=r)
    assert_matches_oracle(got, pts, q, 5, r)


def test_memory_models_positive(setup):
    pts, _, r = setup
    assert CuNSearch(pts).modeled_memory_bytes(10**7, r, 1.0) > 0
    assert FRNN(pts).modeled_memory_bytes(10**7, r, 1.0) > 0
    assert PCLOctree(pts).modeled_memory_bytes(10**7) > 0
    assert FastRNN(pts).modeled_memory_bytes(10**7) > 0


def test_grid_memory_blows_up_with_small_radius(setup):
    pts, _, _ = setup
    cu = CuNSearch(pts)
    assert cu.modeled_memory_bytes(10**6, 0.001, 100.0) > cu.modeled_memory_bytes(
        10**6, 1.0, 100.0
    )


def test_grid_chunking_matches_unchunked(setup):
    """Chunk boundaries must not change results (CSR bookkeeping)."""
    pts, q, r = setup
    a = CuNSearch(pts, chunk_size=64).range_search(q, r, k=2000)
    b = CuNSearch(pts).range_search(q, r, k=2000)
    assert_matches_oracle(a, pts, q, 2000, r, first_k=True)
    assert_matches_oracle(b, pts, q, 2000, r, first_k=True)
    assert a.report.extras["candidates"] == b.report.extras["candidates"]
    fa = FRNN(pts, chunk_size=64).knn_search(q, k=6, radius=r)
    fb = FRNN(pts).knn_search(q, k=6, radius=r)
    assert (fa.counts == fb.counts).all()
    assert (fa.indices == fb.indices).all()


def test_chunk_size_validated(setup):
    pts, _, _ = setup
    with pytest.raises(ValueError):
        CuNSearch(pts, chunk_size=0)
    with pytest.raises(ValueError):
        FRNN(pts, chunk_size=-1)
