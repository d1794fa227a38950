"""Cross-searcher integration on the paper's dataset families.

Every searcher must agree with the oracle on every dataset family — the
distributions (ground-plane, surface, fractal) stress different code
paths (capping, partition diversity, bundling).
"""

import pytest

from repro.baselines import CuNSearch, FRNN, PCLOctree, brute_force_knn
from repro.core.engine import RTNNConfig, RTNNEngine
from repro.datasets import load
from tests.oracle import assert_matches_oracle

CASES = [("KITTI-12M", 0.03), ("Buddha-4.6M", 0.03), ("NBody-9M", 0.03)]


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def dataset(request):
    name, scale = request.param
    pts, spec = load(name, scale=scale)
    q = pts[:: max(len(pts) // 150, 1)]
    return pts, q, spec.radius


def test_rtnn_knn_on_dataset(dataset):
    pts, q, r = dataset
    k = 8
    res = RTNNEngine(pts).knn_search(q, k=k, radius=r)
    assert_matches_oracle(res, pts, q, k, r)


def test_rtnn_range_counts_on_dataset(dataset):
    pts, q, r = dataset
    res = RTNNEngine(pts).range_search(q, radius=r, k=10_000)
    assert_matches_oracle(res, pts, q, 10_000, r, first_k=True)


def test_equiv_volume_heuristic_on_dataset(dataset):
    """§5.1: the heuristic is 'sufficient for correctness' on the
    paper-family datasets — verify recall stays essentially exact."""
    pts, q, r = dataset
    k = 8
    res = RTNNEngine(
        pts, config=RTNNConfig(knn_aabb="equiv_volume")
    ).knn_search(q, k=k, radius=r)
    ref = brute_force_knn(pts, q, k=k, radius=r)
    recovered = sum(
        len(
            set(res.indices[i][: res.counts[i]].tolist())
            & set(ref.indices[i][: ref.counts[i]].tolist())
        )
        for i in range(len(q))
    )
    assert recovered / max(ref.counts.sum(), 1) >= 0.97


def test_baselines_agree_on_dataset(dataset):
    pts, q, r = dataset
    for searcher in (CuNSearch(pts), PCLOctree(pts)):
        res = searcher.range_search(q, r, k=10_000)
        assert_matches_oracle(res, pts, q, 10_000, r, first_k=True)
    assert_matches_oracle(FRNN(pts).knn_search(q, 4, r), pts, q, 4, r)
