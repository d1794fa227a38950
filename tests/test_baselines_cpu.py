"""CPU reference searcher tests (FLANN k-d tree, CompactNSearch grid)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cpu import CompactNSearch, CpuSpec, FlannKdTree, build_kdtree
from tests.oracle import assert_matches_oracle


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(11)
    return rng.random((900, 3)), rng.random((250, 3)), 0.12


def test_kdtree_structure(setup):
    pts, _, _ = setup
    t = build_kdtree(pts, leaf_size=8)
    assert sorted(t.order.tolist()) == list(range(len(pts)))
    leaf = t.axis < 0
    covered = np.zeros(len(pts), dtype=int)
    for i in np.flatnonzero(leaf):
        covered[t.order[t.start[i]:t.end[i]]] += 1
        assert t.end[i] - t.start[i] <= 8
    assert (covered == 1).all()
    # internal nodes: left subtree <= split <= right subtree on the axis
    for i in np.flatnonzero(~leaf):
        ax = t.axis[i]
        l, r = t.left[i], t.right[i]
        lmax = pts[t.order[t.start[l]:t.end[l]], ax].max()
        rmin = pts[t.order[t.start[r]:t.end[r]], ax].min()
        assert lmax <= t.split[i] + 1e-12
        assert rmin >= t.split[i] - 1e-12 or np.isclose(rmin, t.split[i])


def test_kdtree_knn_exact(setup):
    pts, q, r = setup
    res = FlannKdTree(pts).knn_search(q, k=5, radius=r)
    assert_matches_oracle(res, pts, q, 5, r)


def test_kdtree_range_exact(setup):
    pts, q, r = setup
    res = FlannKdTree(pts).range_search(q, radius=r, k=4000)
    assert_matches_oracle(res, pts, q, 4000, r, first_k=True)


def test_kdtree_prunes(setup):
    """The k-d tree must visit far fewer nodes than exist."""
    pts, q, r = setup
    kd = FlannKdTree(pts)
    res = kd.knn_search(q, k=5, radius=r)
    assert res.report.traversal_steps < kd.tree.n_nodes * len(q) * 0.2
    assert res.report.modeled_time > 0
    assert res.report.device == "8-core CPU"


def test_compactnsearch_exact(setup):
    pts, q, r = setup
    res = CompactNSearch(pts).range_search(q, radius=r, k=4000)
    assert_matches_oracle(res, pts, q, 4000, r, first_k=True)


def test_cpu_spec_scaling(setup):
    pts, q, r = setup
    fast = CpuSpec(name="16c", n_cores=16)
    a = FlannKdTree(pts, cpu=CpuSpec()).knn_search(q, 3, r)
    b = FlannKdTree(pts, cpu=fast).knn_search(q, 3, r)
    assert b.report.modeled_time < a.report.modeled_time


def test_kdtree_validation():
    with pytest.raises(ValueError):
        build_kdtree(np.zeros((4, 3)), leaf_size=0)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 120),
    k=st.integers(1, 5),
    r=st.floats(0.05, 0.7),
    seed=st.integers(0, 50),
)
def test_property_kdtree_matches_brute(n, k, r, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    q = rng.random((8, 3))
    res = FlannKdTree(pts, leaf_size=4).knn_search(q, k=k, radius=r)
    assert_matches_oracle(res, pts, q, k, r)
