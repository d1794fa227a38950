"""Property-based end-to-end search tests (hypothesis).

The central invariant of the whole system: for *any* point cloud and
query set, RTNN (all optimizations on, conservative sizing) returns
exactly the brute-force neighbors — for both search types.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.core.engine import RTNNConfig, RTNNEngine
from tests.oracle import assert_matches_oracle

coords = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
clouds = hnp.arrays(np.float64, st.tuples(st.integers(2, 60), st.just(3)), elements=coords)


@settings(max_examples=25, deadline=None)
@given(pts=clouds, r=st.floats(0.05, 0.6), k=st.integers(1, 6), seed=st.integers(0, 10))
def test_property_knn_exact(pts, r, k, seed):
    q = np.random.default_rng(seed).random((10, 3))
    engine = RTNNEngine(pts, config=RTNNConfig(cache_sim=False))
    res = engine.knn_search(q, k=k, radius=r)
    assert_matches_oracle(res, pts, q, k, r)


@settings(max_examples=25, deadline=None)
@given(pts=clouds, r=st.floats(0.05, 0.6), seed=st.integers(0, 10))
def test_property_range_exact(pts, r, seed):
    q = np.random.default_rng(seed).random((10, 3))
    engine = RTNNEngine(pts, config=RTNNConfig(cache_sim=False))
    res = engine.range_search(q, radius=r, k=100)
    assert_matches_oracle(res, pts, q, 100, r, first_k=True)


@settings(max_examples=15, deadline=None)
@given(
    pts=clouds,
    r=st.floats(0.05, 0.5),
    k=st.integers(1, 4),
    schedule=st.booleans(),
    partition=st.booleans(),
)
def test_property_variants_agree(pts, r, k, schedule, partition):
    """Optimizations must never change the KNN answer."""
    q = pts[: min(len(pts), 8)]
    base = RTNNEngine(pts, config=RTNNConfig(cache_sim=False))
    other = RTNNEngine(
        pts,
        config=RTNNConfig(
            schedule=schedule, partition=partition, bundle=partition,
            cache_sim=False,
        ),
    )
    for engine in (base, other):
        assert_matches_oracle(engine.knn_search(q, k=k, radius=r), pts, q, k, r)
