"""DynamicRTNN (refit + rebuild policy) tests."""

import numpy as np
import pytest

from repro.core.dynamic import DynamicRTNN
from tests.oracle import assert_matches_oracle


@pytest.fixture()
def stream(rng):
    pts = rng.random((600, 3))
    return pts


def test_search_exact_after_refits(stream, rng):
    r, k = 0.12, 5
    dyn = DynamicRTNN(stream, radius=r, rebuild_every=100)
    pts = stream
    for frame in range(4):
        pts = np.clip(pts + rng.normal(0, 0.01, pts.shape), 0, 1)
        rep = dyn.update(pts)
        assert not rep.rebuilt  # drift too small to degrade quality
        res = dyn.knn_search(pts[:50], k=k)
        assert_matches_oracle(res, pts, pts[:50], k, r)


def test_rebuild_on_schedule(stream, rng):
    dyn = DynamicRTNN(stream, radius=0.1, rebuild_every=2)
    pts = stream
    reports = []
    for _ in range(4):
        pts = np.clip(pts + rng.normal(0, 0.005, pts.shape), 0, 1)
        reports.append(dyn.update(pts))
    assert any(r.rebuilt for r in reports)
    assert any(not r.rebuilt for r in reports)


def test_rebuild_on_quality_degradation(stream, rng):
    dyn = DynamicRTNN(stream, radius=0.1, rebuild_every=1000, quality_factor=1.5)
    # Teleport points: the refitted tree's SAH explodes -> rebuild.
    rep = dyn.update(rng.random((600, 3)))
    assert rep.rebuilt


def test_rebuild_on_count_change(stream, rng):
    dyn = DynamicRTNN(stream, radius=0.1)
    rep = dyn.update(rng.random((700, 3)))
    assert rep.rebuilt


def test_refit_cheaper_than_rebuild(stream):
    dyn = DynamicRTNN(stream, radius=0.1)
    assert dyn.refit_time() < dyn.gas.build_time


def test_range_search_mode(stream):
    dyn = DynamicRTNN(stream, radius=0.15, schedule=False)
    res = dyn.range_search(stream[:40], k=8)
    assert (res.counts <= 8).all()
    assert res.report.modeled_time > 0
