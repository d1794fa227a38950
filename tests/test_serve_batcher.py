"""Serving-tier building blocks: fused-launch bit-identity, the
request queue's admission/coalescing rules, and deterministic faults.

The headline guarantee is the first test class: a request served
through :meth:`RTNNEngine.search_fused` inside a multi-request batch
returns *bit-identical* rows to a solo engine call — indices, counts,
and squared distances — for both search kinds and with optimizations
on or off. Everything the service promises rests on that.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RTNNConfig, RTNNEngine
from repro.serve.batcher import MicroBatch, execute_batch
from repro.serve.faults import Fault, FaultInjector, TransientFault
from repro.serve.queue import AdmissionError, RequestQueue, SearchRequest
from repro.utils.rng import default_rng


def _world(seed=11, n=700):
    rng = default_rng(seed)
    return rng.random((n, 3))


def _groups(points, sizes=(24, 1, 40), seed=5):
    rng = default_rng(seed)
    out = []
    for s in sizes:
        ids = rng.integers(0, len(points), s)
        out.append(points[ids] + rng.normal(0, 0.02, (s, 3)))
    return out


# ----------------------------------------------------------------------
# search_fused: the bit-identity contract
# ----------------------------------------------------------------------
#: the configurations the fused path must agree with solo calls under:
#: every optimization toggle, both KNN AABB sizings, and the three
#: approximate knobs (shrunk AABBs, step budget, elided sphere test)
VARIANTS = {
    "full": RTNNConfig(),
    "noopt": RTNNConfig(schedule=False, partition=False, bundle=False),
    "partition-only": RTNNConfig(schedule=False),
    "schedule-only": RTNNConfig(partition=False, bundle=False),
    "equiv_volume": RTNNConfig(knn_aabb="equiv_volume"),
    "aabb_shrink": RTNNConfig(aabb_shrink=0.7),
    "step_budget": RTNNConfig(step_budget=20),
    "elide_sphere_test": RTNNConfig(approx_elide_sphere_test=True),
}


def _random_groups(points, n_groups=7, seed=5):
    """Seeded random group sizes, always with an empty and a 1-query group."""
    sizes = default_rng(seed).integers(2, 40, n_groups)
    sizes[1], sizes[4] = 0, 1
    return _groups(points, sizes=tuple(int(s) for s in sizes), seed=seed)


def _solo(points, cfg, kind, g, radius, k):
    solo = RTNNEngine(points, config=cfg)
    if kind == "knn":
        return solo.knn_search(g, k=k, radius=radius)
    return solo.range_search(g, radius=radius, k=k)


# (kind, k): range with k=2 truncates most rows (Any-Hit stops at the
# first k hits found), so traversal-order-dependent rows are covered
@pytest.mark.parametrize(
    "kind,k", [("knn", 6), ("range", 6), ("range", 2)],
    ids=["knn", "range", "range-k2"],
)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fused_groups_bit_identical_to_solo_calls(kind, k, variant):
    points = _world()
    groups = _random_groups(points)
    cfg = VARIANTS[variant]
    fused = RTNNEngine(points, config=cfg).search_fused(
        kind, groups, radius=0.15, k=k
    )
    assert len(fused) == len(groups) >= 6
    assert [r.n_queries for r in fused] == [len(g) for g in groups]
    for g, res in zip(groups, fused):
        direct = _solo(points, cfg, kind, g, 0.15, k)
        assert np.array_equal(res.indices, direct.indices)
        assert np.array_equal(res.counts, direct.counts)
        assert np.array_equal(res.sq_distances, direct.sq_distances)
    if kind == "range" and k == 2:
        full = RTNNEngine(points).count_in_radius(np.concatenate(groups), 0.15)
        assert (full.counts > k).mean() > 0.5  # most rows truncated
    if variant == "step_budget":
        assert fused[0].report.extras["budget"]["exhausted_queries"] > 0


@pytest.mark.parametrize("kind", ["knn", "range"])
def test_fused_call_partitions_once_and_launches_once_per_shape(
    kind, monkeypatch
):
    import repro.core.engine as engine_mod
    from repro.core.cache import quantize_half_width

    points = _world()
    groups = _random_groups(points, n_groups=6, seed=9)
    megacell_calls = []
    decisions = []
    compute = engine_mod.compute_megacells
    bundle = engine_mod.bundle_partitions

    def counting_compute(*args, **kw):
        megacell_calls.append(len(args[1]))
        return compute(*args, **kw)

    def recording_bundle(*args, **kw):
        decisions.append(bundle(*args, **kw))
        return decisions[-1]

    monkeypatch.setattr(engine_mod, "compute_megacells", counting_compute)
    monkeypatch.setattr(engine_mod, "bundle_partitions", recording_bundle)
    for g in groups:
        if len(g):
            _solo(points, RTNNConfig(), kind, g, 0.15, 6)
    solo_bundles = [b for d in decisions for b in d.bundles]
    shapes = {
        (quantize_half_width(b.aabb_width / 2.0), b.sphere_test)
        for b in solo_bundles
    }
    megacell_calls.clear()

    fused = RTNNEngine(points).search_fused(kind, groups, radius=0.15, k=6)
    assert megacell_calls == [sum(len(g) for g in groups)]
    report = fused[0].report
    assert report.n_bundles == len(shapes) < len(solo_bundles)
    info = report.extras["fused"]
    assert info["group_bundles"] == len(solo_bundles)
    assert info["shapes"] == info["launches"] == len(shapes)


def test_fused_handles_empty_group():
    points = _world(n=300)
    groups = [_groups(points, sizes=(12,))[0], np.empty((0, 3)), points[:5]]
    engine = RTNNEngine(points)
    fused = engine.search_fused("knn", groups, radius=0.2, k=4)
    assert [r.n_queries for r in fused] == [12, 0, 5]
    assert fused[1].indices.shape == (0, 4)


def test_fused_single_group_matches_plain_search():
    points = _world(n=400)
    (g,) = _groups(points, sizes=(30,))
    fused = RTNNEngine(points).search_fused("knn", [g], radius=0.15, k=5)
    direct = RTNNEngine(points).knn_search(g, k=5, radius=0.15)
    assert np.array_equal(fused[0].indices, direct.indices)
    assert np.array_equal(fused[0].sq_distances, direct.sq_distances)


def test_fused_report_records_group_structure():
    points = _world(n=300)
    groups = _groups(points, sizes=(10, 20))
    fused = RTNNEngine(points).search_fused("range", groups, radius=0.2, k=50)
    info = fused[0].report.extras["fused"]
    assert info["n_groups"] == 2
    assert list(info["group_sizes"]) == [10, 20]
    assert info["launches"] == fused[0].report.n_bundles
    # both results share the single fused report
    assert fused[1].report is fused[0].report


def test_fused_rejects_unknown_kind():
    points = _world(n=50)
    with pytest.raises(ValueError, match="kind"):
        RTNNEngine(points).search_fused("ball", [points[:3]], radius=0.1, k=2)


# ----------------------------------------------------------------------
# MicroBatch
# ----------------------------------------------------------------------
def _req(rid, kind="knn", k=4, radius=0.1, n=3, fp="fp", **kw):
    return SearchRequest(
        rid=rid,
        kind=kind,
        queries=np.zeros((n, 3)),
        k=k,
        radius=radius,
        submitted_at=0.0,
        points_fp=fp,
        **kw,
    )


def test_microbatch_requires_compatible_requests():
    with pytest.raises(ValueError, match="at least one"):
        MicroBatch([])
    with pytest.raises(ValueError, match="incompatible"):
        MicroBatch([_req(0, k=4), _req(1, k=8)])
    with pytest.raises(ValueError, match="incompatible"):
        MicroBatch([_req(0, kind="knn"), _req(1, kind="range")])


def test_microbatch_shape_properties():
    batch = MicroBatch([_req(0, n=3), _req(1, n=7), _req(2, n=1)])
    assert batch.occupancy == 3
    assert batch.n_queries == 11
    assert batch.kind == "knn" and batch.k == 4 and batch.radius == 0.1
    assert [len(g) for g in batch.query_groups()] == [3, 7, 1]


def test_execute_batch_is_one_fused_engine_pass():
    class _Engine:
        def search_fused(self, kind, groups, radius, k, budget=None):
            return [(kind, len(g), radius, k) for g in groups]

    batch = MicroBatch([_req(0, n=2), _req(1, n=5)])
    out = execute_batch(_Engine(), batch)
    assert out == [("knn", 2, 0.1, 4), ("knn", 5, 0.1, 4)]


# ----------------------------------------------------------------------
# RequestQueue
# ----------------------------------------------------------------------
def test_queue_rejects_past_depth_with_retry_hint():
    q = RequestQueue(max_depth=2, retry_after_s=0.03)
    q.offer(_req(0))
    q.offer(_req(1))
    with pytest.raises(AdmissionError) as ei:
        q.offer(_req(2))
    assert ei.value.depth == 2
    assert ei.value.retry_after_s == pytest.approx(0.03)
    assert q.rejected == 1
    assert q.depth == 2


def test_pop_batch_coalesces_compatible_keeps_rest_in_place():
    q = RequestQueue(max_depth=16)
    q.offer(_req(0, k=4))
    q.offer(_req(1, k=8))     # incompatible with the seed
    q.offer(_req(2, k=4))
    batch, expired = q.pop_batch(now=0.0, max_requests=8, max_queries=100)
    assert [r.rid for r in batch] == [0, 2]
    assert expired == []
    # the incompatible request kept its place and seeds the next batch
    batch2, _ = q.pop_batch(now=0.0, max_requests=8, max_queries=100)
    assert [r.rid for r in batch2] == [1]
    assert q.depth == 0


def test_pop_batch_culls_cancelled_and_reports_expired():
    q = RequestQueue(max_depth=16)
    q.offer(_req(0, cancelled=True))
    q.offer(_req(1, deadline_at=1.0))
    q.offer(_req(2))
    batch, expired = q.pop_batch(now=2.0, max_requests=8, max_queries=100)
    assert [r.rid for r in batch] == [2]
    assert [r.rid for r in expired] == [1]


def test_pop_batch_bounds_total_queries_but_always_seeds():
    q = RequestQueue(max_depth=16)
    q.offer(_req(0, n=30))
    q.offer(_req(1, n=30))
    q.offer(_req(2, n=30))
    batch, _ = q.pop_batch(now=0.0, max_requests=8, max_queries=50)
    assert [r.rid for r in batch] == [0]       # seed taken even past bound
    batch2, _ = q.pop_batch(now=0.0, max_requests=8, max_queries=60)
    assert [r.rid for r in batch2] == [1, 2]


def test_drain_returns_live_requests_only():
    q = RequestQueue(max_depth=16)
    q.offer(_req(0))
    q.offer(_req(1, cancelled=True))
    drained = q.drain()
    assert [r.rid for r in drained] == [0]
    assert q.depth == 0


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
def test_scripted_faults_fire_in_order():
    inj = FaultInjector(script=[Fault.fail(), Fault.slow(0.5), Fault.ok()])
    with pytest.raises(TransientFault, match="launch 0"):
        inj.on_launch()
    assert inj.on_launch() == pytest.approx(0.5)
    assert inj.on_launch() == 0.0
    assert inj.on_launch() == 0.0            # past the script: clean
    assert inj.launches == 4
    assert inj.injected_errors == 1
    assert inj.injected_latency_s == pytest.approx(0.5)


def _fault_trace(seed, n=40):
    inj = FaultInjector(error_rate=0.5, seed=seed)
    trace = []
    for _ in range(n):
        try:
            inj.on_launch()
            trace.append(False)
        except TransientFault:
            trace.append(True)
    return trace


def test_rate_faults_deterministic_under_fixed_seed():
    a, b = _fault_trace(123), _fault_trace(123)
    assert a == b
    assert True in a and False in a          # the rate actually bites
    assert _fault_trace(124) != a            # and the seed matters


def test_dequeue_stall_is_fixed():
    inj = FaultInjector(stall_s=0.02)
    assert inj.on_dequeue() == pytest.approx(0.02)
    assert FaultInjector().on_dequeue() == 0.0
