"""Replay-based cache simulation vs the online LRU oracle.

The vectorized reuse-distance replay (:mod:`repro.gpu.replay`) claims
*bit-identical* hit/miss counts to the retained per-access simulation
(:class:`repro.gpu.cache._SetAssociativeLRU`).  These tests hold it to
that: randomized property tests on raw streams, adversarial edge
shapes, the tracer pair on a real traversal, and end-to-end counter
equality on every committed bench scenario.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.optix.pipeline
from repro.gpu.cache import (
    CacheHierarchy,
    OnlineSampledCacheTracer,
    SampledCacheTracer,
    _SetAssociativeLRU,
)
from repro.gpu.replay import lru_hit_mask, replay_hierarchy
from repro.utils.rng import default_rng


def _oracle_mask(lines, n_sets, n_ways):
    lru = _SetAssociativeLRU(n_sets=n_sets, n_ways=n_ways)
    return np.array([lru.access(int(line)) for line in lines], dtype=bool)


# ----------------------------------------------------------------------
# lru_hit_mask vs the per-access LRU
# ----------------------------------------------------------------------
def test_property_random_streams_match_oracle():
    rng = default_rng(11)
    for _ in range(120):
        n = int(rng.integers(0, 400))
        lines = rng.integers(0, int(rng.integers(1, 50)), size=n)
        if rng.random() < 0.5 and n:
            # run-heavy streams exercise both collapse stages
            lines = np.repeat(lines, rng.integers(1, 5, size=n))
        n_sets = int(rng.integers(1, 9))
        n_ways = int(rng.integers(1, 6))
        got = lru_hit_mask(lines, n_sets, n_ways)
        assert np.array_equal(got, _oracle_mask(lines, n_sets, n_ways))


@pytest.mark.parametrize(
    "lines, n_sets, n_ways",
    [
        (np.empty(0, dtype=np.int64), 4, 2),           # empty stream
        (np.zeros(50, dtype=np.int64), 1, 1),          # all-same line
        (np.arange(100, dtype=np.int64), 1, 1),        # all-distinct, 1x1
        (np.arange(100, dtype=np.int64) % 7, 1, 4),    # fully-associative
        (np.repeat(np.arange(20), 6), 4, 2),           # long runs
        (np.tile(np.arange(12), 10), 3, 3),            # cyclic thrash
        (np.tile([0, 4, 8, 0], 30), 4, 2),             # one hot set
    ],
)
def test_edge_streams_match_oracle(lines, n_sets, n_ways):
    got = lru_hit_mask(lines, n_sets, n_ways)
    assert np.array_equal(got, _oracle_mask(lines, n_sets, n_ways))


def test_replay_validates_geometry():
    with pytest.raises(ValueError):
        lru_hit_mask(np.arange(4), 0, 1)
    with pytest.raises(ValueError):
        lru_hit_mask(np.arange(4), 1, 0)


def test_hierarchy_replay_matches_online_hierarchy():
    rng = default_rng(23)
    for _ in range(40):
        n = int(rng.integers(0, 600))
        lines = rng.integers(0, int(rng.integers(1, 80)), size=n)
        geo = tuple(int(rng.integers(1, 9)) for _ in range(4))
        l1 = _SetAssociativeLRU(n_sets=geo[0], n_ways=geo[1])
        l2 = _SetAssociativeLRU(n_sets=geo[2], n_ways=geo[3])
        for line in lines:
            if not l1.access(int(line)):
                l2.access(int(line))
        (l1h, l1m), (l2h, l2m) = replay_hierarchy(lines, *geo)
        assert (l1h, l1m) == (l1.stats.hits, l1.stats.misses)
        assert (l2h, l2m) == (l2.stats.hits, l2.stats.misses)


# ----------------------------------------------------------------------
# the tracer pair
# ----------------------------------------------------------------------
def _feed(tracer, rng):
    for it in range(30):
        ray_ids = np.arange(0, 640, dtype=np.int64)
        nodes = rng.integers(0, 300, size=len(ray_ids))
        tracer.on_node_access(it, ray_ids, nodes)
        hits = rng.random(len(ray_ids)) < 0.4
        tracer.on_prim_access(it, ray_ids[hits], rng.integers(0, 900, size=hits.sum()))
    tracer.finalize()


def test_sampled_tracer_matches_online_tracer():
    rng1, rng2 = default_rng(5), default_rng(5)
    replayed = SampledCacheTracer(n_rays=640, max_warps=4, l1_kb=2, l2_kb=64)
    online = OnlineSampledCacheTracer(n_rays=640, max_warps=4, l1_kb=2, l2_kb=64)
    _feed(replayed, rng1)
    _feed(online, rng2)
    assert replayed.counters() == online.counters()
    assert replayed.l1_hit_rate == online.l1_hit_rate
    assert replayed.l2_hit_rate == online.l2_hit_rate
    assert replayed.sampled_accesses == online.sampled_accesses
    assert replayed.scaled_l1_misses() == online.scaled_l1_misses()


def test_tracer_refinalizes_after_more_recording():
    tracer = SampledCacheTracer(n_rays=64, max_warps=2, l1_kb=1, l2_kb=8)
    ray_ids = np.arange(64, dtype=np.int64)
    tracer.on_node_access(0, ray_ids, np.arange(64, dtype=np.int64))
    first = tracer.counters()
    tracer.on_node_access(1, ray_ids, np.arange(64, dtype=np.int64))
    second = tracer.counters()
    assert second["l1_hits"] + second["l1_misses"] > first["l1_hits"] + first["l1_misses"]
    hier = CacheHierarchy(l1_kb=1, l2_kb=8)
    for chunk in tracer._chunks:
        for line in chunk.tolist():
            hier.access(line)
    assert second == {
        "l1_hits": hier.l1_stats.hits,
        "l1_misses": hier.l1_stats.misses,
        "l2_hits": hier.l2_stats.hits,
        "l2_misses": hier.l2_stats.misses,
    }


# ----------------------------------------------------------------------
# end-to-end: every committed bench scenario, replay vs online
# ----------------------------------------------------------------------
def test_bench_scenarios_counters_match_online(monkeypatch):
    from repro.obs.bench import find_baseline, full_suite, run_scenario

    baseline_path = find_baseline(Path(__file__).resolve().parents[1])
    committed = set(json.loads(baseline_path.read_text())["scenarios"])
    # the baseline still records the /par4 twins of the retired thread
    # fan-out; every other committed scenario must still be in the suite
    committed = {name for name in committed if not name.endswith("/par4")}
    scenarios = [sc for sc in full_suite() if sc.name in committed]
    assert len(scenarios) == len(committed), "committed scenario vanished from suite"

    for sc in scenarios:
        replayed = run_scenario(sc)
        monkeypatch.setattr(
            repro.optix.pipeline, "SampledCacheTracer", OnlineSampledCacheTracer
        )
        online = run_scenario(sc)
        monkeypatch.undo()
        assert replayed["counters"] == online["counters"], sc.name
        assert replayed["checksum"] == online["checksum"], sc.name
        assert replayed["modeled_s"] == online["modeled_s"], sc.name
