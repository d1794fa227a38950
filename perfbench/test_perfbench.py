"""The benchmark's own checks: span nesting, wrapper coverage, exact
repeats, and the command-line contract.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)

#: per-layer counters that must repeat exactly for one seed
EXACT = ["traverse.steps", "traverse.is_calls", "traverse.launches",
         "traverse.leaves_pruned", "partition.growth_steps",
         "partition.partitions", "partition.bundles", "cachesim.sampled_accesses",
         "merge.inserts", "build.gas_calls", "build.refit_calls", "schedule.calls"]


def test_self_time_excludes_nested_spans():
    trace = layers.LayerTrace()
    inner = trace.wrap("inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.02)
        inner()
        inner()

    trace.wrap("outer", body)()
    assert trace.calls == {"outer": 1, "inner": 2}
    assert trace.incl_s["outer"] >= trace.incl_s["inner"] >= 0.1
    assert trace.self_s["outer"] == pytest.approx(
        trace.incl_s["outer"] - trace.incl_s["inner"], abs=1e-9)
    assert trace.self_s["outer"] < 0.05


def test_installed_patches_call_sites_and_restores_them():
    import repro.core.engine as engine
    import repro.optix.pipeline as pipeline
    from repro.core.queues import KnnQueueBatch

    before = (engine.compute_megacells, pipeline.trace_batch, KnnQueueBatch.insert)
    with layers.installed(layers.LayerTrace()):
        assert engine.compute_megacells.__wrapped__ is before[0]
        assert pipeline.trace_batch.__wrapped__ is before[1]
        assert KnnQueueBatch.insert.__wrapped__ is before[2]
    assert (engine.compute_megacells, pipeline.trace_batch, KnnQueueBatch.insert) == before


@pytest.fixture(scope="module")
def traced_pairs():
    """Two single-repetition traced runs of each batch workload, one seed."""
    out = {}
    for name, cls in workloads.BATCH.items():
        runs = []
        for _ in range(2):
            res = workloads.run_batch(cls(0), seconds=0.0, trace=True, min_reps=1)
            res.errors.extend(workloads.span_errors(res))
            runs.append(res)
        out[name] = runs
    return out


@pytest.mark.parametrize("name", list(workloads.BATCH))
def test_traced_batch_runs_are_correct_and_cover_their_layers(traced_pairs, name):
    for res in traced_pairs[name]:
        assert res.correct, res.errors
        metrics.check_declared(metrics.per_layer(res), DECLARED["per_layer"])
        metrics.check_declared(metrics.end_to_end(res), DECLARED["end_to_end"])


def test_count_kitti_never_partitions(traced_pairs):
    for res in traced_pairs["count-kitti"]:
        layer = metrics.per_layer(res)
        assert layer["partition.megacells_calls"][0] == 0
        assert layer["partition.growth_steps"][0] == 0
        assert layer["traverse.launches"][0] >= 1


def test_partition_is_the_largest_layer_on_knn_nbody(traced_pairs):
    layer = metrics.per_layer(traced_pairs["knn-nbody"][0])
    shares = {k: v for k, (v, _) in layer.items() if k.startswith("share.")}
    assert max(shares, key=shares.get) == "share.partition"


@pytest.mark.parametrize("name", list(workloads.BATCH))
def test_modeled_time_and_counts_repeat_exactly(traced_pairs, name):
    a, b = (metrics.per_layer(r) for r in traced_pairs[name])
    modeled = [k for k in a if k.startswith("modeled.")]
    for key in modeled + EXACT:
        assert a[key] == b[key], key
    e2e = [metrics.end_to_end(r)["modeled_gpu_us"] for r in traced_pairs[name]]
    assert e2e[0] == e2e[1]
    assert e2e[0][0] > 0


def test_serve_run_covers_the_serving_layer():
    serve = workloads.ServeBunny(0, scale=0.25)
    res = workloads.run_serve(serve, seconds=3.0, trace=True)
    res.errors.extend(workloads.span_errors(res))
    assert res.correct, res.errors
    layer = metrics.per_layer(res)
    metrics.check_declared(layer, DECLARED["per_layer"])
    assert layer["serve.batch_occupancy_mean"][0] > 1
    assert layer["build.cache_hit_ratio"][0] > 0.5
    assert res.attempted > 0 and res.failed == 0
    # one process: the event loop thread plus one engine thread
    assert serve.threads_max <= 2


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn-nbody", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
