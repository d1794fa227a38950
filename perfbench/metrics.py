"""Reduce a :class:`workloads.RunResult` to the reported metrics.

Names and units here are the ones declared in ``BENCHMARK.json``;
``check_declared`` fails a run whose output would drift from them.
"""

from __future__ import annotations

import statistics

import numpy as np

#: latency in ms recorded for a request that failed (refused, expired
#: or errored): it misses any limit, and keeps percentiles finite
UNSERVED_MS = 1e6


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_ms(res, q: float) -> float:
    """Percentile ``q`` of the run's latency units, in ms. A failed
    request is infinitely late; UNSERVED_MS stands in for it."""
    lat = np.minimum(np.asarray(res.latency_s, dtype=float) * 1e3, UNSERVED_MS)
    return _pct(lat, q) if len(lat) else UNSERVED_MS


def end_to_end(res) -> dict:
    ok = 1.0 - res.failed / res.attempted
    return {
        "setup_s": (statistics.median(res.setup_s), "s"),
        "queries_per_s": (res.queries_per_s, "1/s"),
        "latency_p50_ms": (latency_ms(res, 50), "ms"),
        "modeled_gpu_us": (sum(res.modeled.values()) * 1e6, "us"),
        "ok_frac": (ok, "ratio"),
        "peak_rss_mb": (res.peak_rss_mb, "MB"),
    }


#: share.<group> = self time of these spans over the traced wall time
SHARE_GROUPS = {
    "data": ["data.morton"],
    "partition": ["partition.megacells", "partition.make", "partition.bundle"],
    "build": ["build.gas", "build.refit", "build.cache_lookup"],
    "schedule": ["schedule"],
    "traverse": ["traverse.launch", "traverse.trace"],
    "cachesim": ["cachesim"],
    "merge": ["merge"],
    "engine": ["engine"],
    "serve": ["serve.execute"],
    "workloads": ["workloads.count", "workloads.range", "workloads.update", "workloads.forces"],
}


def per_layer(res) -> dict:
    """Per-layer metrics of a traced run. Times and counts are per
    latency unit (batch, SPH step, or served request); shares are self
    time over the traced wall time."""
    t = res.trace
    c = t.counts
    units = max(res.trace_units, 1)

    def per(value):
        return value / units

    def incl(*names):
        return sum(t.incl_s.get(n, 0.0) for n in names)

    def self_(*names):
        return sum(t.self_s.get(n, 0.0) for n in names)

    def calls(name):
        return t.calls.get(name, 0)

    steps = c.get("steps", 0)
    lookups = c.get("gas_hits", 0) + c.get("gas_misses", 0)
    accesses = c.get("sampled_accesses", 0)
    sv = res.serve
    m = {
        "partition.megacells_s": (per(incl("partition.megacells")), "s"),
        "partition.megacells_calls": (per(calls("partition.megacells")), "count"),
        "partition.make_s": (per(incl("partition.make", "partition.bundle")), "s"),
        "partition.growth_steps": (per(c.get("growth_steps", 0)), "count"),
        "partition.partitions": (per(c.get("partitions", 0)), "count"),
        "partition.bundles": (per(c.get("bundles", 0)), "count"),
        "traverse.launch_s": (per(incl("traverse.launch")), "s"),
        "traverse.self_s": (per(self_("traverse.launch", "traverse.trace")), "s"),
        "traverse.launches": (per(c.get("launches", 0)), "count"),
        "traverse.steps": (per(steps), "count"),
        "traverse.is_calls": (per(c.get("is_calls", 0)), "count"),
        "traverse.ns_per_step": (
            self_("traverse.launch", "traverse.trace") / steps * 1e9 if steps else 0.0, "ns"),
        "traverse.useful_is_ratio": (
            c.get("inserts", 0) / c["is_calls"] if c.get("is_calls") else 0.0, "ratio"),
        "traverse.leaves_pruned": (per(c.get("leaves_pruned", 0)), "count"),
        "cachesim.time_s": (per(self_("cachesim")), "s"),
        "cachesim.sampled_accesses": (per(accesses), "count"),
        "cachesim.l1_hit_rate": (c.get("l1_hits", 0) / accesses if accesses else 0.0, "ratio"),
        "schedule.time_s": (per(incl("schedule")), "s"),
        "schedule.calls": (per(calls("schedule")), "count"),
        "build.gas_s": (per(incl("build.gas")), "s"),
        "build.gas_calls": (per(calls("build.gas")), "count"),
        "build.refit_s": (per(incl("build.refit")), "s"),
        "build.refit_calls": (per(calls("build.refit")), "count"),
        "build.cache_hit_ratio": (c.get("gas_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "merge.time_s": (per(self_("merge")), "s"),
        "merge.inserts": (per(c.get("inserts", 0)), "count"),
        "serve.queue_wait_p50_ms": (
            _pct(sv["queue_wait_s"], 50) * 1e3 if sv.get("queue_wait_s") else 0.0, "ms"),
        "serve.batch_occupancy_mean": (sv.get("closed_occupancy_mean", 0.0), "count"),
        "serve.execute_batch_ms_p50": (
            _pct(sv["execute_s"], 50) * 1e3 if sv.get("execute_s") else 0.0, "ms"),
        "serve.batches": (sv.get("open_batches", 0), "count"),
        "serve.degraded_frac": (
            sv["degraded"] / sv["completed"] if sv.get("completed") else 0.0, "ratio"),
        "serve.latency_p95_ms": (
            latency_ms(res, 95) if res.workload == "serve-bunny" else 0.0, "ms"),
        "serve.gen_lag_p95_ms": (
            _pct(sv["gen_lag_s"], 95) * 1e3 if sv.get("gen_lag_s") else 0.0, "ms"),
        "workloads.count_s": (per(incl("workloads.count")), "s"),
        "workloads.range_s": (per(incl("workloads.range")), "s"),
        "workloads.update_s": (per(incl("workloads.update")), "s"),
        "workloads.forces_s": (per(incl("workloads.forces")), "s"),
        "data.morton_s": (per(incl("data.morton")), "s"),
        "trace.overhead_frac": (
            t.n_spans * res.span_cost_s / res.trace_wall_s if res.trace_wall_s else 0.0, "ratio"),
    }
    for cat in ("data", "opt", "bvh", "fs", "search"):
        m[f"modeled.{cat}_us"] = (res.modeled.get(cat, 0.0) * 1e6, "us")
    wall = res.trace_wall_s or 1.0
    traced = 0.0
    for group, names in SHARE_GROUPS.items():
        share = self_(*names) / wall
        traced += share
        m[f"share.{group}"] = (share, "ratio")
    m["share.untraced"] = (max(1.0 - traced, 0.0), "ratio")
    return m


def check_declared(metrics: dict, declared: list) -> None:
    """Raise if the metric names or units differ from the declaration."""
    want = {d["name"]: d["unit"] for d in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError(
            f"metrics drift from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}"
        )
