"""Service-level metrics: rollups and `repro.obs` export.

Two granularities, both cheap enough to be always on:

* **per-request spans** — the service grafts a ``serve.request`` span
  (queue wait, attempts, batch occupancy) under each batch's
  ``serve.batch[n]`` span on whatever tracer it was given, so a
  :class:`~repro.obs.tracer.RecordingTracer` sees the serving tier
  nested exactly like the engine tiers below it;
* **service rollups** — :class:`ServiceMetrics` accumulates counters
  (admits, rejects, completions, failures, degradations, expiries,
  cancellations, retries, batches) plus latency and occupancy samples,
  and summarizes them (p50/p99 latency, mean/max occupancy, queue
  depth) into a dict that rides in
  :class:`~repro.obs.report.RunReport` ``extras`` — the same artifact
  the bench harness persists, so service behavior regresses loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.report import RunReport
from repro.obs.tracer import RecordingTracer


@dataclass
class ServiceMetrics:
    """Cumulative counters and samples for one service lifetime."""

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    degraded: int = 0
    expired: int = 0
    cancelled: int = 0
    batches: int = 0
    retries: int = 0
    fallback_batches: int = 0
    shard_batches: int = 0
    shard_failovers: int = 0
    shard_brute: int = 0
    fused_batches: int = 0
    fused_launches: int = 0
    excess_launches: int = 0
    latencies_s: list = field(default_factory=list)
    queue_waits_s: list = field(default_factory=list)
    occupancies: list = field(default_factory=list)
    batch_queries: list = field(default_factory=list)
    depth_samples: list = field(default_factory=list)

    # ------------------------------------------------------------------
    def observe_batch(
        self, occupancy: int, n_queries: int, depth_after: int, degraded: bool
    ) -> None:
        self.batches += 1
        self.occupancies.append(int(occupancy))
        self.batch_queries.append(int(n_queries))
        self.depth_samples.append(int(depth_after))
        if degraded:
            self.fallback_batches += 1

    def observe_shard_batch(self, extra: dict) -> None:
        """Fold one sharded batch's scatter record into the counters.

        ``extra`` is the ``RunReport.extras["shard"]`` dict a
        :class:`~repro.serve.shard.ShardedEngine` attaches to every
        fused launch (failovers, brute-degraded shards, fan-out).
        """
        self.shard_batches += 1
        self.shard_failovers += int(extra.get("failovers", 0))
        self.shard_brute += int(extra.get("brute_shards", 0))

    def observe_fused_batch(self, extra: dict) -> None:
        """Fold one fused launch's ``RunReport.extras["fused"]`` record.

        A fused pass launches once per bundle shape; ``excess_launches``
        counts launches beyond that, which should stay 0.
        """
        launches = int(extra["launches"])
        self.fused_batches += 1
        self.fused_launches += launches
        self.excess_launches += max(0, launches - int(extra["shapes"]))

    def observe_request(
        self, latency_s: float, queue_wait_s: float, degraded: bool
    ) -> None:
        self.completed += 1
        self.latencies_s.append(float(latency_s))
        self.queue_waits_s.append(float(queue_wait_s))
        if degraded:
            self.degraded += 1

    # ------------------------------------------------------------------
    @staticmethod
    def _pct(samples: list, q: float) -> float | None:
        if not samples:
            return None
        return float(np.percentile(np.asarray(samples, dtype=np.float64), q))

    @property
    def mean_occupancy(self) -> float | None:
        if not self.occupancies:
            return None
        return float(np.mean(self.occupancies))

    def rollup(self) -> dict:
        """The service-level summary exported via RunReport extras."""
        return {
            "requests": {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "degraded": self.degraded,
                "expired": self.expired,
                "cancelled": self.cancelled,
                "retries": self.retries,
            },
            "batches": {
                "count": self.batches,
                "fallback": self.fallback_batches,
                "occupancy_mean": self.mean_occupancy,
                "occupancy_max": max(self.occupancies) if self.occupancies else None,
                "queries_mean": (
                    float(np.mean(self.batch_queries)) if self.batch_queries else None
                ),
                "fused": self.fused_batches,
                "fused_launches": self.fused_launches,
                "excess_launches": self.excess_launches,
            },
            "latency_s": {
                "p50": self._pct(self.latencies_s, 50),
                "p99": self._pct(self.latencies_s, 99),
                "max": max(self.latencies_s) if self.latencies_s else None,
                "queue_wait_p50": self._pct(self.queue_waits_s, 50),
            },
            "queue": {
                "depth_max": max(self.depth_samples) if self.depth_samples else 0,
                "depth_mean": (
                    float(np.mean(self.depth_samples)) if self.depth_samples else 0.0
                ),
            },
            "shard": {
                "batches": self.shard_batches,
                "failovers": self.shard_failovers,
                "brute_shards": self.shard_brute,
            },
        }

    def to_report(
        self,
        name: str = "serve",
        tracer: RecordingTracer | None = None,
        scenario: dict | None = None,
        shards: dict | None = None,
    ) -> RunReport:
        """Package the rollup (and span tree, if traced) as a RunReport.

        ``shards`` — a :meth:`ShardedEngine.shard_rollup` dict — rides
        along as ``extras["service"]["shards"]`` so topology state
        (per-worker busy time, placement, fan-out) persists next to the
        request counters.
        """
        if tracer is not None:
            report = RunReport.from_run(name, tracer, scenario=scenario)
        else:
            report = RunReport(name=name, scenario=dict(scenario or {}))
        report.extras["service"] = self.rollup()
        if shards is not None:
            report.extras["service"]["shards"] = shards
        return report
