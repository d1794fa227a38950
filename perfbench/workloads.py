"""The four benchmark workloads: inputs, measured operations, checks.

Every input is generated here from the workload seed; the engine only
ever receives arrays, through the public API (``repro.api``,
``repro.workloads``, ``SearchSession.serve``). Each workload returns a
:class:`RunResult` holding raw samples; :mod:`metrics` turns them into
the reported end-to-end and per-layer numbers.

Scenes are drawn as seeded subsets of one fixed parent cloud per
family (the N-body and LiDAR generators place their clusters from the
seed, and one seed's cloud can cost twice another's). A subset keeps
the scene's structure while still giving each seed its own points,
queries and modeled time, so seed-to-seed spread measures the program
rather than the generator.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import resource
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.api import SearchSession
from repro.baselines.brute import brute_force_true_knn
from repro.datasets import kitti_like, load, nbody_like
from repro.serve.loadgen import LoadSpec, spot_check
from repro.serve.queue import ServeError
from repro.workloads import SessionClient, SPHConfig, brute_sph, run_sph

from layers import LayerTrace, installed, span_cost_s

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "settings.json")) as _fh:
    SETTINGS = json.load(_fh)

#: setups timed before the first measured repetition (``setup_s`` is
#: the median of these plus one per repetition)
SETUP_REPS = 15
#: repetitions run even when one repetition outlasts ``--seconds``
MIN_REPS = 3
#: seeded rows checked against the brute oracle per batch workload
ORACLE_ROWS = 64


@dataclass
class RunResult:
    """Raw samples of one run; :func:`metrics.end_to_end` and
    :func:`metrics.per_layer` reduce them."""

    workload: str
    setup_s: list = field(default_factory=list)
    #: wall seconds of each latency unit (batch, SPH step, or request)
    latency_s: list = field(default_factory=list)
    queries_per_s: float = 0.0
    #: modeled GPU seconds per latency unit, split by breakdown category
    modeled: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: traced runs only: accumulated spans, units they cover, and wall
    trace: LayerTrace | None = None
    trace_units: int = 0
    trace_wall_s: float = 0.0
    span_cost_s: float = 0.0
    #: per-repetition counter deltas (batch workloads; must be equal)
    rep_counts: list = field(default_factory=list)
    serve: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def modeled_split(reports) -> dict:
    """Sum of the reports' modeled breakdowns, seconds per category."""
    out = {"data": 0.0, "opt": 0.0, "bvh": 0.0, "fs": 0.0, "search": 0.0}
    for rep in reports:
        for key, value in rep.breakdown.as_dict().items():
            if key in out:
                out[key] += value
    return out


def _subset(parent: np.ndarray, n: int, rng) -> np.ndarray:
    idx = np.sort(rng.choice(len(parent), n, replace=False))
    return np.ascontiguousarray(parent[idx])


def _pinned(workload: str, seed: int) -> str | None:
    return SETTINGS["fingerprints"].get(workload, {}).get(str(seed))


def _record_reports(session: SearchSession, sink: list) -> SearchSession:
    """Collect the RunReport of every search the session answers."""
    for name in ("knn_search", "range_search", "count_in_radius"):
        fn = getattr(session, name)

        def recording(*args, _fn=fn, **kwargs):
            res = _fn(*args, **kwargs)
            sink.append(res.report)
            return res

        setattr(session, name, recording)
    return session


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------


class BatchWorkload:
    """A workload repeated as (setup, operation) pairs."""

    name = ""
    #: latency units (batches or steps) one operation covers
    units_per_op = 1
    #: neighbor-search queries one operation answers
    queries_per_op = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def op(self, state):
        """Run once; returns ``(fingerprint, reports)``."""
        raise NotImplementedError

    def check(self, first: str, rows: int = ORACLE_ROWS) -> list[str]:
        """Oracle checks on the measured output, whose fingerprint is
        ``first`` (``rows`` sampled rows where the oracle is per query)."""
        raise NotImplementedError


class KnnNbody(BatchWorkload):
    """Self kNN (k=8, r=16) over a clustered 20k-point N-body scene."""

    name = "knn-nbody"
    N, PARENT, K, RADIUS = 20_000, 24_000, 8, 16.0

    def __init__(self, seed):
        super().__init__(seed)
        self.rng = np.random.default_rng([seed, 1])
        self.points = _subset(nbody_like(self.PARENT, seed=0), self.N, self.rng)
        self.queries_per_op = self.N

    def setup(self):
        return SearchSession(self.points)

    def op(self, session):
        res = session.knn_search(self.points, k=self.K, radius=self.RADIUS)
        self.last = res
        return fingerprint(res.indices, res.counts, res.sq_distances), [res.report]

    def check(self, first, rows=ORACLE_ROWS):
        res = self.last
        errors = []
        sample = np.sort(self.rng.choice(len(self.points), rows, replace=False))
        ref = brute_force_true_knn(self.points, self.points[sample], k=self.K)
        outside = ref.sq_distances > self.RADIUS * self.RADIUS
        ref_idx = np.where(outside, -1, ref.indices)
        ref_d2 = np.where(outside, np.inf, ref.sq_distances)
        ref_counts = (~outside).sum(axis=1)
        for label, got, want in (
            ("indices", res.indices[sample], ref_idx),
            ("counts", res.counts[sample], ref_counts),
            ("sq_distances", res.sq_distances[sample], ref_d2),
        ):
            if not np.array_equal(got, want):
                errors.append(f"{self.name}: sampled {label} differ from brute kNN")
        pin = _pinned(self.name, self.seed)
        if pin is not None and pin != first:
            errors.append(f"{self.name}: full-result checksum differs from the pin")
        return errors


class CountKitti(BatchWorkload):
    """Exact counts within r=4 for 5k seeded queries of a 20k LiDAR scene."""

    name = "count-kitti"
    N, PARENT, Q, RADIUS = 20_000, 24_000, 5_000, 4.0

    def __init__(self, seed):
        super().__init__(seed)
        self.rng = np.random.default_rng([seed, 2])
        self.points = _subset(kitti_like(self.PARENT, seed=0), self.N, self.rng)
        self.queries = np.ascontiguousarray(
            self.points[self.rng.choice(self.N, self.Q, replace=False)]
        )
        self.queries_per_op = self.Q

    def setup(self):
        return SearchSession(self.points)

    def op(self, session):
        res = session.count_in_radius(self.queries, radius=self.RADIUS)
        self.last = res
        return fingerprint(res.counts), [res.report]

    def check(self, first, rows=ORACLE_ROWS):
        sample = np.sort(self.rng.choice(len(self.queries), rows, replace=False))
        ref = brute_force_true_knn(self.points, self.queries[sample], k=len(self.points))
        want = (ref.sq_distances <= self.RADIUS * self.RADIUS).sum(axis=1)
        if not np.array_equal(self.last.counts[sample], want):
            return [f"{self.name}: sampled counts differ from brute counts"]
        return []


class SphBunny(BatchWorkload):
    """Three SPH steps over the 12k-point bunny: count, range, refit."""

    name = "sph-bunny"
    RADIUS, STEPS = 0.025, 3
    units_per_op = STEPS

    def __init__(self, seed):
        super().__init__(seed)
        self.points, _ = load("Bunny-360K", seed=seed)
        self.config = SPHConfig(radius=self.RADIUS, n_steps=self.STEPS)
        # each step answers one count and one range query per point
        self.queries_per_op = 2 * self.STEPS * len(self.points)

    def setup(self):
        reports = []
        return _record_reports(SearchSession(self.points), reports), reports

    def op(self, state):
        session, reports = state
        reports.clear()
        res = run_sph(SessionClient(session), self.config)
        self.last = res
        return fingerprint(res.positions, res.velocities), list(reports)

    def check(self, first, rows=ORACLE_ROWS):
        pin = _pinned(self.name, self.seed)
        if pin is not None:
            ok = pin == first
        else:
            x, v = brute_sph(self.points, self.config)
            ok = first == fingerprint(x, v)
        if not ok:
            return [f"{self.name}: trajectory differs from the brute stepper"]
        return []


def run_batch(wl: BatchWorkload, seconds: float, trace: bool, min_reps: int = MIN_REPS) -> RunResult:
    out = RunResult(workload=wl.name)
    for _ in range(SETUP_REPS):
        t0 = clock()
        wl.setup()
        out.setup_s.append(clock() - t0)
    layer = LayerTrace() if trace else None
    if trace:
        out.span_cost_s = span_cost_s()
    first = None
    op_s: list[float] = []
    start = clock()
    with installed(layer) if trace else contextlib.nullcontext():
        while True:
            before = layer.snapshot() if trace else None
            t0 = clock()
            state = wl.setup()
            t1 = clock()
            fp, reports = wl.op(state)
            t2 = clock()
            out.setup_s.append(t1 - t0)
            op_s.append(t2 - t1)
            out.attempted += 1
            modeled = modeled_split(reports)
            if first is None:
                first, out.modeled = fp, modeled
            elif fp != first or modeled != out.modeled:
                out.failed += 1
                out.errors.append(f"{wl.name}: repetition {len(op_s)} differs from the first")
            if trace:
                after = layer.snapshot()
                out.rep_counts.append(_delta(before["counts"], after["counts"]) | {
                    "calls." + k: v for k, v in _delta(before["calls"], after["calls"]).items()
                })
                out.trace_wall_s += t2 - t0
            elapsed = clock() - start
            if len(op_s) >= min_reps and elapsed + statistics.median(op_s) > seconds:
                break
    out.peak_rss_mb = peak_rss_mb()
    for ops in op_s:
        out.latency_s.extend([ops / wl.units_per_op] * wl.units_per_op)
    out.queries_per_s = wl.queries_per_op / statistics.median(op_s)
    out.modeled = {k: v / wl.units_per_op for k, v in out.modeled.items()}
    out.trace = layer
    out.trace_units = len(op_s) * wl.units_per_op
    try:
        out.errors.extend(wl.check(first))
    except Exception as exc:  # an oracle that crashes is a failed check
        out.errors.append(f"{wl.name}: oracle check raised {exc!r}")
    if trace and any(c != out.rep_counts[0] for c in out.rep_counts[1:]):
        out.errors.append(f"{wl.name}: traced counters differ between repetitions")
    return out


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------


class ServeBunny:
    """The bunny cloud behind ``SearchSession.serve()``: a closed loop
    of 16 callers for capacity, then seeded Poisson arrivals at a fixed
    rate for latency. 8-query requests, half knn and half range."""

    name = "serve-bunny"
    K, RADIUS, QPR, CALLERS = 8, 0.02, 8, 16
    #: share of ``--seconds`` spent in the closed loop; the open loop gets
    #: the rest, enough arrivals for a p95 with ~10 samples beyond it
    CLOSED_SHARE = 0.3

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.points, _ = load("Bunny-360K", scale=scale, seed=seed)
        self.rps = float(SETTINGS["serve"]["open_loop_rps"])
        #: most Python threads alive at any open-loop arrival
        self.threads_max = 0

    def request(self, rng) -> tuple[str, np.ndarray]:
        kind = "knn" if rng.random() < 0.5 else "range"
        ids = rng.integers(0, len(self.points), self.QPR)
        jitter = rng.normal(0.0, self.RADIUS * 0.25, (self.QPR, 3))
        return kind, self.points[ids] + jitter

    async def _submit(self, svc, kind, queries):
        return await svc.submit(kind, queries, k=self.K, radius=self.RADIUS)

    async def closed_loop(self, svc, seconds, out):
        end = clock() + seconds
        done = []

        async def caller(i):
            rng = np.random.default_rng([self.seed, 3, i])
            while clock() < end:
                kind, q = self.request(rng)
                out.attempted += 1
                try:
                    done.append(await self._submit(svc, kind, q))
                except ServeError:
                    out.failed += 1

        t0 = clock()
        await asyncio.gather(*(caller(i) for i in range(self.CALLERS)))
        return done, clock() - t0

    async def open_loop(self, svc, seconds):
        """Seeded Poisson arrivals at the fixed rate; each request is
        timed from its scheduled send time, so generator stalls count
        against it."""
        rps = self.rps
        gaps = np.random.default_rng([self.seed, 4]).exponential(
            1.0, int(rps * seconds * 2) + 16) / rps
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        rng = np.random.default_rng([self.seed, 8])
        requests = [self.request(rng) for _ in offsets]
        latency = np.full(len(offsets), np.inf)
        lag = np.zeros(len(offsets))
        served: list = [None] * len(offsets)

        async def one(i, due):
            kind, q = requests[i]
            try:
                served[i] = await self._submit(svc, kind, q)
            except ServeError:
                return  # counted as failed and infinitely late
            latency[i] = clock() - due

        t0 = clock()
        tasks = []
        for i, off in enumerate(offsets):
            due = t0 + off
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lag[i] = clock() - due
            tasks.append(asyncio.ensure_future(one(i, due)))
            self.threads_max = max(self.threads_max, threading.active_count())
        await asyncio.gather(*tasks)
        return requests, served, latency, lag

    async def run(self, seconds, trace, out: RunResult):
        loop = asyncio.get_running_loop()
        # one engine thread beside the event loop: two threads, one per core
        executor = ThreadPoolExecutor(max_workers=1)
        loop.set_default_executor(executor)
        session = None
        for _ in range(SETUP_REPS):
            t0 = clock()
            session = SearchSession(self.points)
            svc = session.serve()
            await svc.start()
            out.setup_s.append(clock() - t0)
            await svc.stop()
        svc = session.serve()
        await svc.start()
        try:
            warm_rng = np.random.default_rng([self.seed, 5])
            for kind in ("knn", "range"):
                await self._submit(svc, kind, self.request(warm_rng)[1])
            out.modeled = self.modeled_probe(session)

            layer = LayerTrace() if trace else None
            if trace:
                out.span_cost_s = span_cost_s()
            closed_s = seconds * self.CLOSED_SHARE
            with installed(layer) if trace else contextlib.nullcontext():
                t0 = clock()
                n_batches0 = len(svc.metrics.occupancies)
                closed, closed_wall = await self.closed_loop(svc, closed_s, out)
                n_batches1 = len(svc.metrics.occupancies)
                requests, served, latency, lag = await self.open_loop(
                    svc, seconds - closed_s
                )
                n_batches2 = len(svc.metrics.occupancies)
                out.trace_wall_s = clock() - t0
            out.peak_rss_mb = peak_rss_mb()
            out.trace = layer
            completed_open = [s for s in served if s is not None]
            out.attempted += len(requests)
            out.failed += len(requests) - len(completed_open)
            out.trace_units = len(closed) + len(completed_open)
            out.queries_per_s = len(closed) * self.QPR / closed_wall
            out.latency_s = latency.tolist()
            occ = svc.metrics.occupancies
            out.serve = {
                "closed_occupancy_mean": float(np.mean(occ[n_batches0:n_batches1]))
                if n_batches1 > n_batches0 else 0.0,
                "open_batches": n_batches2 - n_batches1,
                "queue_wait_s": [s.queue_wait_s for s in completed_open],
                "degraded": sum(s.degraded for s in closed + completed_open),
                "completed": len(closed) + len(completed_open),
                "gen_lag_s": lag.tolist(),
                "execute_s": layer.samples.get("serve.execute", []) if trace else [],
            }
            out.errors.extend(await self.check(svc, session, requests, served))
        finally:
            await svc.stop()
            executor.shutdown(wait=True)

    def modeled_probe(self, session) -> dict:
        """Modeled GPU seconds per request of one fused 8-request launch
        per kind on the warm engine: deterministic for a seed."""
        rng = np.random.default_rng([self.seed, 6])
        total = None
        for kind in ("knn", "range"):
            groups = [self.request(rng)[1] for _ in range(8)]
            res = session.engine.search_fused(kind, groups, radius=self.RADIUS, k=self.K)
            split = modeled_split([res[0].report])
            total = split if total is None else {k: total[k] + split[k] for k in split}
        return {k: v / 16 for k, v in total.items()}

    async def check(self, svc, session, requests, served) -> list[str]:
        errors = []
        for mode in ("knn", "range"):
            spec = LoadSpec(
                mode=mode, k=self.K, radius=self.RADIUS,
                queries_per_request=self.QPR, seed=self.seed,
            )
            try:
                await spot_check(svc, session.engine, self.points, spec)
            except AssertionError as exc:
                errors.append(f"{self.name}: spot check ({mode}): {exc}")
        # a seeded sample of the open-loop replies, replayed directly
        rng = np.random.default_rng([self.seed, 7])
        done = [i for i, s in enumerate(served) if s is not None]
        for i in rng.choice(done, min(8, len(done)), replace=False):
            kind, q = requests[i]
            if kind == "knn":
                direct = session.knn_search(q, k=self.K, radius=self.RADIUS)
            else:
                direct = session.range_search(q, radius=self.RADIUS, k=self.K)
            got = served[i]
            if not (
                np.array_equal(got.indices, direct.indices)
                and np.array_equal(got.counts, direct.counts)
                and np.array_equal(got.sq_distances, direct.sq_distances)
            ):
                errors.append(f"{self.name}: served request {i} differs from a direct call")
        return errors


def run_serve(wl: ServeBunny, seconds: float, trace: bool) -> RunResult:
    out = RunResult(workload=wl.name)
    asyncio.run(wl.run(seconds, trace, out))
    return out


BATCH = {cls.name: cls for cls in (KnnNbody, CountKitti, SphBunny)}
NAMES = [*BATCH, ServeBunny.name]

_ENGINE = {"engine", "traverse.launch", "traverse.trace", "cachesim", "merge", "schedule",
           "build.cache_lookup"}
_PARTITION = {"partition.megacells", "partition.make", "partition.bundle"}
_SPH = {"workloads.count", "workloads.range", "workloads.update", "workloads.forces"}
#: spans each traced workload must record at least once, and spans it
#: must never record; a miss means a wrapper no longer sits on the path
#: the layer is called through
SPANS = {
    "knn-nbody": (_ENGINE | _PARTITION | {"data.morton", "build.gas"},
                  _SPH | {"build.refit", "serve.execute"}),
    "count-kitti": (_ENGINE | {"data.morton", "build.gas"},
                    _PARTITION | _SPH | {"build.refit", "serve.execute"}),
    "sph-bunny": (_ENGINE | _PARTITION | _SPH | {"data.morton", "build.gas", "build.refit"},
                  {"serve.execute"}),
    "serve-bunny": (_ENGINE | _PARTITION | {"serve.execute"}, _SPH | {"build.refit"}),
}


def span_errors(res: RunResult) -> list[str]:
    must, never = SPANS[res.workload]
    calls = res.trace.calls
    return [f"{res.workload}: traced span {n!r} recorded no call" for n in sorted(must)
            if not calls.get(n)] + [
        f"{res.workload}: traced span {n!r} recorded {calls[n]} calls, expected none"
        for n in sorted(never) if calls.get(n)]


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    if name == ServeBunny.name:
        res = run_serve(ServeBunny(seed), seconds, trace)
    else:
        res = run_batch(BATCH[name](seed), seconds, trace)
    if trace:
        res.errors.extend(span_errors(res))
    return res
