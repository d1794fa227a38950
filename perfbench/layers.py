"""Span recording around the calls into each layer of the engine.

The benchmark measures the package from outside: :func:`installed`
replaces each layer's public entry point *where it is called* with a
timing wrapper, and restores the originals on exit. ``repro.core.engine``
binds its imports by name (``from repro.core.partition import
compute_megacells``), so those names are patched in the engine's
namespace, not in the defining module; methods are patched on their
class, which every caller shares.

Spans nest per thread. A span's *self* time is its duration minus the
time of the spans opened inside it, so the cache-simulation callbacks
and accumulator inserts that run inside ``trace_batch`` are charged to
``cachesim`` and ``merge``, not to ``traverse``. Self times of all spans
therefore never overlap, and their sum over the wall time of a run is
the traced share of that run.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
import weakref
from collections import Counter, defaultdict

_clock = time.perf_counter


class LayerTrace:
    """Per-span call counts, inclusive and self seconds, and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._seen_caches: weakref.WeakSet = weakref.WeakSet()

    @property
    def n_spans(self) -> int:
        return sum(self.calls.values())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None, sample: bool = False):
        """``fn`` timed as span ``name``; ``after(trace, result, args)``
        runs outside the span to read counters off the result."""

        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.incl_s[name] += dt
                    self.self_s[name] += dt - child
                    self.calls[name] += 1
                    if sample:
                        self.samples[name].append(dt)
            if after is not None:
                after(self, out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, **deltas) -> None:
        with self._lock:
            for key, value in deltas.items():
                self.counts[key] += value

    def snapshot(self) -> dict:
        """Copy of the call counts and counters (for per-repetition deltas)."""
        with self._lock:
            return {"calls": dict(self.calls), "counts": dict(self.counts)}


# -- counters read off each layer's results --------------------------------


def _after_megacells(trace, mc, args):
    trace.count(growth_steps=int(mc.total_growth_steps))


def _after_bundling(trace, decision, args):
    trace.count(partitions=int(decision.n_partitions), bundles=len(decision.bundles))


def _after_launch(trace, launch, args):
    tr = launch.trace
    trace.count(
        launches=1,
        steps=tr.total_steps,
        is_calls=tr.total_is_calls,
        leaves_pruned=int(tr.leaves_pruned),
    )


def _after_cache_finalize(trace, _out, args):
    tracer = args[0]
    if tracer in trace._seen_caches:
        return
    trace._seen_caches.add(tracer)
    stats = tracer.hier.l1_stats
    trace.count(sampled_accesses=stats.accesses, l1_hits=stats.hits)


def _after_insert(trace, _out, args):
    trace.count(inserts=len(args[1]))


def _after_lookup(trace, gas, args):
    trace.count(gas_hits=int(gas is not None), gas_misses=int(gas is None))


#: (module, attribute path, span name, after-hook, keep samples)
TARGETS = [
    ("repro.core.engine", "morton_order", "data.morton", None, False),
    ("repro.core.engine", "compute_megacells", "partition.megacells", _after_megacells, False),
    ("repro.core.engine", "make_partitions", "partition.make", None, False),
    ("repro.core.engine", "bundle_partitions", "partition.bundle", _after_bundling, False),
    ("repro.core.engine", "schedule_queries", "schedule", None, False),
    ("repro.core.engine", "build_gas", "build.gas", None, False),
    ("repro.core.engine", "refit_gas", "build.refit", None, False),
    ("repro.core.cache", "GASCache.lookup", "build.cache_lookup", _after_lookup, False),
    ("repro.core.engine", "RTNNEngine.knn_search", "engine", None, False),
    ("repro.core.engine", "RTNNEngine.range_search", "engine", None, False),
    ("repro.core.engine", "RTNNEngine.count_in_radius", "engine", None, False),
    ("repro.core.engine", "RTNNEngine.search_fused", "engine", None, False),
    ("repro.optix.pipeline", "Pipeline.launch", "traverse.launch", _after_launch, False),
    ("repro.optix.pipeline", "trace_batch", "traverse.trace", None, False),
    ("repro.gpu.cache", "SampledCacheTracer.__init__", "cachesim", None, False),
    ("repro.gpu.cache", "SampledCacheTracer.on_node_access", "cachesim", None, False),
    ("repro.gpu.cache", "SampledCacheTracer.on_prim_access", "cachesim", None, False),
    ("repro.gpu.cache", "SampledCacheTracer.finalize", "cachesim", _after_cache_finalize, False),
    ("repro.core.queues", "KnnQueueBatch.insert", "merge", _after_insert, False),
    ("repro.core.queues", "KnnQueueBatch.finalize", "merge", None, False),
    ("repro.core.queues", "RangeAccumulator.insert", "merge", _after_insert, False),
    ("repro.core.queues", "CountAccumulator.insert", "merge", _after_insert, False),
    ("repro.serve.service", "execute_batch", "serve.execute", None, True),
    ("repro.workloads.client", "SessionClient.count", "workloads.count", None, False),
    ("repro.workloads.client", "SessionClient.range", "workloads.range", None, False),
    ("repro.workloads.client", "SessionClient.update", "workloads.update", None, False),
    ("repro.workloads.sph", "interaction_forces", "workloads.forces", None, False),
]


@contextlib.contextmanager
def installed(trace: LayerTrace):
    """Patch every target with ``trace``'s wrapper; restore on exit."""
    undo = []
    try:
        for module_name, path, name, after, sample in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, trace.wrap(name, original, after, sample))
            undo.append((owner, attr, original))
        yield trace
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def span_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured here."""
    trace = LayerTrace()

    def noop():
        return None

    wrapped = trace.wrap("calibrate", noop)
    t0 = _clock()
    for _ in range(n):
        noop()
    bare = _clock() - t0
    t0 = _clock()
    for _ in range(n):
        wrapped()
    return max(_clock() - t0 - bare, 0.0) / n
