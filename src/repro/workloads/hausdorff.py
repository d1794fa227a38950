"""Directed Hausdorff distance via bichromatic NN with cmin/cmax pruning.

``h(A, B) = max_a min_b d(a, b)`` — the classic RT-accelerated
formulation (SNIPPETS.md snippets 1–2) keeps a global running maximum
``cmax`` (a lower bound on the answer) and, per A point, a ``cmin``
(its NN distance): a point whose ``cmin`` cannot exceed ``cmax`` can
never move the answer and is pruned from further work.

This pipeline walks A in fixed-size chunks (index order). Each chunk
probes k=1 NN at a radius derived from the current ``cmax`` — a point
whose NN falls inside that radius gets its exact ``cmin`` for free and
is pruned if it does not beat ``cmax``; only the *survivors* (no
neighbor found) pay geometric radius-expansion rounds, re-launching
only the still-empty rows (the ``run_expansion`` relaunch idiom).
Because later chunks probe at the (monotonically growing) ``cmax``,
most of A never expands at all.

Determinism contract: the squared distance is exact and bit-identical
to the brute oracle (the shader's arithmetic); ``index_a`` is the
**lowest** A index attaining the maximum (chunks are walked in index
order and updates are strict); ``index_b`` is canonicalized after the
fact as the lowest-index B witness at exactly the final distance (one
extra range query), so ties in either argument resolve identically on
every serving path and in the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.expansion import COVER_SLACK, cover_radius
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.validate import as_points, check_positive, check_positive_int


@dataclass(frozen=True)
class HausdorffConfig:
    """Knobs of the directed-Hausdorff pipeline.

    ``init_radius`` seeds the probe when no ``cmax`` exists yet
    (default: the joint cover radius / 1024, so at most ~10 expansion
    doublings reach exhaustive). ``max_rounds`` is a hard safety cap on
    expansion rounds per chunk.
    """

    chunk_size: int = 256
    growth: float = 2.0
    max_rounds: int = 64
    init_radius: float | None = None

    def __post_init__(self):
        check_positive_int(self.chunk_size, "chunk_size")
        check_positive_int(self.max_rounds, "max_rounds")
        if not self.growth > 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.init_radius is not None:
            check_positive(self.init_radius, "init_radius")


@dataclass
class HausdorffResult:
    """The directed distance, its witness pair, and pruning telemetry."""

    distance: float
    sq_distance: float
    index_a: int
    index_b: int
    stats: dict = field(default_factory=dict)


def _probe_radius(cmax2: float, floor: float) -> float:
    """Smallest radius whose shader-arithmetic r² covers ``cmax2``.

    The shader's acceptance test is ``d2 <= float(r) * float(r)``; a
    bare ``sqrt`` can round below, so nudge up until the product
    clears. Never below ``floor`` (the seed radius)."""
    if cmax2 <= 0.0:
        return floor
    r = math.sqrt(cmax2)
    while r * r < cmax2:
        r = math.nextafter(r, math.inf)
    return max(r, floor)


def run_hausdorff(
    client, queries_a, config: HausdorffConfig, tracer: Tracer | None = None
) -> HausdorffResult:
    """Directed ``h(A, B)`` where B is the client's point set."""
    tracer = tracer if tracer is not None else NULL_TRACER
    a = as_points(queries_a, "queries_a")
    n = len(a)
    if n == 0:
        return HausdorffResult(0.0, 0.0, -1, -1, {"chunks": 0, "rounds": 0})

    cover = cover_radius(client.points, a) * COVER_SLACK
    r0 = (
        float(config.init_radius)
        if config.init_radius is not None
        else max(cover / 1024.0, 1e-12)
    )

    cmax2 = -1.0  # below any d2, so the first chunk always updates
    index_a = -1
    rounds_total = 0
    relaunched_total = 0
    pruned_total = 0

    chunk_starts = range(0, n, config.chunk_size)
    for ci, start in enumerate(chunk_starts):
        ids = np.arange(start, min(start + config.chunk_size, n))
        pts = a[ids]
        with tracer.span(
            f"workload.hausdorff.chunk[{ci}]", phase="workload"
        ) as sp:
            mins = np.full(len(ids), np.inf)
            pending = np.arange(len(ids))
            r = _probe_radius(cmax2, r0)
            rounds = 0
            while len(pending):
                if rounds >= config.max_rounds:
                    raise RuntimeError(
                        "hausdorff expansion exceeded max_rounds "
                        f"({config.max_rounds}) at radius {r}"
                    )
                res = client.knn(pts[pending], 1, r)
                found = res.counts > 0
                if found.any():
                    mins[pending[found]] = res.sq_distances[found, 0]
                sp.add(
                    hausdorff_rounds=1,
                    relaunched_queries=len(pending),
                    satisfied_queries=int(found.sum()),
                )
                sp.note(radius=float(r))
                relaunched_total += len(pending)
                pending = pending[~found]
                rounds += 1
                if len(pending):
                    if r >= cover:
                        # an exhaustive round found nothing: B is
                        # unreachable, which as_points precludes
                        raise RuntimeError(
                            "hausdorff expansion failed at cover radius"
                        )
                    r = min(r * config.growth, cover)
            rounds_total += rounds
            pruned = mins <= cmax2
            pruned_total += int(pruned.sum())
            sp.add(pruned_queries=int(pruned.sum()))
            best = int(np.argmax(mins))  # first max = lowest index
            if mins[best] > cmax2:
                cmax2 = float(mins[best])
                index_a = int(ids[best])

    hd2 = max(cmax2, 0.0)
    # Canonical witness: the lowest-index B point at exactly hd2. The
    # shader recomputes the same bitwise d2, so the equality filter is
    # exact; the count pins the escalation k so no witness is dropped.
    r_wit = _probe_radius(hd2, r0)
    wq = a[index_a : index_a + 1]
    k_wit = max(int(client.count(wq, r_wit)[0]), 1)
    wres = client.range(wq, r_wit, k_wit)
    row = wres.indices[0, : wres.counts[0]]
    row_d2 = wres.sq_distances[0, : wres.counts[0]]
    witnesses = row[row_d2 == hd2]
    index_b = int(witnesses.min())

    stats = {
        "chunks": len(list(chunk_starts)),
        "rounds": rounds_total,
        "relaunched": relaunched_total,
        "pruned": pruned_total,
        "seed_radius": r0,
    }
    return HausdorffResult(
        distance=math.sqrt(hd2),
        sq_distance=hd2,
        index_a=index_a,
        index_b=index_b,
        stats=stats,
    )
