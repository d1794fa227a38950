"""Brute-force oracles for the workload pipelines.

Each oracle recomputes its workload from exhaustive pairwise
distances, taken block by block from
:func:`repro.baselines.brute.distance_blocks` — the same shader
arithmetic as the engine and the search oracles — and applies the
same canonical finalization rules as the pipelines. Matches are
therefore exact:

* :func:`brute_dbscan` — labels equal bit-for-bit (not just up to
  renaming);
* :func:`brute_hausdorff` — identical squared distance and witness
  pair;
* :func:`brute_sph` — bit-identical trajectories (shares
  :func:`~repro.workloads.sph.interaction_forces`).

Distance blocks are bounded by an element budget; beyond one block
the oracles keep only per-point neighbor lists.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.brute import distance_blocks
from repro.workloads.dbscan import DBSCANConfig, finalize_labels, _union
from repro.workloads.sph import SPHConfig, interaction_forces


def _within(points: np.ndarray, r2: float) -> tuple[list, list]:
    """Per-point ascending neighbor ids within ``r2`` and their d2."""
    nbrs: list[np.ndarray] = []
    d2s: list[np.ndarray] = []
    for _, d2 in distance_blocks(points, points):
        for row in d2:
            ids = np.flatnonzero(row <= r2)
            nbrs.append(ids)
            d2s.append(row[ids])
    return nbrs, d2s


def brute_dbscan(
    points, config: DBSCANConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Exhaustive DBSCAN with the pipeline's canonical labeling.

    Returns ``(labels, core, counts, n_clusters)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    r2 = float(config.eps) * float(config.eps)

    nbr_rows, _ = _within(points, r2)
    counts = np.array([len(nbrs) for nbrs in nbr_rows], dtype=np.int64)
    core = counts >= config.min_pts

    parent = np.arange(n, dtype=np.int64)
    border_anchor = np.full(n, n, dtype=np.int64)
    for i, nbrs in enumerate(nbr_rows):
        if not core[i]:
            continue
        core_nbrs = nbrs[core[nbrs]]
        for j in core_nbrs.tolist():
            _union(parent, i, j)
        other = nbrs[~core[nbrs]]
        if len(other):
            np.minimum.at(border_anchor, other, i)
    labels, n_clusters = finalize_labels(parent, core, border_anchor)
    return labels, core, counts, n_clusters


def brute_hausdorff(queries_a, points_b) -> tuple[float, int, int]:
    """Exhaustive directed ``h²(A, B)`` with canonical tie-breaks.

    Returns ``(sq_distance, index_a, index_b)`` — the lowest-index
    maximizer of A and, for it, the lowest-index minimizer of B (both
    via first-occurrence argmax/argmin over index-ordered chunks),
    matching the pipeline's strict-update and canonical-witness rules.
    """
    a = np.asarray(queries_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if len(a) == 0:
        return 0.0, -1, -1
    cmax2 = -1.0
    index_a = -1
    index_b = -1
    for start, d2 in distance_blocks(a, b):
        mins = d2.min(axis=1)
        best = int(np.argmax(mins))
        if mins[best] > cmax2:
            cmax2 = float(mins[best])
            index_a = start + best
            index_b = int(np.argmin(d2[best]))
    return max(cmax2, 0.0), index_a, index_b


def brute_sph(
    points, config: SPHConfig, velocities=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive stepper sharing the pipeline's force function.

    Neighbor rows are rebuilt per step from full pairwise distances in
    natural (ascending) index order — exactly the canonical rows the
    pipeline feeds :func:`interaction_forces` — with the same per-step
    width ``k = counts.max()``. Returns ``(positions, velocities)``.
    """
    x = np.array(points, dtype=np.float64, copy=True)
    n = len(x)
    v = (
        np.zeros_like(x)
        if velocities is None
        else np.array(velocities, dtype=np.float64, copy=True)
    )
    r2 = float(config.radius) * float(config.radius)
    dt = float(config.dt)
    for _ in range(config.n_steps):
        nbr_rows, d2_rows = _within(x, r2)
        counts = np.array([len(nbrs) for nbrs in nbr_rows], dtype=np.int64)
        k = max(int(counts.max()), 1)
        cidx = np.full((n, k), -1, dtype=np.int64)
        cd2 = np.full((n, k), np.inf)
        for i, (nbrs, d2) in enumerate(zip(nbr_rows, d2_rows)):
            cidx[i, : len(nbrs)] = nbrs
            cd2[i, : len(nbrs)] = d2
        acc = interaction_forces(x, cidx, cd2, config.gravity, config.softening)
        v = v + dt * acc
        x = x + dt * v
    return x, v
