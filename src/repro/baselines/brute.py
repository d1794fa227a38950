"""Exact brute-force neighbor search — the correctness oracle.

One kernel serves every exact answer in the repository: the search
oracles below, the serving tier's degraded paths, and the workload
oracles. Distances are :func:`repro.backend.numpy_ref.sq_dist` applied
to query-minus-point differences, the IS shader's arithmetic bit for
bit, so oracle rows equal the engine's canonical rows exactly. No
hardware modeling.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.backend.numpy_ref import sq_dist
from repro.core.results import SearchResults
from repro.utils.validate import as_points, check_positive, check_positive_int

#: float64 elements of the ``(rows, N, 3)`` difference tensor per
#: block (8 MB); the row count adapts to the cloud size
_BLOCK_ELEMENTS = 1 << 20


def distance_blocks(
    queries: np.ndarray, points: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, d2)`` blocks of full squared-distance rows.

    ``d2[i, j]`` is the squared distance from ``queries[start + i]`` to
    ``points[j]``. Blocks hold as many query rows as fit the element
    budget (at least one), so memory stays bounded for any ``N``.
    """
    n_q, n = len(queries), len(points)
    rows = max(1, _BLOCK_ELEMENTS // max(3 * n, 1))
    for start in range(0, n_q, rows):
        block = queries[start : start + rows]
        diff = block[:, None, :] - points[None, :, :]
        yield start, sq_dist(diff.reshape(-1, 3)).reshape(len(block), n)


def exact_neighbors(
    points: np.ndarray, queries: np.ndarray, k: int, radius: float | None = None
) -> SearchResults:
    """The nearest ``k`` points per query, optionally within ``radius``.

    Rows are in canonical ``(sq_distance, index)`` order: ties go to
    the lower point index, including a tie across the ``k``-th slot.
    Missing neighbors are ``-1`` / ``inf`` padding; ``counts`` is the
    number of real entries. Inputs must already be validated float64
    ``(n, 3)`` arrays.
    """
    n_q, n = len(queries), len(points)
    indices = np.full((n_q, k), -1, dtype=np.int64)
    sq_d = np.full((n_q, k), np.inf)
    counts = np.zeros(n_q, dtype=np.int64)
    take = min(k, n)
    # the nearest k within the radius are the in-radius prefix of the
    # nearest k overall, so the radius is applied to the k picked only
    r2 = np.inf if radius is None else float(radius) * float(radius)
    for start, d2 in distance_blocks(queries, points):
        rows = np.arange(len(d2))[:, None]
        if take < n:
            part = np.argpartition(d2, take - 1, axis=1)[:, :take]
            # argpartition keeps an arbitrary subset of a tie across the
            # k-th slot; such rows are re-selected by a stable sort
            kth = d2[rows, part].max(axis=1)
            tied = (kth <= r2) & ((d2 <= kth[:, None]).sum(axis=1) > take)
            if tied.any():
                part[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :take]
            part.sort(axis=1)
        else:
            part = np.broadcast_to(np.arange(n), d2.shape)
        pd2 = d2[rows, part]
        order = np.argsort(pd2, axis=1, kind="stable")
        part = part[rows, order]
        pd2 = pd2[rows, order]
        valid = pd2 <= r2
        stop = start + len(d2)
        indices[start:stop, :take] = np.where(valid, part, -1)
        sq_d[start:stop, :take] = np.where(valid, pd2, np.inf)
        counts[start:stop] = valid.sum(axis=1)
    return SearchResults(indices=indices, counts=counts, sq_distances=sq_d, report=None)


def brute_force_range(points, queries, radius: float, k: int) -> SearchResults:
    """All neighbors within ``radius`` (at most ``k``, nearest kept).

    Keeping the *nearest* k (rather than arbitrary k) makes the result
    deterministic and a superset-safe reference for bounded range
    search: any correct bounded implementation must return k neighbors
    all within radius whenever the oracle finds >= k.
    """
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    radius = check_positive(radius, "radius")
    k = check_positive_int(k, "k")
    return exact_neighbors(points, queries, k, radius)


def brute_force_knn(points, queries, k: int, radius: float) -> SearchResults:
    """The exact ``k`` nearest neighbors within ``radius``."""
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    radius = check_positive(radius, "radius")
    k = check_positive_int(k, "k")
    return exact_neighbors(points, queries, k, radius)


def brute_force_true_knn(points, queries, k: int) -> SearchResults:
    """The exact ``k`` nearest neighbors with **no** radius bound.

    Oracle for the engine's ``true_knn`` adaptive-expansion search. A
    cloud with fewer than ``k`` points yields ``counts < k`` with the
    usual ``-1`` / ``inf`` padding.
    """
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    k = check_positive_int(k, "k")
    return exact_neighbors(points, queries, k)
