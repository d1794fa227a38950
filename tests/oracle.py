"""The one exactness check against the brute-force oracle.

Every searcher computes pair distances with the IS shader's arithmetic
(subtract, then the ``sq_dist`` reduction), so its answers must equal
:func:`repro.baselines.brute.exact_neighbors` bit for bit — no
tolerances, no set-only comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.backend.numpy_ref import sq_dist
from repro.baselines.brute import exact_neighbors
from repro.utils.validate import as_points


def assert_matches_oracle(res, points, queries, k, radius=None, first_k=False):
    """Assert ``res`` is the exact answer for ``(points, queries, k, radius)``.

    * ``counts`` and the row-sorted ``sq_distances`` are
      ``array_equal`` to the oracle's;
    * canonical ``(sq_distance, index)`` indices are ``array_equal``,
      except on rows whose ``k``-th distance ties an excluded in-radius
      candidate (which of the tied points fills the slot is not part
      of the contract).

    ``first_k`` is the bounded-range contract: a row with more than
    ``k`` in-radius points holds *some* ``k`` of them (Any-Hit stops at
    the first ``k`` found). Such truncated rows are checked for count
    and membership only, each returned distance ``array_equal`` to the
    oracle's distance for that index.
    """
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    ref = exact_neighbors(points, queries, k + 1, radius)
    got = res.canonical()
    want_counts = np.minimum(ref.counts, k)
    np.testing.assert_array_equal(got.counts, want_counts)
    over = ref.counts > k
    exact_rows = ~over if first_k else np.ones(len(queries), dtype=bool)
    np.testing.assert_array_equal(
        got.sq_distances[exact_rows], ref.sq_distances[exact_rows, :k]
    )
    straddle = over & (ref.sq_distances[:, k] == ref.sq_distances[:, k - 1])
    rows = exact_rows & ~straddle
    np.testing.assert_array_equal(got.indices[rows], ref.indices[rows, :k])
    if first_k and over.any():
        idx = got.indices[over]
        assert (idx >= 0).all()
        qi = np.repeat(np.flatnonzero(over), k)
        d2 = sq_dist(queries[qi] - points[idx.ravel()]).reshape(idx.shape)
        np.testing.assert_array_equal(got.sq_distances[over], d2)
        assert (d2 <= float(radius) * float(radius)).all()
        assert all(len(set(row)) == k for row in idx.tolist())
