"""Sphere tests.

Step 2 of RTNN's algorithm (Section 3.1) is the *sphere test*: given
that a query point landed inside a primitive's AABB, check whether it
also lies inside the inscribed ``r``-sphere.
"""

from __future__ import annotations

import numpy as np


def points_in_sphere(
    queries: np.ndarray, centers: np.ndarray, radius: float
) -> np.ndarray:
    """Pairwise test: is ``queries[i]`` within ``radius`` of ``centers[i]``?

    Both arrays are ``(M, d)``; the boundary counts as inside.
    """
    queries = np.asarray(queries, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", queries - centers, queries - centers)
    return d2 <= float(radius) * float(radius)
