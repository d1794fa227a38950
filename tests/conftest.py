"""Shared fixtures: small deterministic point sets and engines."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def cube_points(rng):
    """1500 uniform points in the unit cube."""
    return rng.random((1500, 3))


@pytest.fixture(scope="session")
def cube_queries(rng):
    """400 uniform query points in the unit cube."""
    return rng.random((400, 3))


@pytest.fixture(scope="session")
def clustered_points(rng):
    """A strongly clustered set (stress for partitioning/bundling)."""
    centers = rng.random((12, 3))
    which = rng.integers(0, 12, 1200)
    pts = centers[which] + rng.normal(0, 0.01, (1200, 3))
    return np.clip(pts, 0.0, 1.0)
