"""RayBatch and sphere-kernel tests."""

import numpy as np
import pytest

from repro.geometry.ray import (
    DEFAULT_DIRECTION,
    RayBatch,
    SHORT_RAY_TMAX,
    short_rays_from_queries,
)
from repro.geometry.sphere import points_in_sphere


def test_short_rays_defaults():
    q = np.random.default_rng(0).random((10, 3))
    rays = short_rays_from_queries(q)
    assert rays.t_min == 0.0 and rays.t_max == SHORT_RAY_TMAX
    assert np.allclose(rays.directions, DEFAULT_DIRECTION)
    assert (rays.query_ids == np.arange(10)).all()
    assert len(rays) == 10


def test_ray_batch_permuted_tracks_query_ids():
    q = np.arange(30, dtype=np.float64).reshape(10, 3)
    rays = short_rays_from_queries(q)
    perm = np.random.default_rng(1).permutation(10)
    moved = rays.permuted(perm)
    assert (moved.query_ids == perm).all()
    assert np.allclose(moved.origins, q[perm])


def test_ray_batch_validation():
    q = np.zeros((4, 3))
    with pytest.raises(ValueError):
        RayBatch(q, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        RayBatch(q, np.zeros((4, 3)), t_min=1.0, t_max=0.0)
    with pytest.raises(ValueError):
        RayBatch(q, np.zeros((4, 3)), query_ids=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        short_rays_from_queries(np.zeros((4, 2)))


def test_points_in_sphere_boundary():
    q = np.array([[1.0, 0.0, 0.0]])
    c = np.array([[0.0, 0.0, 0.0]])
    assert points_in_sphere(q, c, 1.0).all()           # boundary inside
    assert not points_in_sphere(q, c, 0.999).any()
