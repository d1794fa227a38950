"""Geometry kernels: AABBs, rays, Morton codes, spheres, grids.

Everything here is vectorized NumPy operating on batches; these kernels
are the foundation for both the BVH substrate and the RTNN algorithms.
"""

from repro.geometry.aabb import (
    aabbs_from_points,
    aabb_union,
    aabb_contains,
    aabb_volume,
    aabb_surface_area,
    ray_aabb_intersect,
    scene_bounds,
)
from repro.geometry.ray import RayBatch, short_rays_from_queries
from repro.geometry.morton import (
    morton_encode_2d,
    morton_encode_3d,
    morton_decode_3d,
    morton_order,
    normalize_to_grid,
)
from repro.geometry.sphere import points_in_sphere
from repro.geometry.grid import UniformGrid
from repro.geometry.sat import SummedAreaTable3D

__all__ = [
    "aabbs_from_points",
    "aabb_union",
    "aabb_contains",
    "aabb_volume",
    "aabb_surface_area",
    "ray_aabb_intersect",
    "scene_bounds",
    "RayBatch",
    "short_rays_from_queries",
    "morton_encode_2d",
    "morton_encode_3d",
    "morton_decode_3d",
    "morton_order",
    "normalize_to_grid",
    "points_in_sphere",
    "UniformGrid",
    "SummedAreaTable3D",
]
