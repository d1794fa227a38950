"""Uniform-grid binning tests."""

import numpy as np
import pytest

from repro.geometry.grid import UniformGrid


@pytest.fixture(scope="module")
def grid(request):
    rng = np.random.default_rng(7)
    pts = rng.random((500, 3))
    return UniformGrid(pts, cell_size=0.1), pts


def test_all_points_binned(grid):
    g, pts = grid
    assert g.cell_count.sum() == len(pts)
    assert sorted(g.point_order.tolist()) == list(range(len(pts)))


def test_cells_contain_their_points(grid):
    g, pts = grid
    for flat in np.flatnonzero(g.cell_count > 0)[:50]:
        ids = g.points_in_cell(flat)
        coords = g.cell_coords(pts[ids])
        assert (g.flatten(coords) == flat).all()


def test_cell_coords_clamped(grid):
    g, _ = grid
    far = np.array([[10.0, -5.0, 0.5]])
    c = g.cell_coords(far)
    assert (c >= 0).all() and (c < g.res).all()


@pytest.mark.parametrize("cell_size", [0.1, 0.02], ids=["coarse", "fine"])
def test_count_in_boxes_matches_bincount(cell_size):
    """Both counters (SAT at <=64 cells/pt, sparse above) are exact."""
    rng = np.random.default_rng(1)
    pts = np.random.default_rng(7).random((500, 3))
    g = UniformGrid(pts, cell_size=cell_size)
    fine = g.n_cells > 64 * len(pts)
    assert fine == (cell_size == 0.02)
    lo = rng.integers(0, g.res, (30, 3))
    hi = np.minimum(lo + rng.integers(0, 4, (30, 3)), g.res - 1)
    r = g.res
    # clipped on both sides (spans all of z); clipped low in y and high
    # in z; clipped low in z only; wholly past the high x edge (displaced
    # onto the last x slab by the clip); then three empty boxes: wholly
    # below x=0 (emptied by the clip), inverted in y, inverted in z
    edge_lo = [
        [-3, -3, -3], [2, -5, 1], [1, 1, -2], [r[0] + 2, 0, 0],
        [-9, 0, 0], [3, 3, 3], [0, 0, r[2] - 1],
    ]
    edge_hi = [
        r + 3, [r[0] - 2, 4, r[2]], [r[0] - 2, r[1] - 2, 3], r + 5,
        [-4, 2, 2], [3, 1, 4], [r[0] - 1, r[1] - 1, 0],
    ]
    lo = np.vstack([lo, edge_lo])
    hi = np.vstack([hi, edge_hi])
    got = g.count_in_boxes(lo, hi)
    single = g.count_in_boxes(lo[0], hi[0])
    assert (g._sat is None) == fine  # the fine grid took the sparse path
    coords = g.cell_coords(pts)
    cl_lo = np.clip(lo, 0, r - 1)
    cl_hi = np.clip(hi, -1, r - 1)
    brute = np.array(
        [
            np.logical_and(coords >= a, coords <= b).all(axis=1).sum()
            for a, b in zip(cl_lo, cl_hi)
        ]
    )
    assert np.array_equal(got, brute)
    assert np.array_equal(got, g.sat.box_sums(lo, hi))
    assert (got[-7:-3] > 0).all() and (got[-3:] == 0).all()
    assert np.ndim(single) == 0 and single == got[0]


def test_full_box_counts_everything(grid):
    g, pts = grid
    full = g.count_in_boxes(np.zeros((1, 3), dtype=np.int64), (g.res - 1)[None, :])
    assert full[0] == len(pts)


def test_neighbor_cells_dropped_at_boundary(grid):
    g, _ = grid
    ids = g.neighbor_cell_ids(np.array([0, 0, 0]), reach=1)
    assert len(ids) == 8  # corner keeps only the in-grid octant


def test_memory_cap_coarsens():
    pts = np.random.default_rng(0).random((100, 3))
    g = UniformGrid(pts, cell_size=1e-4, max_cells=1000)
    assert g.n_cells <= 1000
    assert g.cell_size > 1e-4


def test_gather_cells(grid):
    g, pts = grid
    nonempty = np.flatnonzero(g.cell_count > 0)[:5]
    gathered = g.gather_cells(nonempty)
    assert len(gathered) == g.cell_count[nonempty].sum()


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        UniformGrid(np.zeros((0, 3)), 0.1)
    with pytest.raises(ValueError):
        UniformGrid(np.zeros((5, 3)), -1.0)
    with pytest.raises(ValueError):
        UniformGrid(np.zeros((5, 2)), 0.1)
