import itertools

import numpy as np
import pytest

import minimage as mi
from minimage.render import _hull, _lattice_points


def test_hull_square_with_interior_point():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.8]])
    hull = _hull(pts)
    assert len(hull) == 4
    assert {tuple(p) for p in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_render_identity_block(tmp_path, identity2):
    path = mi.render_2d(identity2, None, tmp_path / "id.svg")
    text = path.read_text()
    # reach domain + 9 copy outlines + cell + Voronoi cell
    assert text.count("<polygon") == 12
    assert text.count('stroke="#d62728"') >= 4  # circled relevant lattice points


def test_render_sheared_block(tmp_path, identity2):
    cell = mi.validate_basis(np.array([[1.0, -5.0], [0.0, 1.0]]))
    path = mi.render_2d(identity2, cell, tmp_path / "shear.svg")
    # 7 x 3 copies of the sheared cell plus the three main polygons
    assert path.read_text().count("<polygon") == 24


def test_render_rejects_3d(tmp_path, identity3):
    with pytest.raises(mi.UnsupportedDimension):
        mi.render_2d(identity3, None, tmp_path / "x.svg")


def loop_lattice_points(lattice, lo, hi):
    """Test-only copy of the per-point loop the array pass replaced."""
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    fr = corners @ lattice.inv.T
    zmin = np.floor(fr.min(axis=0)).astype(int) - 1
    zmax = np.ceil(fr.max(axis=0)).astype(int) + 1
    out = [lattice.matrix @ np.asarray(ij, dtype=float)
           for ij in itertools.product(*[range(a, b + 1) for a, b in zip(zmin, zmax)])]
    return np.array([p for p in out if np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)])


def test_lattice_points_match_the_loop_bit_for_bit():
    rng = np.random.default_rng(54)
    for k in range(40):
        b = mi.validate_basis(rng.normal(size=(2, 2)))
        c = rng.normal(size=2) * (3.0 if k % 2 else 0.5)
        lo, hi = c - 4.0 * rng.random(2), c + 4.0 * rng.random(2)
        want = loop_lattice_points(b, lo, hi).reshape(-1, 2)
        got = _lattice_points(b, lo, hi)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
