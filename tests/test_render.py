import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import minimage as mi
from minimage import core, render
from minimage.render import _hull, _lattice_points

FROZEN = Path(__file__).with_name("frozen_outputs.json")


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


def test_render_refuses_a_block_over_its_copy_limit(tmp_path, identity2):
    cell = mi.validate_basis(np.array([[1.0, 3e5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="900,009 copies"):
        mi.render_2d(identity2, cell, tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("case", ["2d-cond1000-0", "2d-cond1000-1"])
def test_render_refuses_a_window_over_its_point_limit(monkeypatch, tmp_path, case):
    """At cond 1e3 the window's lattice points need a box of 3.0e6 and 1.1e6
    rows in the reduced basis (1.6e9 and 5.7e8 in the caller's
    coefficients); the figure is refused before any such box is built."""
    def bounded(layers, *args):
        rows = math.prod(2 * int(m) + 1 for m in layers)
        assert rows <= render.MAX_POINTS, f"int_box asked for {rows:,} rows"
        return core.int_box(layers, *args)

    monkeypatch.setattr(render, "int_box", bounded)
    rec = next(c for c in json.loads(FROZEN.read_text()) if c["id"] == case)
    b = mi.validate_basis(np.array([float.fromhex(x) for x in rec["basis"]]).reshape(2, 2))
    with pytest.raises(ValueError, match="render limit of 1,048,576"):
        mi.render_2d(b, None, tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


def test_render_rejects_3d(tmp_path, identity3):
    with pytest.raises(mi.UnsupportedDimension):
        mi.render_2d(identity3, None, tmp_path / "x.svg")


def loop_lattice_points(lattice, lo, hi):
    """Test-only copy of the per-point loop the array pass replaced, with
    the window taken as given (no slack): (coefficients, points)."""
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    fr = corners @ lattice.inv.T
    zmin = np.floor(fr.min(axis=0)).astype(int) - 1
    zmax = np.ceil(fr.max(axis=0)).astype(int) + 1
    out = [(ij, lattice.matrix @ np.asarray(ij, dtype=float))
           for ij in itertools.product(*[range(a, b + 1) for a, b in zip(zmin, zmax)])]
    kept = [(ij, p) for ij, p in out if np.all(p >= lo) and np.all(p <= hi)]
    return [ij for ij, _ in kept], np.array([p for _, p in kept])


def test_lattice_points_match_the_loop_bit_for_bit():
    rng = np.random.default_rng(54)
    for k in range(40):
        b = mi.validate_basis(rng.normal(size=(2, 2)))
        c = rng.normal(size=2) * (3.0 if k % 2 else 0.5)
        lo, hi = c - 4.0 * rng.random(2), c + 4.0 * rng.random(2)
        want_z, want = loop_lattice_points(b, lo, hi)
        want = want.reshape(-1, 2)
        got_z, got = _lattice_points(b, lo, hi)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_z.tolist() == [list(ij) for ij in want_z]


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_render_marks_the_relevant_points_at_small_scales(tmp_path, hexagonal2, scale):
    """The hexagonal figure draws 20 lattice points and circles the 6
    relevant ones at any scale; an absolute window slack and rounding to 9
    decimals once drew 99 and circled 87 at scale 1e-10."""
    lattice = mi.validate_basis(hexagonal2.matrix * scale)
    text = mi.render_2d(lattice, None, tmp_path / "hex.svg").read_text()
    assert text.count('r="3"') == 20
    assert text.count('r="7"') == 6
