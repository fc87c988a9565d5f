import numpy as np
import pytest

import minimage as mi
from minimage.core import canonical_sign, int_box

from conftest import FCC, HEX_2D, basis_pool, random_cond_basis, random_unimodular


def test_relevant_vectors_identity_2d(identity2):
    rel = mi.relevant_vectors(identity2)
    assert rel.coeff_set() == {(1, 0), (0, 1)}
    assert rel.count == 4  # the diagonal class is a four-way tie


def test_relevant_vectors_hexagonal(hexagonal2):
    rel = mi.relevant_vectors(hexagonal2)
    assert rel.coeff_set() == {(1, 0), (0, 1), (1, 1)}
    assert rel.count == 6


def test_relevant_vectors_acute_2d():
    # acute input: the difference class wins, expressed in input coordinates
    b = mi.validate_basis(np.array([[1.0, 0.4], [0.0, 1.0]]))
    rel = mi.relevant_vectors(b)
    assert rel.coeff_set() == {(1, 0), (0, 1), (1, -1)}


def test_relevant_vectors_fcc(fcc):
    rel = mi.relevant_vectors(fcc)
    assert rel.count == 12  # one coset class is fully tied, not 14
    ref = mi.oracle.brute_relevant(fcc, 3)
    assert rel.coeff_set() == ref.coeff_set()


def test_midpoint_facet_property(fcc):
    """r/2 is equidistant from 0 and r and no lattice point is closer."""
    rel = mi.relevant_vectors(fcc)
    lattice_pts = int_box((3, 3, 3)) @ fcc.matrix.T
    for r in rel.cartesians:
        mid = r / 2
        d0 = np.linalg.norm(mid)
        others = lattice_pts[np.linalg.norm(lattice_pts - r, axis=1) > 1e-12]
        others = others[np.linalg.norm(others, axis=1) > 1e-12]
        assert np.linalg.norm(others - mid, axis=1).min() > d0 * (1 + 1e-12)


def test_voronoi_cell_identity(identity2):
    vc = mi.voronoi_cell(identity2)
    got = {tuple(np.round(v, 9)) for v in vc.vertices}
    assert got == {(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)}
    assert vc.volume == pytest.approx(1.0, rel=1e-12)


def test_voronoi_cell_hexagonal(hexagonal2):
    vc = mi.voronoi_cell(hexagonal2)
    s3 = np.sqrt(3.0)
    expected = {(0.5, 1 / (2 * s3)), (0.5, -1 / (2 * s3)),
                (-0.5, 1 / (2 * s3)), (-0.5, -1 / (2 * s3)),
                (0.0, 1 / s3), (0.0, -1 / s3)}
    assert len(vc.vertices) == 6
    for v in vc.vertices:
        assert min(np.hypot(v[0] - e[0], v[1] - e[1]) for e in expected) < 1e-9
    assert vc.volume == pytest.approx(s3 / 2, rel=1e-12)
    assert vc.volume == pytest.approx(abs(hexagonal2.det), rel=1e-9)


def test_voronoi_cell_fcc(fcc):
    """Rhombic dodecahedron: 12 facets, 14 vertices, volume 2."""
    vc = mi.voronoi_cell(fcc)
    assert len(vc.normals) == 12
    assert len(vc.vertices) == 14
    assert vc.volume == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("c", [1e3, 3e3, 1e4, 3e4])
def test_elongated_cell_has_a_generic_vertex_set(c):
    """A generic cell with one edge up to 3e4 times the others: its long
    facet normals are nearly parallel, yet it keeps one vertex per ordering
    of the superbase, 24, and its volume."""
    b = mi.cell_params_to_basis(1.0, 1.1, c, 95.0, 95.0, 95.0)
    vc = mi.voronoi_cell(b)
    assert len(vc.vertices) == 24
    assert vc.volume == pytest.approx(abs(b.det), rel=1e-8)


def test_thin_cells_keep_every_facet():
    """Boxes far thinner than wide: the short edge's conorms fall under the
    snap, but |v_S|^2 is their sum, so the largest across each cut stays an
    edge and the cell stays a box.  The 3D frame has Selling stop at a
    superbase whose conorms fall apart in two pairs."""
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    frame = q @ np.diag([1.0, 1.0, 1e-5]) @ random_unimodular(rng, 3)
    for m in (np.diag([1.0, 1e-9]), np.diag([1.0, 1.0, 1e-9]), frame):
        b = mi.validate_basis(m)
        vc = mi.voronoi_cell(b)
        assert (mi.relevant_vectors(b).count, len(vc.vertices)) == (2 * b.dim, 2 ** b.dim)
        assert vc.volume == pytest.approx(abs(b.det), rel=1e-9)


def test_vertices_satisfy_halfspaces():
    for b in basis_pool():
        vc = mi.voronoi_cell(b)
        slack = 1e-8 * b.diameter()
        for r, off in vc.halfspaces:
            prods = vc.vertices @ r
            assert np.all(prods <= off + slack * np.linalg.norm(r))
            assert np.sum(np.abs(prods - off) <= slack * np.linalg.norm(r)) >= b.dim


def test_vertices_centrally_symmetric():
    for b in basis_pool():
        vc = mi.voronoi_cell(b)
        tol = 1e-8 * b.diameter()
        for v in vc.vertices:
            assert np.linalg.norm(vc.vertices + v, axis=1).min() <= tol


def test_relevant_vector_length_bound():
    for b in basis_pool():
        rel = mi.relevant_vectors(b)
        longest = max(mi.reduce(b).norms)
        assert np.linalg.norm(rel.cartesians, axis=1).max() <= 2 * longest * (1 + 1e-12)


def test_volume_equals_covolume_random():
    rng = np.random.default_rng(21)
    for i in range(40):
        n = 2 if i % 2 == 0 else 3
        b = random_cond_basis(rng, n, 10 ** rng.uniform(0, 2.5))
        vc = mi.voronoi_cell(b)
        assert vc.volume == pytest.approx(abs(b.det), rel=1e-9)


def test_facet_oracle_equivalence():
    """Coset construction agrees with the brute-force facet criterion on
    more than a hundred random lattices (compared in input coordinates)."""
    rng = np.random.default_rng(22)
    for i in range(110):
        n = 2 if i % 2 == 0 else 3
        b = random_cond_basis(rng, n, 10 ** rng.uniform(0, 2.5))
        red = mi.reduce(b)
        fast = mi.relevant_vectors(b)
        ref = mi.oracle.brute_relevant(red.basis, 3)
        mapped = {canonical_sign(red.transform @ np.array(v.coeffs))
                  for v in ref.vectors}
        assert fast.coeff_set() == mapped


def test_rotation_invariance():
    rng = np.random.default_rng(23)
    for b in [mi.validate_basis(HEX_2D), mi.validate_basis(FCC)]:
        q, _ = np.linalg.qr(rng.normal(size=(b.dim, b.dim)))
        rb = mi.validate_basis(q @ b.matrix)
        assert mi.relevant_vectors(rb).coeff_set() == mi.relevant_vectors(b).coeff_set()
        h0 = mi.frac_extents(mi.voronoi_cell(b), b)
        h1 = mi.frac_extents(mi.voronoi_cell(rb), rb)
        assert np.allclose(h0, h1, atol=1e-9)


# --- fractional extents ------------------------------------------------------


def test_frac_extents_unit_square(identity2):
    vc = mi.voronoi_cell(identity2)
    assert np.allclose(mi.frac_extents(vc, identity2), [0.5, 0.5], atol=1e-12)


def test_frac_extents_hexagonal(hexagonal2):
    """Componentwise maxima of the transformed vertices: both reach 2/3.

    The first maximum is attained at the vertex (1/2, 1/(2*sqrt(3))) with
    fractional coordinates (2/3, 1/3); the second at (0, 1/sqrt(3)) with
    (1/3, 2/3)."""
    vc = mi.voronoi_cell(hexagonal2)
    fracs = vc.vertices @ np.linalg.inv(hexagonal2.matrix).T
    oracle_h = np.abs(fracs).max(axis=0)
    assert np.allclose(oracle_h, [2 / 3, 2 / 3], atol=1e-9)
    assert np.allclose(mi.frac_extents(vc, hexagonal2), oracle_h, atol=1e-12)


@pytest.mark.parametrize("shear", [1, 2, 5])
def test_frac_extents_sheared_frame(identity2, shear):
    """For the square cell viewed in the frame (1,0), (-m,1) the first
    extent is (m+1)/2, attained at the corner (1/2, 1/2)."""
    frame = mi.validate_basis(np.array([[1.0, -float(shear)], [0.0, 1.0]]))
    vc = mi.voronoi_cell(identity2)
    corners = np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])
    oracle_h = np.abs(corners @ np.linalg.inv(frame.matrix).T).max(axis=0)
    h = mi.frac_extents(vc, frame)
    assert np.allclose(h, oracle_h, atol=1e-12)
    assert h[0] == pytest.approx((shear + 1) / 2, abs=1e-12)
    assert h[1] == pytest.approx(0.5, abs=1e-12)


def test_frac_extents_dimensions_must_match(identity2, fcc):
    for cell, frame in ((mi.voronoi_cell(fcc), identity2), (mi.voronoi_cell(identity2), fcc)):
        with pytest.raises(ValueError, match=f"{cell.dim}D cell .* {frame.dim}D frame"):
            mi.frac_extents(cell, frame)
