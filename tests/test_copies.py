import numpy as np
import pytest

import minimage as mi
from minimage.copies import ceil_snapped

from conftest import (
    REDUCED_BUT_H_ABOVE_1,
    SKEW_2D,
    random_cond_basis,
    random_obtuse_2d,
    random_obtuse_3d,
)


def test_identity_cell(identity2):
    cc = mi.copy_counts(identity2, identity2)
    assert cc.h == pytest.approx((0.5, 0.5))
    assert cc.layers == (1, 1)
    assert cc.per_axis == (3, 3)
    assert cc.total == 9


def test_hexagonal_cell(hexagonal2):
    cc = mi.copy_counts(hexagonal2, hexagonal2)
    assert cc.h == pytest.approx((2 / 3, 2 / 3), abs=1e-9)
    assert cc.layers == (1, 1)
    assert cc.total == 9


def test_sheared_cell_over_square_lattice(identity2):
    cell = mi.validate_basis(SKEW_2D)
    h = mi.domain_extents(cell, identity2)
    assert np.allclose(h, [3.0, 0.5], atol=1e-12)
    cc = mi.copy_counts(cell, identity2)
    assert cc.layers == (3, 1)
    assert cc.per_axis == (7, 3)
    assert cc.total == 21


def test_orthorhombic_totals():
    rng = np.random.default_rng(31)
    for n, want in ((2, 9), (3, 27)):
        for _ in range(10):
            b = mi.validate_basis(np.diag(rng.uniform(0.5, 4.0, size=n)))
            assert mi.copy_counts(b, b).total == want


def test_is_3n_sufficient_cases(identity2):
    assert mi.is_3n_sufficient(identity2, identity2)
    assert not mi.is_3n_sufficient(mi.validate_basis(SKEW_2D), identity2)
    mild = mi.validate_basis(np.array([[1.0, -1.0], [0.0, 1.0]]))
    assert mi.is_3n_sufficient(mild, identity2)  # h = (1, 1/2), boundary case


def test_not_a_primitive_cell(identity2):
    with pytest.raises(mi.NotAPrimitiveCell):
        mi.copy_counts(mi.validate_basis(2 * np.eye(2)), identity2)
    with pytest.raises(mi.NotAPrimitiveCell):
        mi.copy_counts(mi.validate_basis(np.array([[0.5, 0.0], [0.0, 1.0]])),
                       identity2)


@pytest.mark.parametrize("cond", [1e8, 1e10])
def test_own_basis_is_primitive_at_high_conditioning(cond):
    """Integrality is judged by backward error, which does not grow with the
    conditioning; a cell off the lattice by 1e-6 of a column still raises."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        b = random_cond_basis(rng, 2, cond)
        assert np.array_equal(mi.copies.primitive_coeffs(b, b), np.eye(2, dtype=np.int64))
        mi.copy_counts(b, b)
        red = mi.reduce(b)
        assert np.array_equal(mi.copies.primitive_coeffs(red.basis, b), red.transform)
        near = b.matrix.copy()
        near[:, 1] *= 1.0 + 1e-6
        with pytest.raises(mi.NotAPrimitiveCell):
            mi.copy_counts(mi.validate_basis(near), b)


def test_dimension_mismatch_is_not_a_primitive_cell(identity2, identity3):
    with pytest.raises(mi.NotAPrimitiveCell, match="3D cell"):
        mi.copy_counts(identity3, identity2)
    with pytest.raises(mi.NotAPrimitiveCell):
        mi.check_cell(identity2, identity3)


def test_scale_invariance(identity2):
    cell = mi.validate_basis(SKEW_2D)
    for s in (0.1, 3.0, 250.0):
        cc = mi.copy_counts(mi.validate_basis(s * cell.matrix),
                            mi.validate_basis(s * np.eye(2)))
        assert cc.layers == (3, 1)
        assert cc.total == 21


@pytest.mark.parametrize("x,want", [
    (0.5, 1),
    (1.0, 1),
    (1.0 + 5e-10, 1),   # snapped down: touching the boundary still covers
    (1.0 + 1e-8, 2),
    (3.0, 3),
    (2.2, 3),
])
def test_ceil_snapped(x, want):
    assert ceil_snapped(x) == want


def test_reduced_cells_need_one_layer():
    rng = np.random.default_rng(32)
    for i in range(30):
        n = 2 if i % 2 == 0 else 3
        seed = random_obtuse_2d(rng, distort=True) if n == 2 else random_obtuse_3d(rng, distort=True)
        red = mi.reduce(seed)
        cc = mi.copy_counts(red.basis, seed)
        assert cc.layers == (1,) * n
    # 2D needs one layer even for wild lattices
    for _ in range(25):
        b = random_cond_basis(rng, 2, 10 ** rng.uniform(0, 3))
        assert mi.copy_counts(mi.reduce(b).basis, b).layers == (1, 1)


def test_anisotropic_3d_reduced_cell_can_need_two_layers():
    """Counterexample kept frozen: a fully reduced basis with h > 1.

    The 3^3 block is then insufficient; the constructed minimality witness
    is a pair whose block distance is strictly wrong."""
    b = mi.validate_basis(REDUCED_BUT_H_ABOVE_1)
    red = mi.reduce(b)
    assert mi.is_reduced(red.basis)
    cc = mi.copy_counts(red.basis, b)
    assert cc.layers == (2, 1, 1)
    assert cc.h[0] == pytest.approx(1.03192, abs=1e-4)
    witness = mi.oracle.minimality_witness(red.basis, b, axis=0)
    assert witness is not None
    assert witness[2] > 1e-9


def test_block_sufficiency_oracle():
    """Distances minimized over the counted block match a larger block."""
    rng = np.random.default_rng(33)
    import itertools

    for i in range(12):
        n = 2 if i % 2 == 0 else 3
        lattice = random_cond_basis(rng, n, 10 ** rng.uniform(0, 2))
        from conftest import random_unimodular

        cell = mi.validate_basis(lattice.matrix @ random_unimodular(rng, n))
        cc = mi.copy_counts(cell, lattice)
        small = np.array(list(itertools.product(
            *[range(-m, m + 1) for m in cc.layers]))) @ cell.matrix.T
        big = np.array(list(itertools.product(
            *[range(-m - 3, m + 4) for m in cc.layers]))) @ cell.matrix.T
        for _ in range(40):
            delta = cell.matrix @ (rng.random(n) - rng.random(n))
            d_small = np.linalg.norm(delta + small, axis=1).min()
            d_big = np.linalg.norm(delta + big, axis=1).min()
            assert d_small <= d_big * (1 + 1e-12)
