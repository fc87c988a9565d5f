import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimage as mi
from minimage.core import canonical_sign, int_box, int_det, unimodular_inverse

from conftest import basis_pool


def test_identity_basis():
    b = mi.validate_basis(np.eye(2))
    assert b.dim == 2
    assert b.det == pytest.approx(1.0)


def test_collinear_columns_rejected():
    with pytest.raises(mi.SingularBasis):
        mi.validate_basis(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_scaled_identity_det():
    b = mi.validate_basis(2.0 * np.eye(3))
    assert b.det == pytest.approx(8.0)


def test_negative_determinant_is_kept():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = mi.validate_basis(m)
    assert b.det == pytest.approx(-1.0)
    assert np.array_equal(b.matrix, m)


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (2, 3)])
def test_unsupported_dimensions(shape):
    with pytest.raises(mi.UnsupportedDimension):
        mi.validate_basis(np.ones(shape))


def unit_covolume_basis(seed: int, n: int, cond: float) -> np.ndarray:
    """The ``perfbench/inputs.cond_matrix`` recipe: 2-norm condition number
    ``cond`` and |det| = 1, not validated."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2
    return m / abs(np.linalg.det(m)) ** (1.0 / n)


def test_envelope_edge_at_cond_1e8():
    """A unit-covolume 3D basis at cond 1e8 has |det| below TOL_SINGULAR
    times its column-norm product and is rejected; 2D at the same
    conditioning is not."""
    m = unit_covolume_basis(0, 3, 1e8)
    assert np.linalg.cond(m) == pytest.approx(1e8, rel=1e-6)
    assert abs(np.linalg.det(m)) == pytest.approx(1.0, rel=1e-6)
    assert abs(np.linalg.det(m)) < mi.core.TOL_SINGULAR * np.prod(np.linalg.norm(m, axis=0))
    with pytest.raises(mi.SingularBasis, match="numerically dependent"):
        mi.validate_basis(m)
    assert mi.validate_basis(unit_covolume_basis(0, 2, 1e8)).det == pytest.approx(1.0)


@pytest.mark.parametrize("m, exponent", [
    (np.eye(3) * 1e-150, -450),
    (np.eye(2) * 1e-200, -400),
    (np.eye(3) * 1e150, 450),
    (np.eye(3) * 1e-103, -309),
])
def test_determinant_outside_float64_is_its_own_error(recwarn, m, exponent):
    """Well-conditioned columns whose determinant under- or overflows, or is
    subnormal, are not called singular, and numpy prints no warning."""
    with pytest.raises(mi.DeterminantOutOfRange, match=f"about 1e{exponent},"):
        mi.validate_basis(m)
    assert not recwarn.list


def test_an_overflowing_norm_is_out_of_scale(recwarn):
    """A column norm overflows, the determinant does not: the basis is out of
    the supported scale, since its squared lengths leave float64's range."""
    with pytest.raises(mi.DeterminantOutOfRange, match="column 3 .* supported scale"):
        mi.validate_basis(np.diag([1e-200, 1e-200, 1e250]))
    assert not recwarn.list


@pytest.mark.parametrize("m", [
    np.array([[1e200, 1e200], [1e200, 1e200]]),
    np.array([[1e-200, 2e-200], [1e-200, 2e-200]]),
    np.array([[1e-200, 0.0], [0.0, 0.0]]),
    np.array([[1e150, 0.0, 1e150], [0.0, 1e150, 0.0], [1e150, 0.0, 1e150 * (1 + 1e-12)]]),
])
def test_dependent_columns_outside_float64_stay_singular(recwarn, m):
    with pytest.raises(mi.SingularBasis, match="numerically dependent"):
        mi.validate_basis(m)
    assert not recwarn.list


def test_range_judged_by_the_scaled_rule():
    """Out of the normal range the common path's rule still decides: the
    columns are independent when the determinant of the columns scaled to
    unit norm exceeds TOL_SINGULAR."""
    independent = np.array([[1.0, 1.0], [0.0, 1e-9]])
    dependent = np.array([[1.0, 1.0], [0.0, 1e-11]])
    mi.validate_basis(independent)
    with pytest.raises(mi.SingularBasis):
        mi.validate_basis(dependent)
    for scale in (2.0 ** -1000, 2.0 ** 1000):
        with pytest.raises(mi.DeterminantOutOfRange):
            mi.validate_basis(independent * scale)
        with pytest.raises(mi.SingularBasis):
            mi.validate_basis(dependent * scale)


# --- the decision against the two-path rule it replaced ----------------------


def two_path_rule(matrix):
    """The independence rule of ``validate_basis`` before it had a scale
    window: the test on the columns as given where the determinant and the
    norm product are normal floats, and otherwise on the columns divided by
    their largest entries.  Returns the ``det`` it accepted with, or the
    error type it raised."""
    tiny, huge = float(np.finfo(float).tiny), float(np.finfo(float).max)
    m = np.asarray(matrix, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        det = float(np.linalg.det(m))
        bound = mi.core.TOL_SINGULAR * float(np.prod(np.linalg.norm(m, axis=0)))
    if tiny <= abs(det) <= huge and tiny <= bound <= huge:
        independent = abs(det) > bound
    else:
        peak = np.abs(m).max(axis=0)
        independent = False
        if np.all(peak > 0.0):
            with np.errstate(under="ignore"):
                u = m / peak
                ratio = np.linalg.det(u) / np.prod(np.linalg.norm(u, axis=0))
            independent = abs(float(ratio)) > mi.core.TOL_SINGULAR
        if independent and not tiny <= abs(det) <= huge:
            return mi.DeterminantOutOfRange
    return det if independent else mi.SingularBasis


def sweep_matrices(rng, n: int) -> list[np.ndarray]:
    """A random basis at cond 10^U(0, 12), with its columns scaled by
    independent powers of two up to 2^+-190.  One draw in three instead
    gives two matrices that straddle the two-path rule's TOL_SINGULAR edge:
    the last column is a combination of the others plus s times a random
    vector, with s bisected until one more step would not change a bit."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.geomspace(1.0, 10.0 ** -rng.uniform(0, 12), n)) @ q2
    m = np.ldexp(m, rng.integers(-190, 191, size=n))
    if rng.random() > 1 / 3:
        return [m]
    inside, off = m[:, :-1] @ rng.normal(size=n - 1), m[:, -1] * rng.normal(size=n)

    def at(s):
        out = m.copy()
        out[:, -1] = inside + s * off
        return out

    accepted = [two_path_rule(at(s)) is not mi.SingularBasis for s in (0.0, 1.0)]
    if accepted != [False, True]:
        return [m]
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if two_path_rule(at(mid)) is not mi.SingularBasis else (mid, hi)
    return [at(lo), at(hi)]


@pytest.mark.parametrize("n", (2, 3))
def test_decisions_match_the_two_path_rule(n):
    """Inside the scale window the one test decides as the two-path rule
    did, also one bit from its edge, and the accepted ``det`` has the same
    bits."""
    rng = np.random.default_rng([15, n])
    outcomes = Counter()
    for _ in range(2000):
        for m in sweep_matrices(rng, n):
            if np.abs(np.frexp(np.abs(m).max(axis=0))[1]).max() > mi.core.SCALE_EXP:
                outcomes["outside the window"] += 1
                continue
            want = two_path_rule(m)
            try:
                got = mi.validate_basis(m).det
            except mi.LatticeError as exc:
                got = type(exc)
            assert got == want if isinstance(want, float) else got is want, m.tolist()
            outcomes[want if want is mi.SingularBasis else "accepted"] += 1
    assert outcomes["accepted"] > 1000 and outcomes[mi.SingularBasis] > 500, outcomes
    assert outcomes["outside the window"] < 200, outcomes


def test_non_finite_rejected():
    with pytest.raises(mi.SingularBasis):
        mi.validate_basis(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1 + 3j, 1 + 0j])
def test_complex_basis_rejected(scale):
    # np.asarray(..., dtype=float) once dropped the imaginary part with a warning.
    with pytest.raises(ValueError, match="must be real"):
        mi.validate_basis(np.eye(2) * scale)


def test_basis_matrix_is_immutable():
    b = mi.validate_basis(np.eye(2))
    with pytest.raises(ValueError):
        b.matrix[0, 0] = 5.0


@pytest.mark.parametrize("n", (2, 3))
def test_basis_inverse_is_immutable(n):
    """``inv`` is cached on first use; a write to it would change every
    later result read from it, so it is read-only, on a reduced basis too."""
    b = mi.cell_params_to_basis(2, 3, 4, 80, 95, 100) if n == 3 else mi.validate_basis(
        [[2.0, 0.7], [0.0, 1.5]])
    for basis in (b, mi.reduce(b).basis):
        assert basis.inv is basis.inv
        with pytest.raises(ValueError):
            basis.inv[0, 0] = 5.0


# --- cell parameter ingestion ---------------------------------------------


def test_cubic_cell_is_identity():
    b = mi.cell_params_to_basis(1, 1, 1, 90, 90, 90)
    assert np.allclose(b.matrix, np.eye(3), atol=1e-12)


def test_hexagonal_cell_vectors():
    b = mi.cell_params_to_basis(1, 1, 1, 90, 90, 120)
    v1, v2, v3 = b.columns
    assert np.allclose(v1, [1, 0, 0], atol=1e-12)
    assert np.allclose(v2, [-0.5, math.sqrt(3) / 2, 0], atol=1e-12)
    assert np.allclose(v3, [0, 0, 1], atol=1e-12)
    a, bb, c, al, be, ga = mi.basis_to_cell_params(b)
    assert (al, be, ga) == pytest.approx((90, 90, 120), abs=1e-12)


def test_cell_params_round_trip():
    params = (2, 3, 4, 80, 95, 100)
    b = mi.cell_params_to_basis(*params)
    assert b.det > 0
    back = mi.basis_to_cell_params(b)
    assert back == pytest.approx(params, rel=1e-9)
    with pytest.raises(mi.UnsupportedDimension):
        mi.basis_to_cell_params(mi.validate_basis(np.eye(2)))


def test_cell_params_of_nearly_parallel_columns():
    # Two columns 3e-10 apart in angle, rotated about z: their cosine rounds
    # to 1.0000000000000002, which acos rejects unless clamped.
    t = 0.02
    rot = np.array([[math.cos(t), -math.sin(t), 0.0], [math.sin(t), math.cos(t), 0.0],
                    [0.0, 0.0, 1.0]])
    b = mi.validate_basis(rot @ np.array([[1.0, 1.0, 0.0], [0.0, 3e-10, 0.0], [0.0, 0.0, 1.0]]))
    g = mi.gram_matrix(b)
    assert g[0, 1] / math.sqrt(g[0, 0] * g[1, 1]) > 1.0
    a, bb, c, alpha, beta, gamma = mi.basis_to_cell_params(b)
    assert (a, bb, c) == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)
    assert (alpha, beta) == pytest.approx((90.0, 90.0), abs=1e-9)
    assert gamma == 0.0


@pytest.mark.parametrize("params", [
    (1, 1, 1, 170, 170, 170),   # no positive volume
    (0, 1, 1, 90, 90, 90),
    (1, 1, 1, 90, 180, 90),
    (1, 1, 1, -10, 90, 90),
])
def test_invalid_cell_parameters(params):
    with pytest.raises(mi.InvalidCellParameters):
        mi.cell_params_to_basis(*params)


# --- coordinate transforms --------------------------------------------------


def test_frac_to_cart_identity():
    b = mi.validate_basis(np.eye(2))
    assert np.allclose(mi.frac_to_cart(b, [0.25, 0.75]), [0.25, 0.75])


def test_frac_to_cart_column_sum():
    b = mi.validate_basis(np.array([[1.0, 1.0], [0.0, 1.0]]))  # columns (1,0),(1,1)
    assert np.allclose(mi.frac_to_cart(b, [1.0, 1.0]), [2.0, 1.0])


def test_transforms_accept_batches():
    b = mi.cell_params_to_basis(2, 3, 4, 80, 95, 100)
    pts = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
    out = mi.cart_to_frac(b, mi.frac_to_cart(b, pts))
    assert np.allclose(out, pts, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=7),
    coords=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
)
def test_round_trip_property(idx, coords):
    b = basis_pool()[idx]
    p = np.array(coords[: b.dim])
    back = mi.cart_to_frac(b, mi.frac_to_cart(b, p))
    assert np.allclose(back, p, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=3))
def test_wrap_frac_lands_in_unit_box(coords):
    w = mi.wrap_frac(np.array(coords))
    assert np.all(w >= 0.0) and np.all(w < 1.0)
    assert np.allclose(np.round(np.array(coords) - w), np.array(coords) - w, atol=1e-6)


def test_wrap_frac_edges():
    assert mi.wrap_frac(np.array([1.0, -1e-20, 2.75]))[0] == 0.0
    w = mi.wrap_frac(np.array([-1e-20]))
    assert 0.0 <= w[0] < 1.0
    assert mi.wrap_frac(np.array([2.75]))[0] == pytest.approx(0.75)


# --- gram matrix and integer helpers ----------------------------------------


def test_gram_matrices_positive_definite():
    for b in basis_pool():
        g = mi.gram_matrix(b)
        assert np.array_equal(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_lattice_vector_cart():
    b = mi.validate_basis(np.array([[1.0, -5.0], [0.0, 1.0]]))
    v = mi.LatticeVector((np.int64(2), np.int64(1)))
    assert all(isinstance(c, int) for c in v.coeffs)
    assert np.allclose(v.cart(b), [2 - 5, 1])


@pytest.mark.parametrize("coeffs", [(0.5, 1), (1.0, 2), (np.float64(3.0), 0), ("1", 0)])
def test_lattice_vector_rejects_non_integers(coeffs):
    # int(c) once truncated (0.5, 1) to (0, 1) without a word.
    with pytest.raises(TypeError):
        mi.LatticeVector(coeffs)


def test_int_det_matches_float_det():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = rng.integers(-7, 8, size=(n, n))
        assert int_det(m) == pytest.approx(np.linalg.det(m))


def test_unimodular_inverse_exact():
    rng = np.random.default_rng(4)
    from conftest import random_unimodular

    for _ in range(50):
        n = int(rng.integers(2, 4))
        u = random_unimodular(rng, n)
        uinv = unimodular_inverse(u)
        assert np.array_equal(u @ uinv, np.eye(n, dtype=np.int64))
    with pytest.raises(ValueError):
        unimodular_inverse(np.array([[2, 0], [0, 1]]))


@pytest.mark.parametrize("vec,expected", [
    ((0, -2, 1), (0, 2, -1)),
    ((3, -1), (3, -1)),
    ((0, 0), (0, 0)),
    ((-1, 0, 5), (1, 0, -5)),
])
def test_canonical_sign(vec, expected):
    assert canonical_sign(vec) == expected


@pytest.mark.parametrize("layers", [(0, 0), (1, 1), (3, 1), (1, 1, 1), (2, 0, 3)])
def test_int_box_rows_and_row_ranges(layers):
    want = np.array(list(itertools.product(*[range(-m, m + 1) for m in layers])))
    total = len(want)
    boxes = [(int_box(layers), want)] + [
        (int_box(layers, start, stop), want[start:stop])
        for start, stop in [(0, 1), (2, 5), (total - 1, total + 7), (total, None)]]
    for box, rows in boxes:
        assert box.dtype == np.int64 and box.flags.c_contiguous
        assert box.shape == rows.shape and np.array_equal(box, rows)
