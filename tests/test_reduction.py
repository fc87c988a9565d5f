import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimage as mi
from minimage.core import int_det

from conftest import (
    FCC,
    HEX_2D,
    NO_OBTUSE_SHORTEST_3D,
    basis_pool,
    enumerated_minima,
    gram_cosines,
    random_obtuse_2d,
    random_obtuse_3d,
    random_cond_basis,
    random_unimodular,
    skewed_basis,
)


def test_identity_2d_is_fixed():
    red = mi.reduce(mi.validate_basis(np.eye(2)))
    assert np.array_equal(red.transform, np.eye(2, dtype=np.int64))
    assert np.array_equal(red.basis.matrix, np.eye(2))


def test_identity_3d_is_fixed():
    red = mi.reduce(mi.validate_basis(np.eye(3)))
    assert np.array_equal(red.transform, np.eye(3, dtype=np.int64))


def test_skewed_2d_reduction():
    """Shear along the first axis: the short pair is recovered."""
    b = mi.validate_basis(np.array([[1.0, 10.3], [0.0, 1.0]]))
    red = mi.reduce(b)
    norms = sorted(red.norms)
    assert norms[0] <= 1.0 + 1e-12
    assert norms[1] <= np.linalg.norm([10.3, 1.0])
    v1, v2 = red.basis.columns
    assert float(v1 @ v2) <= 1e-9 * np.linalg.norm(v1) * np.linalg.norm(v2)
    assert abs(int_det(red.transform)) == 1
    assert np.array_equal(red.basis.matrix, b.matrix @ red.transform)
    # no shorter independent pair exists in a generous coefficient box
    assert np.allclose(sorted(red.norms), enumerated_minima(b.matrix, 15), rtol=1e-12)


def test_hexagonal_3d_reduction():
    b = mi.cell_params_to_basis(1, 1, 1, 90, 90, 120)
    red = mi.reduce(b)
    assert np.allclose(red.norms, 1.0, atol=1e-9)
    cos = sorted(gram_cosines(red.basis.matrix))
    assert cos[0] == pytest.approx(-0.5, abs=1e-9)
    assert cos[1] == pytest.approx(0.0, abs=1e-9)
    assert cos[2] == pytest.approx(0.0, abs=1e-9)


def test_fcc_reduction():
    red = mi.reduce(mi.validate_basis(FCC))
    assert np.allclose(red.norms, np.sqrt(2.0), atol=1e-12)
    assert all(c <= 1e-9 for c in gram_cosines(red.basis.matrix))
    assert np.allclose(sorted(red.norms), enumerated_minima(FCC, 4), rtol=1e-12)


def test_reduce_is_idempotent():
    for b in basis_pool():
        once = mi.reduce(b)
        twice = mi.reduce(once.basis)
        assert np.allclose(sorted(once.norms), sorted(twice.norms), rtol=1e-12)


def test_transform_reproduces_basis_exactly():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        b = mi.validate_basis(rng.normal(size=(n, n)))
        red = mi.reduce(b)
        assert abs(int_det(red.transform)) == 1
        assert np.array_equal(red.basis.matrix, b.matrix @ red.transform)


def test_norm_optimality_against_enumeration():
    """Output norms equal the successive minima found by brute force."""
    rng = np.random.default_rng(12)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        seed = random_obtuse_2d(rng) if n == 2 else random_obtuse_3d(rng)
        b = mi.validate_basis(seed.matrix @ random_unimodular(rng, n, steps=4, kmax=2))
        red = mi.reduce(b)
        assert np.allclose(sorted(red.norms), enumerated_minima(b.matrix, 10), rtol=1e-9)


def test_is_reduced_identity():
    assert mi.is_reduced(mi.validate_basis(np.eye(2)))
    assert mi.is_reduced(mi.validate_basis(np.eye(3)))


def test_is_reduced_rejects_acute_pair():
    # v1.v2 = 0.9 > 0, and v2 - v1 = (-0.1, 1) is shorter than v2
    b = mi.validate_basis(np.array([[1.0, 0.9], [0.0, 1.0]]))
    assert not mi.is_reduced(b)


def test_is_reduced_rejects_misordered_norms():
    b = mi.validate_basis(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert not mi.is_reduced(b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 3))
def test_reduce_output_is_reduced(seed, n):
    """Distortions of reduced seeds reduce back to a fully reduced basis."""
    rng = np.random.default_rng(seed)
    base = random_obtuse_2d(rng) if n == 2 else random_obtuse_3d(rng)
    b = mi.validate_basis(base.matrix @ random_unimodular(rng, n))
    red = mi.reduce(b)
    assert mi.is_reduced(red.basis)


def test_lattice_without_obtuse_shortest_basis():
    """Some 3D lattices admit no shortest basis with all angles >= 90 deg.

    Shortness wins: reduce returns the successive minima and the sign
    pattern closest to obtuse, and is_reduced reports the basis honestly.
    """
    b = mi.validate_basis(NO_OBTUSE_SHORTEST_3D)
    red = mi.reduce(b)
    assert np.allclose(sorted(red.norms), enumerated_minima(b.matrix, 30), rtol=1e-9)
    assert not mi.is_reduced(red.basis)
    # exactly one acute pair remains, and no signing removes it: the product
    # of the three pairwise inner products is positive
    cos = gram_cosines(red.basis.matrix)
    assert sum(1 for c in cos if c > 1e-9) == 1
    assert np.prod(cos) > 0


@pytest.mark.parametrize("n", (2, 3))
def test_reduce_result_is_read_only(n):
    red = mi.reduce(random_cond_basis(np.random.default_rng(n), n, 10.0))
    for t in (red.basis.matrix, red.transform, red.superbase, red.inverse):
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 7
    assert red.transform.dtype == red.superbase.dtype == red.inverse.dtype == np.int64


def test_reduced_basis_copies_what_a_caller_can_still_change():
    """A writeable array, a read-only view of one, or a list is copied, so
    changing the caller's data later leaves the ReducedBasis as it was."""
    u = np.array([[1, 1], [0, 1]], dtype=np.int64)
    owner = np.array([[1, 0, -1], [0, 1, -1]], dtype=np.int64)
    view = owner.view()
    view.flags.writeable = False
    inverse = [[1, -1], [0, 1]]
    red = mi.ReducedBasis(basis=mi.validate_basis(np.eye(2)), transform=u,
                          superbase=view, inverse=inverse)
    u[0, 1] = 5
    owner[0, 0] = 9
    inverse[0][0] = 3
    assert red.transform.tolist() == [[1, 1], [0, 1]]
    assert red.superbase.tolist() == [[1, 0, -1], [0, 1, -1]]
    assert red.inverse.tolist() == [[1, -1], [0, 1]]
    assert not any(t.flags.writeable for t in (red.transform, red.superbase, red.inverse))
    # Without an inverse, the exact one is computed.
    assert mi.ReducedBasis(basis=red.basis, transform=u, superbase=view).inverse.tolist() == [
        [1, -5], [0, 1]]


def test_reduction_is_deterministic():
    b = mi.validate_basis(np.array([[0.0, 1.0], [1.0, 0.0]]))
    r1 = mi.reduce(b)
    r2 = mi.reduce(b)
    assert np.array_equal(r1.transform, r2.transform)


def test_skewed_fcc_reduces_to_an_all_obtuse_basis():
    """Rotated FCC through skewed bases: every shortest triple is tied, and
    an all-obtuse one exists, so the result must be all-obtuse."""
    rng = np.random.default_rng(606)
    for cond in (1e2, 1e3) * 30:
        b = skewed_basis(rng, FCC, cond)
        red = mi.reduce(b)
        assert np.allclose(red.norms, red.norms[0], rtol=1e-9)
        assert max(gram_cosines(red.basis.matrix)) <= 1e-9
        assert mi.oracle.brute_reduced(red.basis)


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("n", [2, 3])
def test_sheared_identity_reduces_to_unit_norms(n, k):
    """One off-diagonal entry of 10^k, in every position."""
    for i, j in itertools.permutations(range(n), 2):
        m = np.eye(n)
        m[i, j] = 10.0 ** k
        red = mi.reduce(mi.validate_basis(m))
        assert np.array_equal(red.norms, np.ones(n))
        assert np.array_equal(red.basis.matrix, m @ red.transform)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3),
       level=st.floats(0.0, 1.0), sheared=st.booleans())
def test_reduce_over_the_conditioning_range(seed, n, level, sheared):
    """Random bases up to cond 1e8 in 2D and 1e6 in 3D, and the tie-rich
    hexagonal and FCC lattices through sheared bases up to 1e7 and 1e6: the
    answer spans the same lattice, attains the successive minima of its own
    lattice within 1e-9, and is all-obtuse whenever some shortest basis
    admits that.  The only other outcome is a LatticeError.

    The columns B @ U carry rounding of order eps |B| |U|.  The oracle sees
    them sorted by computed norm, since that rounding can swap tied norms;
    past cond 1e7 on a tie lattice it also exceeds the 1e-9 bar."""
    rng = np.random.default_rng(seed)
    cond = 10.0 ** (level * (6 if n == 3 else 7 if sheared else 8))
    try:
        b = (skewed_basis(rng, HEX_2D if n == 2 else FCC, cond) if sheared
             else random_cond_basis(rng, n, cond))
        red = mi.reduce(b)
    except mi.LatticeError:
        return
    assert abs(int_det(red.transform)) == 1
    assert np.array_equal(red.basis.matrix, b.matrix @ red.transform)
    layers = mi.oracle.certified_layers(red.basis, float(red.norms.max()))
    assert np.allclose(np.sort(red.norms), enumerated_minima(red.basis.matrix, layers),
                       rtol=1e-9, atol=0.0)
    m = red.basis.matrix
    assert mi.oracle.brute_reduced(mi.validate_basis(m[:, np.argsort(red.norms)]))


@pytest.mark.parametrize("c", [1e20, 1e30, 1e59])
def test_elongated_cell_past_exact_rounding_is_a_typed_error(c):
    """A valid basis whose Lagrange-Gauss rounding coefficient reaches 2**53,
    where a float stops being an exact integer, raises
    ReductionNonConvergence from every operation that reduces it, not an
    OverflowError from the integer conversion."""
    b = mi.cell_params_to_basis(1.0, 1.1, c, 95.0, 95.0, 95.0)
    ps = mi.PeriodicPointSet(b, [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
    for op in (mi.reduce, mi.voronoi_cell, mi.relevant_vectors,
               lambda b: mi.min_image_distance(b, [0.1, 0.2, 0.3], [0.5, 0.5, 0.5]),
               lambda b: mi.neighbor_arrays(ps, 1.0)):
        with pytest.raises(mi.ReductionNonConvergence, match="2\\*\\*53"):
            op(b)


def full_ranked_array(vecs, carts, n2, sets):
    """The ranking of ``_ranked_config`` over every set, norm-ascending
    ordering and all 2^n signings, both signs of the first included."""
    from minimage.core import row_dots

    n = vecs.shape[1]
    perms, signs, (a, b) = mi.reduction._CONFIGS[n]
    idx = sets[:, perms].reshape(-1, n)
    idx = idx[np.all(n2[idx[:, :-1]] <= n2[idx[:, 1:]], axis=1)]
    ia, ib = idx[:, a], idx[:, b]
    root = np.reshape([x ** 0.5 for x in (n2[ia] * n2[ib]).ravel().tolist()], ia.shape)
    cos = (row_dots(carts[ia], carts[ib]) / root)[:, None] * (signs[:, a] * signs[:, b])
    acute = cos > mi.reduction.COS_SNAP
    key = -(signs[:, :, None] * carts[idx][:, None]).reshape(-1, n * n)
    best = np.lexsort((*key.T[::-1], np.where(acute, cos, 0.0).max(axis=-1).ravel(),
                       acute.sum(axis=-1).ravel()))[0]
    return np.ascontiguousarray((signs[best % len(signs)][:, None]
                                 * vecs[idx[best // len(signs)]]).T)


BCC = 0.5 * np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
HEX_PRISM = np.array([[1.0, -0.5, 0.0], [0.0, np.sqrt(3.0) / 2.0, 0.0], [0.0, 0.0, 1.6]])


@pytest.mark.parametrize("m", [FCC, BCC, np.eye(3), HEX_PRISM, HEX_2D],
                         ids=["fcc", "bcc", "cube", "hexagonal-prism", "hexagonal-2d"])
def test_ranking_half_the_signings_matches_the_full_pass(m):
    """The array pass ranks one of each signing and its negation; on tied
    lattices in 60 random frames each it picks, bit for bit, what the pass
    over all signings picks."""
    red = mi.reduction
    rng = np.random.default_rng(61)
    tied = 0
    for _ in range(60):
        b = mi.validate_basis(m @ random_unimodular(rng, len(m)))
        vecs, carts, n2 = red._gauss_columns(b.matrix)
        sets = red._PAIR
        if b.dim == 3:
            _, vecs, carts, n2, sets = red._selling_shortest_triples(b.matrix, vecs)
        got = red._ranked_array(vecs, carts, n2, sets)
        want = full_ranked_array(vecs, carts, n2, sets)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        tied += len(sets) > 1 or len(np.unique(n2[sets[0]])) < b.dim
    # Frames with exactly equal norms or several sets take the array pass
    # in reduce itself; rounding unties the norms of some 2D frames.
    assert tied >= 10
