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


# --- the pick of one untied shortest triple against the profile pass --------
# The pick reads the 13 candidate norms in three steps and hands every tie
# within NORM_TIE to the array pass; the pass it replaced is kept here as the
# reference its rows must equal.

BCT = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.7]])
TIE_FACTORS = (0.25, 0.99, 1.01, 4.0)


def profile_pass(roots):
    """Index rows of every unimodular triple whose sorted norm profile ties
    the lexicographic minimum within NORM_TIE (the tie-aware filter kept
    from before the pick)."""
    triples = mi.reduction._TRIPLES
    profiles = np.sort(np.asarray(roots)[triples], axis=1)
    keep = np.ones(len(triples), dtype=bool)
    for col in profiles.T:
        keep &= col <= col[keep].min() * (1.0 + mi.reduction.NORM_TIE)
    return triples[keep]


def random_cell_params(rng) -> mi.Basis | None:
    try:
        return mi.cell_params_to_basis(*rng.uniform(0.5, 2.0, 3), *rng.uniform(60.0, 120.0, 3))
    except mi.InvalidCellParameters:
        return None


def pick_corpus() -> dict:
    """Group name -> bases: seeded conditioned bases in 2D and 3D at
    condition number 1 to 1e6, bases from random cell parameters, and seven
    tied lattices in 60 random unimodular frames each."""
    rng = np.random.default_rng(29)
    groups = {f"cond-{n}d": [random_cond_basis(rng, n, 10 ** rng.uniform(0.0, 6.0))
                             for _ in range(80)] for n in (2, 3)}
    groups["cell-params"] = [b for b in (random_cell_params(rng) for _ in range(80)) if b]
    for name, m in (("fcc", FCC), ("bcc", BCC), ("cube", np.eye(3)),
                    ("hexagonal-prism", HEX_PRISM), ("bct", BCT),
                    ("hexagonal-2d", HEX_2D), ("square", np.eye(2))):
        groups[name] = [mi.validate_basis(m @ random_unimodular(rng, len(m)))
                        for _ in range(60)]
    return groups


def reduced_bytes(red) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in
                 (red.basis.matrix, red.transform, red.superbase, red.inverse))


@pytest.mark.parametrize("group", pick_corpus())
def test_the_pick_keeps_the_profile_pass_rows_and_reduce_bytes(monkeypatch, group):
    """On every basis the triples ``_selling_shortest_triples`` returns are
    the profile pass's rows, and ``reduce`` returns the bytes it returns
    when the profile pass picks the triples and the pass over all signings
    ranks them.  Generic 3D bases take the pick; tied lattices fall back."""
    red = mi.reduction
    bases = pick_corpus()[group]
    picked = 0
    for b in bases:
        if b.dim == 3:
            vecs = red._gauss_columns(b.matrix)[0]
            *_, n2, sets = red._selling_shortest_triples(b.matrix, vecs)
            want = profile_pass(np.sqrt(n2))
            assert sets.dtype == want.dtype and np.array_equal(sets, want)
            picked += red._untied_triple(np.sqrt(n2).tolist()) is not None
    fast = [reduced_bytes(mi.reduce(b)) for b in bases]
    monkeypatch.setattr(red, "_untied_triple", lambda roots: profile_pass(roots))
    monkeypatch.setattr(red, "_ranked_config", full_ranked_array)
    assert [reduced_bytes(mi.reduce(b)) for b in bases] == fast
    if group in ("cond-3d", "cell-params"):
        assert picked == len(bases)
    elif group in ("fcc", "bcc", "cube", "hexagonal-prism", "bct"):
        assert picked == 0


def staged_near_tie(step: int, factor: float) -> tuple[list, list]:
    """Candidate norms with a near-tie at one step of the pick: the
    runner-up at that step is the pick times 1 + factor NORM_TIE.  Returns
    the norms and the triple the pick would take if it ignored the tie.

    The tied candidate leads to a triple with a shorter third member than
    any the pick's candidate forms (at step 1 it forms no triple with a, at
    step 2 none with (a, b)), so only the window tells the rows the array
    pass keeps."""
    red = mi.reduction
    tie = 1.0 + factor * red.NORM_TIE
    roots = [2.0 + 0.01 * k for k in range(13)]
    if step == 1:
        a, a2, b, c2 = next((a, a2, b, c2) for a in range(13) for a2 in range(13)
                            if a2 != a and a2 not in red._PARTNERS[a]
                            for b in red._PARTNERS[a] if b in red._PARTNERS[a2]
                            for c2 in red._THIRDS[a2][b] if c2 not in red._THIRDS[a][b])
        roots[a], roots[a2], roots[b], roots[c2] = 1.0, tie, 1.2, 1.5
    elif step == 2:
        a, b, b2, c2 = next((a, b, b2, c2) for a in range(13)
                            for b in red._PARTNERS[a] for b2 in red._PARTNERS[a]
                            if b2 != b and b2 not in red._THIRDS[a][b]
                            for c2 in red._THIRDS[a][b2] if c2 not in red._THIRDS[a][b])
        roots[a], roots[b], roots[b2], roots[c2] = 1.0, 1.2, 1.2 * tie, 1.5
    else:
        a = 0
        b = red._PARTNERS[a][0]
        c, c2 = red._THIRDS[a][b][:2]
        roots[a], roots[b], roots[c], roots[c2] = 1.0, 1.2, 1.5, 1.5 * tie
    a = min(range(13), key=roots.__getitem__)
    b = min(red._PARTNERS[a], key=roots.__getitem__)
    c = min(red._THIRDS[a][b], key=roots.__getitem__)
    return roots, sorted((a, b, c))


@pytest.mark.parametrize("factor", TIE_FACTORS)
@pytest.mark.parametrize("step", (1, 2, 3))
def test_a_near_tie_at_each_step_of_the_pick(step, factor):
    """The rows ``_selling_shortest_triples`` would keep, the pick's or on
    a tie the pass's, are the pass's.  Inside the window (0.25 and 0.99
    NORM_TIE) the pick falls back, and the argmin triple it would otherwise
    take is not the pass's answer; outside it (1.01 and 4 NORM_TIE) the
    pick runs."""
    roots, argmin_triple = staged_near_tie(step, factor)
    want = profile_pass(roots)
    got = mi.reduction._untied_triple(roots)
    kept = profile_pass(roots) if got is None else got
    assert kept.dtype == want.dtype and np.array_equal(kept, want)
    assert (got is None) == (factor < 1.0)
    assert (want.tolist() == [argmin_triple]) == (factor > 1.0)


def near_tie_bases(step: int, factor: float) -> list[mi.Basis]:
    """Lattices whose two shortest candidates at one step differ by the
    factor times NORM_TIE, in 10 random rotations each: orthorhombic cells
    with two near-equal edges (steps 1 and 2), and a cell whose third edge
    leans so that e3 and e3 - e1 nearly tie (step 3)."""
    tie = 1.0 + factor * mi.reduction.NORM_TIE
    if step == 1:
        m = np.diag([1.0, tie, 1.7])
    elif step == 2:
        m = np.diag([1.0, 1.3, 1.3 * tie])
    else:
        # |e3|^2 - |e3 - e1|^2 = 2 x - 1 gives |e3| = |e3 - e1| tie.
        h = 1.6
        x = 0.5 + 0.5 * (tie ** 2 - 1.0) * (0.25 + h * h)
        m = np.column_stack([(1.0, 0.0, 0.0), (0.0, 1.3, 0.0), (x, 0.0, h)])
    rng = np.random.default_rng((step, int(factor * 100)))
    return [mi.validate_basis(np.linalg.qr(rng.normal(size=(3, 3)))[0] @ m) for _ in range(10)]


@pytest.mark.parametrize("factor", TIE_FACTORS)
@pytest.mark.parametrize("step", (1, 2, 3))
def test_near_tied_lattices_keep_the_profile_pass_rows(monkeypatch, step, factor):
    """The pick falls back inside the window and runs outside it, and either
    way gives the profile pass's rows and the reference reduce's bytes."""
    red = mi.reduction
    bases = near_tie_bases(step, factor)
    for b in bases:
        *_, n2, sets = red._selling_shortest_triples(b.matrix, red._gauss_columns(b.matrix)[0])
        assert np.array_equal(sets, profile_pass(np.sqrt(n2)))
    fast = [reduced_bytes(mi.reduce(b)) for b in bases]
    monkeypatch.setattr(red, "_untied_triple", lambda roots: profile_pass(roots))
    monkeypatch.setattr(red, "_ranked_config", full_ranked_array)
    assert [reduced_bytes(mi.reduce(b)) for b in bases] == fast
    monkeypatch.undo()
    for b in bases:
        n2 = red._selling_shortest_triples(b.matrix, red._gauss_columns(b.matrix)[0])[3]
        assert (red._untied_triple(np.sqrt(n2).tolist()) is None) == (factor < 1.0)
