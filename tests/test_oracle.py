import numpy as np
import pytest

import minimage as mi

from conftest import (
    FCC,
    HEX_2D,
    NO_OBTUSE_SHORTEST_3D,
    SKEW_2D,
    gram_cosines,
    random_cond_basis,
)


def test_brute_distance_wraparound(identity2):
    res = mi.oracle.brute_distance(identity2, [0.1, 0.1], [0.9, 0.1], 1)
    assert res.distance == pytest.approx(0.2, abs=1e-12)
    assert res.image.coeffs == (-1, 0)


def test_brute_distance_rejects_empty_box(identity2):
    with pytest.raises(ValueError):
        mi.oracle.brute_distance(identity2, [0, 0], [0.5, 0.5], 0)


def test_brute_distance_agrees_with_fast_path():
    rng = np.random.default_rng(61)
    for i in range(30):
        n = 2 if i % 2 == 0 else 3
        b = random_cond_basis(rng, n, 10 ** rng.uniform(0, 2))
        k = max(mi.copy_counts(b, b).layers) + 3
        p1, p2 = rng.random(n), rng.random(n)
        fast = mi.min_image_distance(b, p1, p2)
        slow = mi.oracle.brute_distance(b, p1, p2, k)
        assert fast.distance == pytest.approx(slow.distance, rel=1e-12)


def test_brute_relevant_identity(identity2):
    rel = mi.oracle.brute_relevant(identity2, 2)
    assert rel.coeff_set() == {(1, 0), (0, 1)}


def test_brute_relevant_hexagonal():
    rel = mi.oracle.brute_relevant(mi.validate_basis(HEX_2D), 2)
    assert rel.count == 6
    assert rel.coeff_set() == {(1, 0), (0, 1), (1, 1)}


def test_brute_relevant_fcc(fcc):
    rel = mi.oracle.brute_relevant(fcc, 3)
    assert rel.count == 12


def test_brute_relevant_box_validation(identity2):
    with pytest.raises(ValueError):
        mi.oracle.brute_relevant(identity2, 1)


def test_brute_relevant_stabilizes_in_box_size():
    rng = np.random.default_rng(62)
    for i in range(6):
        n = 2 if i % 2 == 0 else 3
        b = mi.reduce(random_cond_basis(rng, n, 20.0)).basis
        small = mi.oracle.brute_relevant(b, 2)
        large = mi.oracle.brute_relevant(b, 3)
        assert small.coeff_set() == large.coeff_set()


# --- minimality witnesses -----------------------------------------------------


def test_witness_for_zero_layers(identity2):
    """One copy cannot see wraparound pairs."""
    import itertools

    for axis in (0, 1):
        hit = mi.oracle.minimality_witness(identity2, identity2, axis)
        assert hit is not None
        p1, p2, gap = hit
        assert gap > 1e-9
        # the returned pair reproduces the gap against the restricted block
        layers = [1, 1]
        layers[axis] = 0
        restricted = np.array(list(itertools.product(
            *[range(-m, m + 1) for m in layers])))
        delta = identity2.matrix @ (np.asarray(p2) - np.asarray(p1))
        res_d = np.linalg.norm(delta + restricted @ identity2.matrix.T, axis=1).min()
        true_d = mi.min_image_distance(identity2, p1, p2).distance
        assert res_d - true_d == pytest.approx(gap, rel=1e-9)


def test_witness_for_sheared_cell(identity2):
    cell = mi.validate_basis(SKEW_2D)
    hit = mi.oracle.minimality_witness(cell, identity2, 0)
    assert hit is not None
    assert hit[2] > 1e-9


def test_witness_for_hexagonal_cell(hexagonal2):
    for axis in (0, 1):
        hit = mi.oracle.minimality_witness(hexagonal2, hexagonal2, axis)
        assert hit is not None
        assert hit[2] > 1e-9


def test_witness_pair_is_valid(identity2):
    cell = mi.validate_basis(SKEW_2D)
    p1, p2, gap = mi.oracle.minimality_witness(cell, identity2, 0)
    assert np.all(np.asarray(p1) >= 0) and np.all(np.asarray(p1) < 1)
    assert np.all(np.asarray(p2) >= -1e-12) and np.all(np.asarray(p2) <= 1 + 1e-12)
    # gap is measured against the restricted block on axis 0
    cc = mi.copy_counts(cell, identity2)
    assert cc.layers[0] == 3



def _witness_cases():
    """Seeded 2D and 3D lattices, each with its reduced cell (mostly one
    layer per axis) and a sheared cell (some axis with two or more)."""
    rng = np.random.default_rng(64)
    for i in range(12):
        n = 2 if i % 3 == 0 else 3
        lat = random_cond_basis(rng, n, 10 ** rng.uniform(0, 1))
        red = mi.reduce(lat).basis
        shear = np.eye(n, dtype=np.int64)
        j, k = rng.choice(n, size=2, replace=False)
        shear[j, k] = int(rng.integers(2, 5)) * (1 if rng.random() < 0.5 else -1)
        yield red, lat
        yield mi.validate_basis(red.matrix @ shear), lat


def test_constructed_witness_on_every_kind_of_axis():
    """The witness pair needs exactly m_axis layers: its brute-force image
    sits at |t_axis| = m_axis, the fast path agrees, and the gap is the
    excess of an independently built restricted block."""
    import itertools

    kinds = set()
    for cell, lat in _witness_cases():
        layers = mi.copy_counts(cell, lat).layers
        for axis in range(cell.dim):
            kinds.add((cell.dim, min(layers[axis], 2)))
            hit = mi.oracle.minimality_witness(cell, lat, axis)
            assert hit is not None, (cell.matrix.tolist(), axis)
            p1, p2, gap = hit
            assert gap > mi.oracle.WITNESS_GAP
            fast = mi.min_image_distance(cell, p1, p2)
            box = mi.oracle.certified_layers(cell, fast.distance, p2 - p1)
            slow = mi.oracle.brute_distance(cell, p1, p2, box)
            assert abs(slow.image.coeffs[axis]) == layers[axis]
            assert abs(fast.distance - slow.distance) <= 1e-12 * slow.distance
            short = [range(-m, m + 1) for m in layers]
            short[axis] = range(-layers[axis] + 1, layers[axis])
            restricted = np.array(list(itertools.product(*short)), dtype=float)
            cart = (np.asarray(p2) - np.asarray(p1) + restricted) @ cell.matrix.T
            res_d = np.linalg.norm(cart, axis=1).min()
            assert res_d - slow.distance == pytest.approx(gap, rel=1e-9)
    assert kinds == {(2, 1), (2, 2), (3, 1), (3, 2)}


@pytest.mark.parametrize("axis", [-1, 2, 5])
def test_witness_rejects_an_axis_outside_the_cell(identity2, axis):
    with pytest.raises(ValueError, match="axis"):
        mi.oracle.minimality_witness(identity2, identity2, axis)


# --- certified boxes and the work budget --------------------------------------

TILTED_2D = np.array([[1.0, 10.3], [0.0, 1.0]])  # columns (1, 0), (10.3, 1)


def test_certified_layers_hold_every_close_translate():
    import itertools

    rng = np.random.default_rng(63)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        b = random_cond_basis(rng, n, 10 ** rng.uniform(0, 2))
        radius = float(rng.uniform(0.1, 2.0)) * float(b.column_norms().max())
        delta = rng.uniform(-3, 3, size=n)
        layers = mi.oracle.certified_layers(b, radius, delta)
        wide = [m + 4 for m in layers]
        t = np.array(list(itertools.product(*[range(-m, m + 1) for m in wide])))
        close = t[np.linalg.norm((delta + t) @ b.matrix.T, axis=1) <= radius]
        assert np.all(np.abs(close) <= np.array(layers))


def test_brute_distance_accepts_per_axis_layers():
    b = mi.validate_basis(SKEW_2D)
    assert (mi.oracle.brute_distance(b, [0, 0], [0.5, 0.5], (6, 2))
            == mi.oracle.brute_distance(b, [0, 0], [0.5, 0.5], 6))


def test_brute_relevant_certified_box_matches_fast_path():
    rng = np.random.default_rng(64)
    bases = [mi.validate_basis(TILTED_2D)]
    bases += [random_cond_basis(rng, 2 + i % 2, 10 ** rng.uniform(0, 1.5)) for i in range(10)]
    for b in bases:
        assert mi.oracle.brute_relevant(b).coeff_set() == mi.relevant_vectors(b).coeff_set()
    assert {(10, -1), (11, -1)} <= mi.oracle.brute_relevant(bases[0]).coeff_set()


def test_brute_reduced(identity3):
    assert mi.oracle.brute_reduced(identity3)
    assert mi.oracle.brute_reduced(mi.reduce(mi.validate_basis(TILTED_2D)).basis)
    assert not mi.oracle.brute_reduced(mi.validate_basis(TILTED_2D))


def test_brute_reduced_accepts_shortest_bases_without_an_obtuse_signing():
    """About half of 3D lattices have a shortest basis, unique up to signs,
    whose pairwise inner products have a positive product: no signing of it
    is all-obtuse, so an acute pair is no mismatch."""
    for b in (mi.validate_basis(NO_OBTUSE_SHORTEST_3D),
              mi.cell_params_to_basis(1, 1.1, 1.2, 80, 80, 80)):
        red = mi.reduce(b)
        assert max(gram_cosines(red.basis.matrix)) > 0
        assert mi.oracle.brute_reduced(red.basis)


@pytest.mark.parametrize("matrix", [HEX_2D, FCC, None])
def test_brute_reduced_rejects_a_negated_column_of_an_obtuse_basis(matrix):
    b = (mi.cell_params_to_basis(1, 1.1, 1.2, 100, 95, 98) if matrix is None
         else mi.validate_basis(matrix))
    m = mi.reduce(b).basis.matrix
    assert max(gram_cosines(m)) <= 1e-9 and mi.oracle.brute_reduced(mi.validate_basis(m))
    m = m.copy()
    m[:, 1] *= -1
    assert not mi.oracle.brute_reduced(mi.validate_basis(m))


def test_brute_reduced_rejects_obtuse_bases_that_are_not_shortest():
    misordered = np.diag([2.0, 1.0, 1.5])
    long_second = np.array([[1.0, -3.0], [0.0, 0.1]])  # (0, 0.1) is shorter
    long_third = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, -2.0], [0.0, 0.0, 1.0]])
    for m in (misordered, long_second, long_third):
        assert max(gram_cosines(m)) <= 0
        assert not mi.oracle.brute_reduced(mi.validate_basis(m))


def test_block_counterexample(identity2):
    cell = mi.validate_basis(SKEW_2D)  # needs layers (3, 1)
    assert mi.oracle.block_counterexample(cell, (3, 1)) is None
    p1, p2 = mi.oracle.block_counterexample(cell, (1, 1))
    shifts = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)]) @ cell.matrix.T
    d_block = np.linalg.norm(cell.matrix @ (np.array(p2) - p1) + shifts, axis=1).min()
    assert d_block > mi.min_image_distance(cell, p1, p2).distance + 1e-9


def test_certified_searches_over_budget_raise_before_allocating():
    assert issubclass(mi.OracleBudgetExceeded, mi.LatticeError)
    skewed = mi.validate_basis(np.array([[1.0, 1e4, 0.0], [0.0, 1.0, 1e4], [0.0, 0.0, 1.0]]))
    with pytest.raises(mi.OracleBudgetExceeded):
        mi.oracle.certified_layers(skewed, 1.0)
    with pytest.raises(mi.OracleBudgetExceeded):
        mi.oracle.brute_relevant(skewed)
    with pytest.raises(mi.OracleBudgetExceeded):
        mi.oracle.brute_reduced(skewed)
    with pytest.raises(mi.OracleBudgetExceeded):
        mi.oracle.block_counterexample(skewed, (1, 1, 1))


def test_brute_distance_searches_a_given_box_in_chunks(identity3):
    """A caller's box is searched whole, without holding all of its rows."""
    import tracemalloc

    tracemalloc.start()
    try:
        res = mi.oracle.brute_distance(identity3, [0.1, 0.1, 0.1], [0.9, 0.2, 0.1], 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.distance == pytest.approx(np.hypot(0.2, 0.1), rel=1e-12)
    assert res.image.coeffs == (-1, 0, 0)
    assert peak < 32 * 2 ** 20  # the 121^3-row box alone is 42 MB of integers


def test_box_rows_stream_the_whole_box_in_order(monkeypatch):
    monkeypatch.setattr(mi.oracle, "_BOX_CHUNK", 7)
    parts = list(mi.oracle._box_rows((2, 1, 3)))
    assert [len(x) for x in parts] == [7] * 15
    assert np.array_equal(np.vstack(parts), mi.core.int_box((2, 1, 3)))
