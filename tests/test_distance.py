import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

import minimage as mi

import type_sweep
from conftest import (FCC, HEX_2D, NO_OBTUSE_SHORTEST_3D, REDUCED_BUT_H_ABOVE_1, SKEW_2D,
                      random_cond_basis, random_obtuse_2d, random_obtuse_3d, random_unimodular,
                      skewed_basis)
from test_shared_build import equivalence_bases
from minimage import cli, distance, voronoi
from minimage.core import LatticeVector, int_box, unimodular_inverse, wrap_frac


def test_wraparound_distance(identity2):
    res = mi.min_image_distance(identity2, [0.1, 0.1], [0.9, 0.1])
    assert res.distance == pytest.approx(0.2, abs=1e-12)
    assert res.image.coeffs == (-1, 0)


def test_coincident_points(identity2):
    res = mi.min_image_distance(identity2, [0.3, 0.7], [0.3, 0.7])
    assert res.distance == 0.0
    assert res.image.coeffs == (0, 0)


def test_inputs_outside_unit_cell_are_wrapped(identity2):
    a = mi.min_image_distance(identity2, [0.1, 0.1], [0.9, 0.1])
    b = mi.min_image_distance(identity2, [2.1, -1.9], [-3.1, 5.1])
    assert a.distance == pytest.approx(b.distance, rel=1e-12)


def test_sheared_basis_matches_brute_force():
    b = mi.validate_basis(SKEW_2D)
    res = mi.min_image_distance(b, [0.0, 0.0], [0.5, 0.5])
    ref = mi.oracle.brute_distance(b, [0.0, 0.0], [0.5, 0.5], 15)
    assert res.distance == pytest.approx(ref.distance, rel=1e-12)
    assert res.image.coeffs == ref.image.coeffs
    # a naive 3x3 search on the unreduced basis is strictly worse
    offs = np.array(list(itertools.product((-1, 0, 1), repeat=2)))
    naive = np.linalg.norm((np.array([0.5, 0.5]) + offs) @ b.matrix.T, axis=1).min()
    assert naive > res.distance + 0.1


def test_distance_image_identity():
    rng = np.random.default_rng(41)
    for i in range(40):
        n = 2 if i % 2 == 0 else 3
        b = random_cond_basis(rng, n, 10 ** rng.uniform(0, 2))
        p1, p2 = rng.random(n), rng.random(n)
        res = mi.min_image_distance(b, p1, p2)
        direct = np.linalg.norm(b.matrix @ (p2 + np.array(res.image.coeffs) - p1))
        assert res.distance == pytest.approx(direct, rel=1e-12)


def test_tie_breaking_is_lexicographic(identity2):
    res = mi.min_image_distance(identity2, [0.0, 0.0], [0.5, 0.0])
    assert res.image.coeffs == (-1, 0)  # (-1,0) and (0,0) tie at 0.5
    assert res.distance == pytest.approx(0.5)


def test_pairwise_single_point(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.2, 0.3]])
    assert np.array_equal(mi.pairwise_distances(ps), np.zeros((1, 1)))


def test_pairwise_two_points(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0], [0.5, 0.5]])
    mat = mi.pairwise_distances(ps)
    assert mat[0, 1] == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
    assert mat[0, 1] == mat[1, 0]
    assert mat[0, 0] == 0.0


def test_pairwise_matches_oracle_3d():
    rng = np.random.default_rng(42)
    b = mi.validate_basis(rng.normal(size=(3, 3)) + 2 * np.eye(3))
    pts = rng.random((20, 3))
    ps = mi.PeriodicPointSet(b, pts)
    mat = mi.pairwise_distances(ps)
    k = max(mi.copy_counts(b, b).layers) + 3
    for i in range(20):
        for j in range(i + 1, 20):
            ref = mi.oracle.brute_distance(b, ps.points[i], ps.points[j], k)
            assert mat[i, j] == pytest.approx(ref.distance, rel=1e-12)
    assert np.array_equal(mat, mat.T)


def test_metric_axioms():
    rng = np.random.default_rng(43)
    b = random_cond_basis(rng, 3, 50.0)
    pts = rng.random((12, 3))
    mat = mi.pairwise_distances(mi.PeriodicPointSet(b, pts))
    assert np.array_equal(mat, mat.T)
    for i, j, k in itertools.permutations(range(12), 3):
        assert mat[i, j] <= mat[i, k] + mat[k, j] + 1e-12


def test_scaling_equivariance():
    rng = np.random.default_rng(44)
    b = random_cond_basis(rng, 2, 30.0)
    p1, p2 = rng.random(2), rng.random(2)
    base = mi.min_image_distance(b, p1, p2)
    for s in (0.25, 7.0):
        scaled = mi.min_image_distance(mi.validate_basis(s * b.matrix), p1, p2)
        assert scaled.distance == pytest.approx(s * base.distance, rel=1e-12)
        assert scaled.image.coeffs == base.image.coeffs


def test_basis_choice_invariance():
    # modest shears only: harsher transforms degrade the re-expressed input
    # points themselves beyond the 1e-12 comparison budget
    rng = np.random.default_rng(45)
    for i in range(10):
        n = 2 if i % 2 == 0 else 3
        b = random_cond_basis(rng, n, 10.0)
        pts = rng.random((6, n))
        u = random_unimodular(rng, n, steps=4, kmax=2)
        b2 = mi.validate_basis(b.matrix @ u)
        pts2 = wrap_frac(pts @ unimodular_inverse(u).T)
        m1 = mi.pairwise_distances(mi.PeriodicPointSet(b, pts))
        m2 = mi.pairwise_distances(mi.PeriodicPointSet(b2, pts2))
        scale = max(m1.max(), 1e-300)
        assert np.abs(m1 - m2).max() <= 1e-12 * scale


# --- neighbor lists ----------------------------------------------------------


def test_neighbors_unit_square(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0]])
    hits = mi.neighbors_within(ps, 1.0)
    images = {h[2].coeffs for h in hits}
    assert images == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert all(h[3] == pytest.approx(1.0) for h in hits)
    assert all(h[0] == 0 and h[1] == 0 for h in hits)


def test_neighbors_unit_square_wider(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0]])
    hits = mi.neighbors_within(ps, 1.5)
    assert len(hits) == 8
    dists = sorted(round(h[3], 9) for h in hits)
    assert dists[:4] == [1.0] * 4
    assert dists[4:] == [round(np.sqrt(2), 9)] * 4


def test_neighbors_hexagonal_kissing():
    b = mi.validate_basis(HEX_2D)
    ps = mi.PeriodicPointSet(b, [[0.0, 0.0]])
    hits = mi.neighbors_within(ps, 1.01)
    assert len(hits) == 6
    assert all(h[3] == pytest.approx(1.0, abs=1e-9) for h in hits)


def test_neighbors_two_points(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0], [0.5, 0.0]])
    hits = mi.neighbors_within(ps, 0.6)
    cross = [h for h in hits if h[0] != h[1]]
    assert {h[2].coeffs for h in cross} == {(0, 0), (-1, 0)}
    assert all(h[3] == pytest.approx(0.5) for h in cross)
    assert all(h[0] <= h[1] for h in hits)


def test_neighbors_zero_image_excluded(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.25, 0.25]])
    hits = mi.neighbors_within(ps, 0.9)
    assert hits == []


def test_neighbors_cutoff_validation(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0]])
    with pytest.raises(ValueError):
        mi.neighbors_within(ps, 0.0)


def test_neighbors_distances_consistent():
    rng = np.random.default_rng(46)
    b = mi.validate_basis(SKEW_2D)
    pts = rng.random((4, 2))
    ps = mi.PeriodicPointSet(b, pts)
    hits = mi.neighbors_within(ps, 1.2)
    assert hits, "expected some neighbors in a unit-covolume cell"
    for i, j, img, d in hits:
        direct = np.linalg.norm(b.matrix @ (ps.points[j] + np.array(img.coeffs)
                                            - ps.points[i]))
        assert d == pytest.approx(direct, rel=1e-12)
        assert d <= 1.2
        true = mi.min_image_distance(b, ps.points[i], ps.points[j]).distance
        assert d >= true * (1 - 1e-12)
    # every true minimum within the cutoff must be present
    for i in range(len(ps)):
        for j in range(i, len(ps)):
            res = mi.min_image_distance(b, ps.points[i], ps.points[j])
            if 0 < res.distance <= 1.2:
                assert any(h[0] == i and h[1] == j for h in hits)


# --- point set container -----------------------------------------------------


def test_point_set_wraps_inputs(identity2):
    ps = mi.PeriodicPointSet(identity2, [[1.25, -0.25]])
    assert np.allclose(ps.points, [[0.25, 0.75]])
    assert len(ps) == 1


def test_point_set_rejects_bad_shapes(identity2):
    with pytest.raises(ValueError):
        mi.PeriodicPointSet(identity2, [[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError):
        mi.PeriodicPointSet(identity2, [[0.1, 0.2]], labels=("a", "b"))


@pytest.mark.parametrize("points, shape", [([], "(0,)"), ([[]], "(1, 0)"),
                                           ([0.1, 0.2, 0.3], "(3,)"),
                                           (np.zeros((2, 2, 2)), "(2, 2, 2)")],
                         ids=["empty-list", "empty-row", "one-point-of-three", "3-d"])
def test_point_set_reports_the_shape_the_caller_passed(identity2, points, shape):
    with pytest.raises(ValueError, match=f"^points must have shape \\(N, 2\\), got {re.escape(shape)}$"):
        mi.PeriodicPointSet(identity2, points)
    assert len(mi.PeriodicPointSet(identity2, np.empty((0, 2)))) == 0


def test_point_set_labels(identity2):
    ps = mi.PeriodicPointSet(identity2, [[0.1, 0.2], [0.3, 0.4]], labels=["u", "v"])
    assert ps.labels == ("u", "v")
    assert mi.PeriodicPointSet(identity2, [[0.1, 0.2]], labels=np.array(["w"])).labels == ("w",)


@pytest.mark.parametrize("labels", ["ab", ["a", None], [None, 3], [b"a", b"b"],
                                    {"a", "b"}, {"x": 1, "y": 2}])
def test_point_set_labels_must_be_strings(identity2, labels):
    # "ab" once labelled the points ("a", "b"), and [None, 3] ("None", "3");
    # a set's order depended on the hash seed, and a mapping gave its keys.
    with pytest.raises(ValueError, match="labels"):
        mi.PeriodicPointSet(identity2, [[0.1, 0.2], [0.3, 0.4]], labels=labels)


# --- kernels against the direct broadcast formula -----------------------------


def reference_pairwise(ps):
    """Every pair and every image of the whole block, one row at a time,
    squares summed by ``sum(-1)``."""
    red, t = distance._reduced_search_block(ps.basis)
    rm = red.basis.matrix
    cart = wrap_frac(ps.points @ unimodular_inverse(red.transform).T) @ rm.T
    shifts = t @ rm.T
    out = np.empty((len(cart), len(cart)))
    for i, c in enumerate(cart):
        diff = cart[:, None, :] - c + shifts[None, :, :]
        out[i] = np.sqrt((diff ** 2).sum(axis=-1)).min(axis=-1)
    np.fill_diagonal(out, 0.0)
    return out


def reference_neighbors(ps, cutoff):
    """One pair at a time over the whole cutoff block, one record per hit."""
    red = mi.reduce(ps.basis)
    rm, u = red.basis.matrix, red.transform
    fred = ps.points @ unimodular_inverse(u).T
    w = np.floor(fred).astype(np.int64)
    cart = (fred - w) @ rm.T
    diam = mi.voronoi_cell(red.basis).diameter()
    widths = 1.0 / np.linalg.norm(red.basis.inv, axis=1)
    ranges = [range(-m, m + 1) for m in
              (math.ceil((cutoff + diam) / wd) for wd in widths)]
    t = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    shifts = t @ rm.T
    hits = []
    for i in range(len(ps)):
        for j in range(i, len(ps)):
            d = np.linalg.norm(cart[j] - cart[i] + shifts, axis=1)
            for k in np.flatnonzero(d <= cutoff):
                img = u @ (t[k] + w[i] - w[j])
                if i == j and not img.any():
                    continue
                hits.append((i, j, LatticeVector(tuple(int(x) for x in img)),
                             float(d[k])))
    hits.sort(key=lambda h: (h[0], h[1], h[3], h[2].coeffs))
    return hits


def kernel_cases():
    rng = np.random.default_rng(47)
    cases = [(mi.validate_basis(np.eye(2)), rng.random((1, 2)), 1.5),
             (mi.validate_basis(np.eye(3)), rng.random((1, 3)), 2.5),
             (mi.validate_basis(HEX_2D), rng.random((6, 2)), 1.01),
             (mi.validate_basis(REDUCED_BUT_H_ABOVE_1), rng.random((25, 3)), 0.05)]
    for n, cond, npts in ((2, 1.0, 30), (2, 100.0, 17), (3, 1.0, 30), (3, 300.0, 12)):
        b = random_cond_basis(rng, n, cond)
        cutoff = 1.2 * abs(b.det) ** (1.0 / n)
        cases.append((b, rng.random((npts, n)), cutoff))
    return cases


@pytest.mark.parametrize("b, pts, cutoff", kernel_cases())
def test_kernels_match_reference_exactly(b, pts, cutoff):
    ps = mi.PeriodicPointSet(b, pts)
    assert np.array_equal(mi.pairwise_distances(ps), reference_pairwise(ps))
    assert mi.neighbors_within(ps, cutoff) == reference_neighbors(ps, cutoff)


def test_kernels_chunked_rows_give_the_same_output(monkeypatch):
    rng = np.random.default_rng(48)
    b = random_cond_basis(rng, 3, 20.0)
    ps = mi.PeriodicPointSet(b, rng.random((23, 3)))
    cutoff = 1.1 * abs(b.det) ** (1.0 / 3)
    whole = mi.pairwise_distances(ps), mi.neighbors_within(ps, cutoff)
    monkeypatch.setattr(distance, "_CHUNK", 40)  # one or two rows per chunk
    mat = mi.pairwise_distances(ps)
    assert np.array_equal(mat, whole[0])
    assert np.array_equal(mat, reference_pairwise(ps))
    assert mi.neighbors_within(ps, cutoff) == whole[1] == reference_neighbors(ps, cutoff)


@pytest.mark.parametrize("npts", [1, 2, 7, 127, 128, 129, 1000, 20000])
def test_row_ranges_cover_the_triangle_within_the_chunk(npts):
    ranges = list(distance._row_ranges(npts))
    assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
    assert ranges[-1][1] == npts
    for start, stop in ranges:
        assert stop - start == min(npts - start, max(1, distance._CHUNK // (npts - start)))
        assert stop - start == 1 or (stop - start) * (npts - start) <= distance._CHUNK


# --- the binned matrix kernel --------------------------------------------------


@pytest.mark.parametrize("b, pts, cutoff", kernel_cases())
def test_binned_matrix_matches_reference_exactly(b, pts, cutoff, monkeypatch):
    # One point per bin is enough: every case with 2^n points or more takes
    # the bins, empty ones included.
    monkeypatch.setattr(distance, "_BIN_MIN", 1)
    ps = mi.PeriodicPointSet(b, pts)
    assert np.array_equal(mi.pairwise_distances(ps), reference_pairwise(ps))


def test_binned_matrix_chunks_rows_exactly(monkeypatch):
    rng = np.random.default_rng(56)
    b = random_cond_basis(rng, 3, 20.0)
    ps = mi.PeriodicPointSet(b, rng.random((60, 3)))
    monkeypatch.setattr(distance, "_BIN_MIN", 1)
    whole = mi.pairwise_distances(ps)
    monkeypatch.setattr(distance, "_CHUNK", 40)  # several row chunks per bin pair
    assert np.array_equal(mi.pairwise_distances(ps), whole)
    assert np.array_equal(whole, reference_pairwise(ps))


def bins_used(monkeypatch) -> list:
    """The bins per axis of each later pairwise_distances call that takes
    more than one (one bin picks no candidates)."""
    seen = []
    real = distance._bin_candidates

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(distance, "_bin_candidates", spy)
    return seen


@pytest.mark.parametrize("n, npts", [(3, 511), (3, 512), (3, 800), (2, 255), (2, 256), (2, 600)])
@pytest.mark.parametrize("lattice", ["skewed-fcc", "cond-1e3"])
def test_binned_matrix_on_both_sides_of_the_threshold(n, npts, lattice, monkeypatch):
    rng = np.random.default_rng((57, n, npts))
    b = (skewed_basis(rng, FCC if n == 3 else HEX_2D, 1e2) if lattice == "skewed-fcc"
         else random_cond_basis(rng, n, 1e3))
    ps = mi.PeriodicPointSet(b, rng.random((npts, n)))
    seen = bins_used(monkeypatch)
    assert np.array_equal(mi.pairwise_distances(ps), reference_pairwise(ps))
    assert seen == ([2] if npts >= 64 * 2 ** n else [])


def exact_points(m: np.ndarray) -> np.ndarray:
    """Quarter-grid points of the frame of m, so on bin edges (reduced
    fractional 0 and 1/2) exactly, and every one moved by every Voronoi
    vertex (dyadic in the frame of m where the lattice allows), with a
    few duplicates."""
    n = len(m)
    grid = np.indices((4,) * n).reshape(n, -1).T / 4
    verts = np.linalg.solve(m, mi.voronoi_cell(mi.validate_basis(m)).vertices.T).T
    dyadic = np.round(8 * verts) / 8
    if np.allclose(verts, dyadic, rtol=0, atol=1e-12):
        verts = dyadic
    moved = (grid[::3, None, :] + verts[None]).reshape(-1, n)
    return np.concatenate([grid, moved, grid[:5], moved[::7]])


@pytest.mark.parametrize("name", ["square", "hexagonal", "cube", "fcc", "bcc"])
@pytest.mark.parametrize("bin_min", [1, 64])
def test_binned_matrix_on_exact_lattices(name, bin_min, monkeypatch):
    monkeypatch.setattr(distance, "_BIN_MIN", bin_min)
    m = type_sweep.TYPES[name]
    rng = np.random.default_rng(58)
    for b in (mi.validate_basis(m), mi.validate_basis(m @ random_unimodular(rng, len(m)))):
        ps = mi.PeriodicPointSet(b, exact_points(m) @ unimodular_inverse(
            np.round(np.linalg.solve(m, b.matrix)).astype(np.int64)).T)
        mat = mi.pairwise_distances(ps)
        assert np.array_equal(mat, reference_pairwise(ps))
        assert np.array_equal(mat, mat.T)


def certificate_bases():
    """Seeded skewed FCC and hexagonal frames, random lattices of condition
    number up to 1e3, and the reduced cell that needs two layers."""
    out = [pytest.param(mi.validate_basis(REDUCED_BUT_H_ABOVE_1), id="reduced-h-above-1")]
    for n in (2, 3):
        for seed in range(6):
            rng = np.random.default_rng((59, n, seed))
            b = (random_cond_basis(rng, n, 10 ** rng.uniform(0, 3)) if seed % 2
                 else skewed_basis(rng, FCC if n == 3 else HEX_2D, 1e2))
            out.append(pytest.param(b, id=f"{n}d-{seed}"))
    return out


@pytest.mark.parametrize("b", certificate_bases())
def test_bin_candidates_keep_every_minimum_by_the_margin(b):
    # The certificate alone: at the corners of every box of bin differences
    # and at random points in it, every dropped block row is longer, squared,
    # than the best kept row by more than twice the slack.
    n = b.dim
    rng = np.random.default_rng(61)
    red, t = distance._reduced_search_block(b)
    rm = red.basis.matrix
    shifts = t @ rm.T
    reach = np.linalg.norm(shifts, axis=1).max() + red.basis.diameter()
    margin = 2 * distance._PRUNE_SLACK * reach ** 2
    for k in (1, 2, 3):
        cands = distance._bin_candidates(voronoi._prepare(b).normals, rm, shifts,
                                         red.basis.diameter(), k)
        diffs = int_box((k - 1,) * n)
        assert len(cands) == len(diffs)
        for d, kept in zip(diffs, cands):
            lo, hi = (d - 1) / k, (d + 1) / k
            corners = np.where(np.indices((2,) * n).reshape(n, -1).T > 0, hi, lo)
            f = np.concatenate([corners, lo + (hi - lo) * rng.random((64, n))])
            x = (f[:, None, :] + t[None]) @ rm.T
            sq = np.einsum("fti,fti->ft", x, x)
            dropped = np.setdiff1d(np.arange(len(t)), kept)
            assert len(kept)
            if k == 1 and len(t) == 3 ** n:
                assert not len(dropped)  # one bin keeps the whole 3^n block
            if len(dropped):
                assert (sq[:, dropped].min(axis=1) - sq[:, kept].min(axis=1) > margin).all()


def test_pairwise_temporaries_stay_within_row_chunks():
    import tracemalloc

    rng = np.random.default_rng(60)
    ps = mi.PeriodicPointSet(skewed_basis(rng, FCC, 1e2), rng.random((800, 3)))
    mi.pairwise_distances(ps)
    tracemalloc.start()
    try:
        out = mi.pairwise_distances(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A second 800 x 800 array would take 39 x _CHUNK entries.
    assert peak - out.nbytes < 12 * distance._CHUNK * 8 + 64 * len(ps) * 8


def test_neighbors_reach_beyond_one_layer_and_self_images(identity3):
    ps = mi.PeriodicPointSet(identity3, [[0.1, 0.2, 0.3], [0.6, 0.6, 0.6]])
    hits = mi.neighbors_within(ps, 2.5)
    assert hits == reference_neighbors(ps, 2.5)
    assert max(max(map(abs, h[2].coeffs)) for h in hits) == 2
    self_images = {h[2].coeffs for h in hits if h[0] == h[1] == 0}
    assert (0, 0, 0) not in self_images
    assert (2, 0, 0) in self_images and (-2, 0, 0) in self_images


def test_neighbors_empty_result_matches_reference(identity3):
    ps = mi.PeriodicPointSet(identity3, [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]])
    assert mi.neighbors_within(ps, 0.5) == reference_neighbors(ps, 0.5) == []


@pytest.mark.parametrize("pts", [[[0.0, 0.0], [0.5, 0.5]], np.empty((0, 2))],
                         ids=["below-every-distance", "no-points"])
def test_neighbor_arrays_empty_result_shapes_and_dtypes(identity2, pts):
    ps = mi.PeriodicPointSet(identity2, pts)
    out = distance.neighbor_arrays(ps, 0.1)
    assert [x.shape for x in out] == [(0,), (0,), (0, 2), (0,)]
    assert [x.dtype for x in out] == [np.intp, np.intp, np.int64, np.float64]
    assert mi.neighbors_within(ps, 0.1) == []


def test_neighbors_hit_just_inside_the_pruning_bound(identity2):
    # Points at opposite corners of the cell: the image (-2, -2) lies
    # within 1.5e-6 of cutoff + diameter and still holds a hit.
    eps = 1e-6
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0], [1 - eps, 1 - eps]])
    cutoff = math.sqrt(2.0) * (1 + eps) + 1e-12
    hits = mi.neighbors_within(ps, cutoff)
    assert hits == reference_neighbors(ps, cutoff)
    far = [h for h in hits if h[2].coeffs == (-2, -2)]
    assert len(far) == 1 and far[0][:2] == (0, 1)
    margin = (cutoff + mi.reduce(identity2).basis.diameter()
              - np.linalg.norm(identity2.matrix @ np.array([-2.0, -2.0])))
    assert 0 < margin < 1.5e-6


def elongated_bases():
    rng = np.random.default_rng(49)
    return [pytest.param(mi.validate_basis(m), id=name) for name, m in (
        ("elongated-2d", np.diag([1.0, 5.0])),
        ("elongated-3d", np.diag([1.0, 1.0, 6.0])),
        ("skewed-hexagonal-1e3", skewed_basis(rng, HEX_2D, 1e3).matrix),
        ("skewed-fcc-1e2", skewed_basis(rng, FCC, 1e2).matrix),
        ("needle-3d", random_cond_basis(rng, 3, 1e3).matrix @ np.diag([1.0, 1.0, 8.0])),
    )]


@pytest.mark.parametrize("b", equivalence_bases() + elongated_bases())
def test_neighbor_classes_match_the_whole_block(b):
    rng = np.random.default_rng(50)
    ps = mi.PeriodicPointSet(b, rng.random((12, b.dim)))
    cutoff = 1.5 * abs(b.det) ** (1.0 / b.dim)
    assert mi.neighbors_within(ps, cutoff) == reference_neighbors(ps, cutoff)


@pytest.mark.parametrize("b", equivalence_bases() + elongated_bases())
def test_class_ball_implies_the_shift_bound(b):
    # The search block of neighbor_arrays is the bounding box of the class
    # balls.  Every image in a ball also passes the shift-length bound
    # |B t| <= cutoff + diam, because |B c_q| <= 3/4 diam for every class
    # center c_q, and lies in the block: |t_k| <= floor(r / width_k + 3/4).
    red = mi.reduce(b).basis
    n, cell = b.dim, red.diameter()
    split, slack = distance._SPLIT, distance._PRUNE_SLACK
    q = np.array(list(itertools.product(range(-split, split), repeat=n)))
    centers = ((q + 0.5) / split) @ red.matrix.T
    widths = 1.0 / np.linalg.norm(red.inv, axis=1)
    for scale in (0.05, 0.5, 1.0, 2.5):
        cutoff = scale * abs(b.det) ** (1.0 / n)
        r = (cutoff + cell / (2 * split)) * (1.0 + slack)
        layers = np.floor(r / widths + 0.75)
        # One layer beyond the block on every axis, and at least 6.
        t = mi.core.int_box(np.maximum(layers + 1, 6))
        shifts = t @ red.matrix.T
        lengths = np.linalg.norm(shifts, axis=1)
        for center in centers:
            x = shifts + center
            ball = np.einsum("ij,ij->i", x, x) <= r ** 2
            assert np.all(lengths[ball] <= (cutoff + cell) * (1.0 + slack))
            assert np.all(np.abs(t[ball]) <= layers)


def _boundary_points(n: int, rng) -> np.ndarray:
    """Reduced fractional points whose differences sit on the class
    boundaries 0, +-1/2 and +-1, and 1 ulp either side of them."""
    values = [0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
              np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
    grid = np.array(list(itertools.product(values, repeat=n)))
    return grid if n == 2 else grid[rng.choice(len(grid), 40, replace=False)]


@pytest.mark.parametrize("m", [np.eye(2), 0.7 * np.eye(2), HEX_2D, np.diag([1.0, 5.0]),
                               np.eye(3), 0.7 * np.eye(3), FCC, np.diag([1.0, 1.0, 6.0])],
                         ids=["square", "square-0.7", "hexagonal", "elongated-2d", "cubic",
                              "cubic-0.7", "fcc", "elongated-3d"])
def test_neighbor_classes_at_their_boundaries(m):
    # A reduced basis reduces to itself, so the points below are the
    # reduced coordinates the kernel classifies, bit for bit.
    b = mi.reduce(mi.validate_basis(m)).basis
    assert np.array_equal(mi.reduce(b).transform, np.eye(b.dim))
    rng = np.random.default_rng(51)
    ps = mi.PeriodicPointSet(b, _boundary_points(b.dim, rng))
    # Cutoffs on hit distances, and within 1e-12 of them: pairs on a class
    # corner with a hit on the cutoff come closest to the candidate bound.
    scale = abs(b.det) ** (1.0 / b.dim)
    dists = np.unique([h[3] for h in reference_neighbors(ps, 1.6 * scale)
                       if h[3] > 0.5 * scale])
    for d in dists[np.linspace(0, len(dists) - 1, 4).astype(int)]:
        for cutoff in (d, d * (1 - 1e-13), d * (1 + 1e-13)):
            assert mi.neighbors_within(ps, cutoff) == reference_neighbors(ps, cutoff)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [0.6, 0.7, 0.9, 1.3])
def test_neighbor_classes_on_their_candidate_bound(n, scale):
    # In a cubic cell the diameter runs along the diagonal.  The pairs here
    # differ by f = 0 or f = (1/2, ...), a corner of their class at
    # diameter / 4 from its center, and the cutoff is the distance of the
    # diagonal image t = (m, ...): |B (c_q + t)| = cutoff + diameter / 4
    # holds exactly, so rounding alone decides the bound without its slack.
    b = mi.validate_basis(scale * np.eye(n))
    ps = mi.PeriodicPointSet(b, [[0.0] * n, [0.5] * n])
    for m in (1.0, 1.5, 2.0, 2.5, 3.0):
        cutoff = float(np.linalg.norm(b.matrix @ np.full(n, m)))
        assert mi.neighbors_within(ps, cutoff) == reference_neighbors(ps, cutoff)


def test_neighbor_classes_reach_far_images(identity3):
    ps = mi.PeriodicPointSet(identity3, [[0.3, 0.6, 0.9]])
    hits = mi.neighbors_within(ps, 6.0)
    assert hits == reference_neighbors(ps, 6.0)
    assert len(hits) == 925 - 1


def test_neighbor_arrays_temporaries_stay_within_row_chunks():
    import tracemalloc

    rng = np.random.default_rng(52)
    b = random_cond_basis(rng, 3, 10.0)
    ps = mi.PeriodicPointSet(b, rng.random((400, 3)))
    cutoff = 0.1 * abs(b.det) ** (1.0 / 3)
    distance.neighbor_arrays(ps, cutoff)
    tracemalloc.start()
    try:
        out = distance.neighbor_arrays(ps, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 80,200 pairs: index arrays over all of them would take 5 x _CHUNK
    # entries per array.
    assert 0 < len(out[3]) < 1000
    assert peak - sum(x.nbytes for x in out) < 16 * distance._CHUNK * 8


def test_neighbor_arrays_are_the_list_in_columns():
    rng = np.random.default_rng(53)
    b = random_cond_basis(rng, 3, 30.0)
    ps = mi.PeriodicPointSet(b, rng.random((9, 3)))
    cutoff = 1.3 * abs(b.det) ** (1.0 / 3)
    i, j, img, d = distance.neighbor_arrays(ps, cutoff)
    assert img.shape == (len(i), 3) and i.dtype.kind == j.dtype.kind == img.dtype.kind == "i"
    assert list(zip(i.tolist(), j.tolist(), [LatticeVector(tuple(t)) for t in img.tolist()],
                    d.tolist())) == mi.neighbors_within(ps, cutoff)
    empty = distance.neighbor_arrays(ps, 1e-6)
    assert [x.shape for x in empty] == [(0,), (0,), (0, 3), (0,)]


# --- the neighbor arrays ------------------------------------------------------------


def reference_neighbor_arrays(ps, cutoff):
    """``reference_neighbors`` as arrays, one row at a time against every
    later point and every image t with |t_k| <= 1 + cutoff |row_k(B^-1)|,
    a bound every hit meets: f_k + t_k = row_k(B^-1) B (f + t), |f_k| <= 1."""
    red = mi.reduce(ps.basis)
    rm, u = red.basis.matrix, red.transform
    fred = ps.points @ unimodular_inverse(u).T
    w = np.floor(fred).astype(np.int64)
    cart = (fred - w) @ rm.T
    reach = cutoff * np.linalg.norm(red.basis.inv, axis=1) * (1 + 1e-6)
    t = int_box(np.floor(1 + reach))
    shifts = t @ rm.T
    parts = []
    for i in range(len(ps)):
        d = np.linalg.norm((cart[i:] - cart[i])[:, None, :] + shifts, axis=2)
        j, k = np.nonzero(d <= cutoff)
        keep = (j > 0) | t[k].any(axis=1)
        j, k = j[keep], k[keep]
        parts.append((np.full(len(j), i), i + j, (t[k] + w[i] - w[i + j]) @ u.T, d[j, k]))
    i, j, img, d = (np.concatenate(x) for x in zip(*parts))
    order = np.lexsort((*img.T[::-1], d, j, i))
    return i[order], j[order], img[order], d[order]


def assert_same_arrays(got, want):
    assert [x.dtype.kind for x in got] == ["i", "i", "i", "f"]
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def edge_points(rng, npts: int, n: int) -> np.ndarray:
    """Seeded points in [0, 1)^n, a quarter of them on multiples of 1/240,
    so that many differences are exactly 0 (a class edge) or a multiple of
    1/240 on some axis, and the last two repeating the first two."""
    pts = rng.random((npts, n))
    grid = rng.integers(0, 240, (npts // 4, n)) / 240
    pts[:len(grid)] = grid
    if npts > 4:
        pts[-2:] = pts[:2]  # duplicates of two grid points
    return pts


def neighbor_array_cases():
    """(reduced basis, N, cutoff in cell widths): the points of a reduced
    basis are its reduced coordinates, so class edges are hit exactly."""
    cases = []
    for name, m in (("cubic", np.eye(3)), ("fcc", FCC), ("square", np.eye(2)),
                    ("hexagonal", HEX_2D), ("elongated", np.diag([1.0, 1.0, 4.0]))):
        for npts, scales in ((1, (0.01, 1.0, 3.0)), (2, (0.01, 0.3, 3.0)),
                             (50, (0.01, 0.3, 1.0, 3.0)), (100, (0.05, 0.3, 1.0)),
                             (400, (0.01, 0.05, 0.3)),
                             (2000, (0.01, 0.05) if name in ("fcc", "hexagonal") else ())):
            for scale in scales:
                cases.append(pytest.param(m, npts, scale, id=f"{name}-{npts}-{scale}"))
    return cases


@pytest.mark.parametrize("m, npts, scale", neighbor_array_cases())
def test_neighbor_arrays_match_the_whole_block(m, npts, scale):
    b = mi.reduce(mi.validate_basis(m)).basis
    assert np.array_equal(mi.reduce(b).transform, np.eye(b.dim))
    rng = np.random.default_rng(npts)
    ps = mi.PeriodicPointSet(b, edge_points(rng, npts, b.dim))
    cutoff = scale * abs(b.det) ** (1.0 / b.dim)
    assert_same_arrays(distance.neighbor_arrays(ps, cutoff), reference_neighbor_arrays(ps, cutoff))


@pytest.mark.parametrize("n, cond", [(2, 30.0), (3, 30.0), (3, 300.0)])
def test_neighbor_arrays_in_skewed_frames(n, cond):
    rng = np.random.default_rng(57)
    for scale in (0.02, 0.1, 0.4):
        b = random_cond_basis(rng, n, cond)
        ps = mi.PeriodicPointSet(b, edge_points(rng, 300, n))
        cutoff = scale * abs(b.det) ** (1.0 / n)
        assert_same_arrays(distance.neighbor_arrays(ps, cutoff),
                           reference_neighbor_arrays(ps, cutoff))


@pytest.mark.parametrize("m", [np.eye(2), HEX_2D, np.eye(3), FCC], ids=["square", "hexagonal",
                                                                       "cubic", "fcc"])
def test_class_signs_at_their_boundaries(m):
    # A pair's class is the sign of its difference per axis: differences
    # of 0 and 1 ulp either side of it, and of +-1/2 and +-1, at small and
    # large cutoffs.
    b = mi.reduce(mi.validate_basis(m)).basis
    rng = np.random.default_rng(62)
    ps = mi.PeriodicPointSet(b, _boundary_points(b.dim, rng))
    scale = abs(b.det) ** (1.0 / b.dim)
    for cutoff in (0.1 * scale, 0.124 * scale, 0.6 * scale):
        assert_same_arrays(distance.neighbor_arrays(ps, cutoff),
                           reference_neighbor_arrays(ps, cutoff))


def test_one_row_past_the_chunk_in_one_class(monkeypatch):
    # 300 points within 0.01 of the origin, in increasing order on both
    # axes: each row is a range of its own against up to 299 points, all
    # in one class (f >= 0 on both axes), past _CHUNK = 64.
    monkeypatch.setattr(distance, "_CHUNK", 64)
    rng = np.random.default_rng(66)
    pts = np.sort(0.01 * rng.random((300, 2)), axis=0)
    ps = mi.PeriodicPointSet(mi.validate_basis(np.eye(2)), pts)
    assert_same_arrays(distance.neighbor_arrays(ps, 0.5), reference_neighbor_arrays(ps, 0.5))


@pytest.mark.parametrize("count, hits", [(1, 5), (7, 40), (300, 5000), (distance._CHUNK, 60000),
                                         (2 ** 16 + 5000, 90000)])
def test_hit_order_is_the_lexsort(count, hits):
    """Hits of one row range in (pair, distance, image key) order: the
    distances come from a few values, so d repeats within and across
    pairs and (pair, d) repeats with distinct keys; the last range is one
    row of more than 2**16 entries, whose pair index needs 32 bits."""
    rng = np.random.default_rng(count)
    pair = rng.integers(0, count, hits)
    pair[:2] = count - 1  # the largest index the range holds
    d = rng.choice([0.5, 1.0, 1.0 + 2.0 ** -52, 2.0], hits)
    key = rng.permutation(hits)  # distinct, as the images of one pair are
    # Within _CHUNK the pair index is sorted as uint8 or uint16, by radix.
    width = np.min_scalar_type(count).itemsize
    assert width == (1 if count < 256 else 2 if count <= distance._CHUNK else 4)
    got = distance._hit_order(pair, d, key, count)
    assert np.array_equal(got, np.lexsort((key, d, pair)))


# --- non-finite input ---------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_min_image_distance_rejects_non_finite_points(identity2, bad):
    with pytest.raises(ValueError, match="finite"):
        mi.min_image_distance(identity2, [bad, 0.1], [0.9, 0.1])
    with pytest.raises(ValueError, match="finite"):
        mi.min_image_distance(identity2, [0.1, 0.1], [0.9, -bad])


def test_min_image_distance_rejects_complex_points(identity2):
    # np.asarray(..., dtype=float) once answered for the real parts.
    z = np.array([0.1 + 5j, 0.2])
    with pytest.raises(ValueError, match="must be real"):
        mi.min_image_distance(identity2, z, [0.9, 0.1])
    with pytest.raises(ValueError, match="must be real"):
        mi.min_image_distance(identity2, [0.9, 0.1], z)


def test_point_set_rejects_complex_points(identity2):
    # np.asarray(..., dtype=float) once stored [[0.1, 0.2]].
    with pytest.raises(ValueError, match="must be real"):
        mi.PeriodicPointSet(identity2, np.array([[0.1 + 5j, 0.2]]))


def test_point_set_rejects_nan_points(identity2):
    with pytest.raises(ValueError, match="finite"):
        mi.PeriodicPointSet(identity2, [[0.1, 0.2], [math.nan, 0.4]])


def test_point_set_rejects_inf_points(identity2):
    # such a set once gave neighbors_within an empty list
    with pytest.raises(ValueError, match="finite"):
        mi.PeriodicPointSet(identity2, [[0.1, 0.2], [math.inf, 0.4]])


@pytest.mark.parametrize("cutoff", [math.inf, math.nan, -1.0])
def test_neighbors_rejects_non_finite_cutoff(identity2, cutoff):
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0]])
    with pytest.raises(ValueError, match="cutoff"):
        mi.neighbors_within(ps, cutoff)


@pytest.mark.parametrize("p1, p2", [
    ([0.1, 0.2], [0.3, 0.4, 0.5]),
    ([0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]]),
    ([0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0]),
])
def test_min_image_distance_rejects_points_of_the_wrong_length(identity3, p1, p2):
    with pytest.raises(ValueError, match="3 coordinates"):
        mi.min_image_distance(identity3, p1, p2)


def test_neighbors_cutoff_beyond_the_image_limit_allocates_nothing(identity3, monkeypatch):
    def no_box(layers):
        raise AssertionError(f"allocated a block of {layers} layers")

    monkeypatch.setattr(distance, "int_box", no_box)
    ps = mi.PeriodicPointSet(identity3, [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="lattice images"):
        mi.neighbors_within(ps, 1e4)


def test_neighbors_image_limit_boundary(identity2, monkeypatch):
    monkeypatch.setattr(distance, "_MAX_IMAGES", 25)
    ps = mi.PeriodicPointSet(identity2, [[0.0, 0.0]])
    # layers floor(1.8 + sqrt 2 / 4 + 3/4) = 2: a 5 x 5 block, at the limit
    assert len(mi.neighbors_within(ps, 1.8)) == 8
    # layers floor(1.9 + sqrt 2 / 4 + 3/4) = 3: 7 x 7 = 49 images
    with pytest.raises(ValueError, match="lattice images"):
        mi.neighbors_within(ps, 1.9)


def test_neighbors_huge_finite_cutoff_is_a_value_error():
    # The block's layer count once overflowed to inf and raised OverflowError.
    ps = mi.PeriodicPointSet(mi.validate_basis(0.5 * np.eye(2)), [[0.0, 0.0]])
    with pytest.raises(ValueError, match="lattice images"):
        mi.neighbors_within(ps, 1e308)
    # At the top of the scale window, a cutoff whose square overflows needs
    # far more images than the limit, so the limit fires before any squared
    # cutoff is formed.  Beyond the window, 0.5e154 * I at cutoff 1e155 once
    # passed the limit and raised OverflowError from the squared cutoff.
    top = mi.PeriodicPointSet(mi.validate_basis(np.ldexp(np.eye(2), mi.core.SCALE_EXP - 1)),
                              [[0.0, 0.0], [0.5, 0.5]])
    for cutoff in (1e155, 1e300):
        with pytest.raises(ValueError, match="lattice images"):
            mi.neighbor_arrays(top, cutoff)


# --- coordinates too large to floor exactly -----------------------------------


@pytest.mark.parametrize("big", [1e19, 1e300])
def test_min_image_distance_rejects_unfloorable_coordinates(identity2, big):
    # 1e19 once gave 2.7e19 with image (-2**63, -2**63); 1e300 gave inf
    with pytest.raises(ValueError, match="2\\*\\*53"):
        mi.min_image_distance(identity2, [big, big], [0.0, 0.0])


def test_min_image_distance_below_the_floor_bound(identity2):
    res = mi.min_image_distance(identity2, [1e15 + 0.25, 0.0], [0.0, 0.0])
    assert res.distance == 0.25
    assert res.image.coeffs == (10 ** 15, 0)


# --- the superbase descent against the block kernel ----------------------------


def block_scan(red, t, p1, p2):
    """Squared distances and caller-frame images over the block t of
    reduced-frame images, as min_image_distance computed them before the
    descent."""
    w1, d1 = distance._split_cells(red.inverse @ np.asarray(p1, dtype=float))
    w2, d2 = distance._split_cells(red.inverse @ np.asarray(p2, dtype=float))
    cart = ((d2 - d1)[None, :] + t) @ red.basis.matrix.T
    return np.einsum("ij,ij->i", cart, cart), (t + (w1 - w2)[None, :]) @ red.transform.T


def pick_image(dd, images):
    """The tie rule over a whole block: index and coefficients of the
    lexicographically least image within the tie window of the minimum."""
    tied = np.flatnonzero(dd <= float(dd.min()) * (1.0 + 2.0 * distance.TIE_REL))
    rows = images[tied].tolist()
    best = min(range(len(rows)), key=rows.__getitem__)
    return int(tied[best]), tuple(rows[best])


def block_min_image(red, t, p1, p2):
    """min_image_distance as it was before the descent: the whole block t,
    the same expression and the same tie rule."""
    dd, images = block_scan(red, t, p1, p2)
    k, img = pick_image(dd, images)
    return math.sqrt(dd[k]).hex(), img


def random_pairs(seed, n, count):
    rng = np.random.default_rng(seed)
    return [(rng.random(n), rng.random(n)) for _ in range(count)]


def assert_same_as_block(b, t, queries):
    """min_image_distance gives the block kernel's distance bits and image on
    every query; t is the block, or the search block of b when None."""
    red, block = distance._reduced_search_block(b) if t is None else (mi.reduce(b), t)
    for p1, p2 in queries:
        got = mi.min_image_distance(b, p1, p2)
        assert (got.distance.hex(), got.image.coeffs) == block_min_image(red, block, p1, p2), \
            (p1, p2)


def voronoi_types():
    """Every 2D and 3D Voronoi type of the type sweep, an obtuse tie-free
    lattice per dimension, and a lattice with no all-obtuse shortest basis."""
    rng = np.random.default_rng(54)
    types = dict(type_sweep.TYPES, **{"obtuse-2d": random_obtuse_2d(rng).matrix,
                                      "obtuse-3d": random_obtuse_3d(rng).matrix,
                                      "no-obtuse-shortest": NO_OBTUSE_SHORTEST_3D})
    return [pytest.param(m, id=name) for name, m in types.items()]


@pytest.mark.parametrize("m", voronoi_types())
def test_vertex_queries_tie_as_the_block_does(m):
    # p2 - p1 on a Voronoi vertex, where n + 1 or more images tie.  Where
    # the vertices have dyadic coordinates in the frame of m (square, cube,
    # FCC, BCC, BCT), they are rounded to them and the queries, mapped by
    # the integer inverse of U, are exact; elsewhere they lie within
    # rounding of the vertex, inside the tie window.
    n = len(m)
    verts = np.linalg.solve(m, mi.voronoi_cell(mi.validate_basis(m)).vertices.T).T
    dyadic = np.round(8 * verts) / 8
    if np.allclose(verts, dyadic, rtol=0, atol=1e-12):
        verts = dyadic
    rng = np.random.default_rng(55)
    for _ in range(40):
        u = random_unimodular(rng, n)
        b = mi.validate_basis(m @ u)
        f = verts @ unimodular_inverse(u).T
        zero = np.zeros(n)
        assert_same_as_block(b, None, [(zero, v) for v in f] + [(v, zero) for v in f])


def reference_bases():
    rng = np.random.default_rng(56)
    cases = [(f"{n}d-cond1e{k}-{i}", random_cond_basis(rng, n, 10.0 ** k))
             for n in (2, 3) for k in range(7) for i in range(3)]
    for p in voronoi_types():
        m = p.values[0]
        cases += [(f"{p.id}-{i}", mi.validate_basis(m @ random_unimodular(rng, len(m))))
                  for i in range(2)]
    cases += [("skewed-fcc-1e3", skewed_basis(rng, FCC, 1e3)),
              ("skewed-hexagonal-1e3", skewed_basis(rng, HEX_2D, 1e3))]
    return [pytest.param(b, id=name) for name, b in cases]


@pytest.mark.parametrize("b", reference_bases())
def test_descent_matches_the_block_kernel(b):
    assert_same_as_block(b, None, random_pairs(57, b.dim, 40))


def test_descent_matches_the_block_on_the_reduced_cell_needing_two_layers():
    # The criterion-6 witness: this reduced cell's block is 5 x 3 x 3, and
    # the pair below is one the 3^3 block gets wrong.
    b = mi.reduce(mi.validate_basis(REDUCED_BUT_H_ABOVE_1)).basis
    assert distance._reduced_search_block(b)[1].shape == (45, 3)
    p1, p2, gap = mi.oracle.minimality_witness(b, b, 0)
    assert gap > 1e-9
    assert_same_as_block(b, None, [(p1, p2), (p2, p1)] + random_pairs(58, 3, 200))


def test_descent_steps_stay_under_the_cap(monkeypatch):
    # Random pairs, and pairs whose reduced fractional difference is near a
    # corner of (-1, 1)^n, the farthest start, over cond 1 to 1e6.  A
    # query's step count is the least cap at which it does not raise.
    rng = np.random.default_rng(59)
    cap = distance._MAX_DESCENT

    def steps(b, p1, p2):
        for k in range(cap + 1):
            monkeypatch.setattr(distance, "_MAX_DESCENT", k)
            try:
                mi.min_image_distance(b, p1, p2)
                return k
            except mi.ReductionNonConvergence:
                pass
        raise AssertionError("the descent did not converge within the cap")

    most = Counter()
    for n in (2, 3):
        for k in range(7):
            for _ in range(10):
                b = random_cond_basis(rng, n, 10.0 ** k)
                u = mi.reduce(b).transform
                s = rng.choice([1e-9, 1 - 1e-9], n)
                queries = [(rng.random(n), rng.random(n)) for _ in range(4)]
                for p1, p2 in queries + [(u @ s, u @ (1 - s))]:
                    most[n] = max(most[n], steps(b, p1, p2))
    # 2 steps in 2D and 3 in 3D when this test was written, against a cap of 32.
    assert max(most.values()) < cap
    assert most == Counter({2: 2, 3: 3})


def test_descent_past_the_cap_is_a_domain_error(monkeypatch, capsys):
    b = mi.validate_basis(np.eye(2))
    # The reduced difference (0.8, 0.8) needs one step, to the image (-1, -1).
    assert mi.min_image_distance(b, [0.0, 0.0], [0.8, 0.8]).image.coeffs == (-1, -1)
    monkeypatch.setattr(distance, "_MAX_DESCENT", 0)
    with pytest.raises(mi.ReductionNonConvergence, match="descent"):
        mi.min_image_distance(b, [0.0, 0.0], [0.8, 0.8])
    assert cli.run(["dist", "--lattice", "identity2", "--p1", "0 0", "--p2", "0.8 0.8"]) == 1
    assert "descent did not converge in 0 steps" in capsys.readouterr().err


@pytest.mark.parametrize("c", [1e6, 1e8, 1e9, 1e10])
def test_elongated_cells_match_a_four_layer_block(c):
    # From c = 1e8 the snapped conorms make this cell's vertices, and so
    # its search block, wrong (CHANGES.md); the descent reads neither.  So
    # long a cell puts dozens of in-plane images within the tie window of
    # the minimum, and the scan and the block each report the least of
    # those they hold.  So the image must be one of the 4-layer block's
    # tied images, at the block's bits, and no farther than its pick.
    b = mi.cell_params_to_basis(1, 1.1, c, 90, 90, 95)
    red = mi.reduce(b)
    t = int_box((4, 4, 4))
    for p1, p2 in random_pairs(60, 3, 200):
        got = mi.min_image_distance(b, p1, p2)
        dd, images = block_scan(red, t, p1, p2)
        row = np.flatnonzero(np.all(images == got.image.coeffs, axis=1))
        assert len(row) == 1 and math.sqrt(dd[row[0]]) == got.distance
        assert dd[row[0]] <= dd.min() * (1 + 2 * distance.TIE_REL)
        assert dd[row[0]] <= dd[pick_image(dd, images)[0]]


@pytest.mark.parametrize("seed", [7, 20, 53, 69, 99, 156, 183])
def test_thin_cuboids_match_a_four_layer_block(seed):
    # 1 x 1 x 3e-5 cuboids at cond 1e7 to 8e7; on seeds 53, 69, 156 and
    # 183 the snap reads a zero conorm as an edge and relevant_vectors
    # reports 8 or 12 vectors instead of 6.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    b = mi.validate_basis(q @ np.diag([1.0, 1.0, 3e-5]) @ random_unimodular(rng, 3))
    assert 1e7 <= np.linalg.cond(b.matrix) <= 1e8
    assert_same_as_block(b, int_box((4, 4, 4)), random_pairs(61, 3, 200))
