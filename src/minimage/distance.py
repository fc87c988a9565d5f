"""Minimum-image distances, distance matrices, and cutoff neighbor lists.

Each call reduces the basis once, re-expresses the points there, and maps
the witness images back through the unimodular transform, so results are
stated in the caller's coordinates.

A single-pair distance needs the reduction alone.  ``reduce`` keeps an
obtuse superbase v_0..v_n, and every 2D and 3D lattice is of Voronoi's
first kind, so every Voronoi-relevant vector is one of the 2^(n+1) - 2
nonzero proper subset sums v_S (Conway & Sloane, Proc. R. Soc. A 436,
1992).  By Voronoi's criterion, t is a minimal image of the reduced
fractional difference y iff no relevant vector shortens B (y + t)
(McKilliam, Grant & Clarkson, SIAM J. Discrete Math. 28, 2014).  So from
t = 0 the descent steps by the subset sum that lowers |B (y + t)|^2 the
most, as long as one lowers it by more than ``TIE_REL``, relative.  Every
step lowers the norm over a discrete set of images, so the descent ends.
``_MAX_DESCENT`` caps it all the same, at 32 steps; seeded sweeps of
condition number 1 to 1e6 take at most 3.  Past the cap a call raises
``ReductionNonConvergence``.

The tie rule is the final scan: the images t + s, for s in the unit box
``int_box((1,) * n)`` or a subset sum.  Among those within ``TIE_REL`` of
the scan's minimum, the one with the lexicographically smallest
coefficient vector is reported.  Each squared distance is computed as the
whole-block search computed it, ``(y + t) @ B.T`` summed by ``einsum``,
so where both hold the minimal image they give the same bits.  The scan
holds every relevant vector, so its minimum is Voronoi's certificate.  It
is not proven to hold every image within the tie window.  Tests put
p2 - p1 exactly on the vertices of every Voronoi type, where n + 1 or
more images tie, and the scan reports the image the block did.  Within
rounding of an FCC vertex, tied images can lie outside the scan, as they
could outside the block.  Subset sums alone do not suffice: where a
conorm is zero, tied images can differ by a vector that is not one, such
as e1 - e2 in the square lattice.

The distance matrix searches the block of translates whose per-axis layer
counts come from the reach extents of the reduced cell, read from the
shared Voronoi build (``voronoi._prepare``).  For almost every lattice that
is the 3^n block; rare strongly anisotropic 3D lattices need an extra
layer on one axis.  The matrix kernel loops over the images of the block,
not over point pairs: for a range of rows it holds per-component
difference arrays (rows, N - start) and, per image, adds the shift,
squares and sums in place, keeping a running minimum.  It computes the
upper triangle and mirrors it, which is exact because the block is
symmetric.

The neighbor list evaluates only the (pair, image) candidates that can
hit, and needs the reduction alone, no Voronoi cell.  A pair's reduced
fractional difference f = fr_j - fr_i lies in [-1, 1]^n; its class
q = floor(2 f), per axis in {-2, -1, 0, 1}, spans f in [q, q + 1) / 2
around the center c_q = (q + 1/2) / 2.  So f - c_q lies in
[-1/4, 1/4]^n and |B (f - c_q)| <= diam / 4, where diam, the reduced
cell's diameter, is the longest |B x| over x in [-1, 1]^n.  A hit
|B (f + t)| <= cutoff then has |B (c_q + t)| <= cutoff + diam / 4 by the
triangle inequality, so the images outside the ball of radius
r = (cutoff + diam / 4)(1 + ``_PRUNE_SLACK``), the slack covering
rounding, are dropped for the whole class without losing a hit.  That
ball is the list's only bound.  Every entry of c_q is +-1/4 or +-3/4, so
an image t in it has |t_k| = |row_k(B^-1) B (c_q + t) - (c_q)_k|
<= r |row_k(B^-1)| + 3/4, and the search block is the balls' bounding
box.  Each class that occurs picks its candidates from it once per call.

Both kernels walk the upper triangle by one row schedule, ``_row_ranges``:
rows start <= i < stop against columns j >= start, max(1, _CHUNK //
(N - start)) rows at a time, so each temporary array holds at most
``_CHUNK`` entries per component, whatever N is.  Both sum the squares in
the order ``(x ** 2).sum(-1)`` uses, with the same differences and shifts,
so every result is bit-identical to the direct broadcast formula.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import dataclass

import numpy as np

from .core import _UNIT_BOX, Basis, LatticeVector, int_box, matvecs, wrap_frac
from .errors import ReductionNonConvergence
from . import copies, reduction, voronoi

# Images within this relative window of the minimum count as ties; the one
# with the lexicographically smallest coefficient vector is reported.  A
# descent step must lower the squared distance by more than this, relative.
TIE_REL = 1e-12
# Most steps the minimum-image descent may take (module docstring).
_MAX_DESCENT = 32
# Entries per row range of the pairwise and neighbor kernels.  Each of
# their temporary arrays holds at most this many floats, whatever N is.
_CHUNK = 1 << 14
# Most lattice images neighbor_arrays may search.  A cutoff that needs a
# larger block raises ValueError before anything is allocated.
_MAX_IMAGES = 1 << 22
# Relative slack on the image pruning bound of neighbor_arrays, far above
# the rounding in the computed center distances and diameter.
_PRUNE_SLACK = 1e-9
# Classes per unit of fractional difference in neighbor_arrays: a pair's
# difference f in [-1, 1] per axis falls in one of 2 * _SPLIT classes.
_SPLIT = 2


@dataclass(frozen=True, eq=False)
class PeriodicPointSet:
    """Points of the quotient torus, as wrapped fractional coordinates.

    ``labels``, when given, holds one string per point, in order; a single
    string, a set, a mapping or an item that is not a string raises
    ValueError.
    """

    basis: Basis
    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.basis.dim:
            raise ValueError(
                f"points must have shape (N, {self.basis.dim}), got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = wrap_frac(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            # A string is a sequence of strings too, but its characters are
            # not labels; a set has no order, and a mapping's keys are not
            # labels either.
            if isinstance(self.labels, (str, Set, Mapping)):
                raise ValueError("labels must be a sequence of strings, not "
                                 + type(self.labels).__name__)
            labels = tuple(self.labels)
            if not all(isinstance(x, str) for x in labels):
                raise ValueError("labels must be strings")
            labels = tuple(map(str, labels))
            if len(labels) != len(pts):
                raise ValueError("labels and points must have the same length")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DistanceResult:
    """A quotient distance together with the witnessing lattice translate."""

    distance: float
    image: LatticeVector


def _reduced_search_block(b: Basis) -> tuple[reduction.ReducedBasis, np.ndarray]:
    """Reduced basis plus the translate block that is exact for its cell,
    the block ``pairwise_distances`` searches."""
    p = voronoi._prepare(b)
    return p.red, int_box(copies.counts_from_extents(voronoi.frac_extents(p, p.red.basis)).layers)


def _split_cells(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer cell index and in-cell offset of reduced fractional
    coordinates; ValueError at 2**53 or above, where floor is inexact."""
    if not (np.abs(f) < 2.0 ** 53).all():
        raise ValueError("reduced fractional coordinates must be below 2**53 in magnitude")
    w = np.floor(f)
    return w.astype(np.int64), f - w


def _pick_image(dd: np.ndarray, images: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Index and coefficients of the minimal image, ties broken lexically."""
    tied = np.flatnonzero(dd <= float(dd.min()) * (1.0 + 2.0 * TIE_REL))
    rows = images[tied].tolist()
    best = min(range(len(rows)), key=rows.__getitem__)
    return int(tied[best]), tuple(rows[best])


def min_image_distance(b: Basis, p1, p2) -> DistanceResult:
    """Minimum-image distance between two fractional points.

    Arbitrary fractional inputs are accepted and wrapped internally.  The
    reported image t satisfies distance = |B (p2 + t - p1)|; it is found by
    the superbase descent of the module docstring, and among the images of
    its final scan within ``TIE_REL`` of the minimum the lexicographically
    smallest coefficient vector is reported.  Each point needs n
    coordinates.  A descent longer than ``_MAX_DESCENT`` steps raises
    ``ReductionNonConvergence``.
    """
    n = b.dim
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    if p1.shape != (n,) or p2.shape != (n,):
        raise ValueError(f"points must have {n} coordinates, got shapes "
                         f"{p1.shape} and {p2.shape}")
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        raise ValueError("points must be finite")
    red = reduction.reduce(b)
    rm = red.basis.matrix
    # Each point's reduced coordinates with the bits of red.inverse @ p.
    w, d = _split_cells(matvecs(red.inverse, (p1, p2)))
    y = d[1] - d[0]
    box = _UNIT_BOX[n]
    # The scan offsets: the unit box (its middle row is t itself), then the
    # nonzero proper subset sums of the obtuse superbase.
    offsets = np.concatenate((box, voronoi._TABLES[n][0] @ red.superbase.T))
    scan = offsets  # t + offsets, from t = 0
    for _ in range(_MAX_DESCENT + 1):
        cart = (y + scan) @ rm.T
        dd = np.einsum("ij,ij->i", cart, cart)
        k = len(box) + int(dd[len(box):].argmin())
        if not dd[k] < dd[len(box) // 2] * (1.0 - TIE_REL):
            break
        scan = scan[k] + offsets
    else:
        raise ReductionNonConvergence(
            f"minimum-image descent did not converge in {_MAX_DESCENT} steps")
    k, img = _pick_image(dd, (scan + (w[0] - w[1])) @ red.transform.T)
    return DistanceResult(distance=math.sqrt(dd[k]), image=LatticeVector(img))


def _row_ranges(npts: int):
    """Ranges (start, stop) of rows that, against the columns j >= start,
    cover the upper triangle of npts points, at most _CHUNK entries each."""
    start = 0
    while start < npts:
        stop = min(npts, start + max(1, _CHUNK // (npts - start)))
        yield start, stop
        start = stop


def _sq_norm(diff: np.ndarray, s: np.ndarray, out: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """out = |diff + s|^2, summing the squares in component order.

    That is the order ``(x ** 2).sum(axis=-1)`` and ``np.linalg.norm`` use
    on a length-n last axis, so the kernels reproduce their bits exactly.
    """
    np.add(diff[0], s[0], out=out)
    np.multiply(out, out, out=out)
    for c in range(1, len(s)):
        np.add(diff[c], s[c], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def pairwise_distances(ps: PeriodicPointSet) -> np.ndarray:
    """Symmetric matrix of quotient distances between all point pairs."""
    red, t = _reduced_search_block(ps.basis)
    rm = red.basis.matrix
    fr = wrap_frac(ps.points @ red.inverse.T)
    shifts = t @ rm.T
    npts = len(fr)
    out = np.empty((npts, npts))
    cart = fr @ rm.T
    for start, stop in _row_ranges(npts):
        # diff[c, a, b] = cart[start + b, c] - cart[start + a, c]
        diff = cart[start:].T[:, None, :] - cart[start:stop].T[:, :, None]
        sq = np.empty(diff.shape[1:])
        tmp = np.empty_like(sq)
        best = np.full_like(sq, np.inf)
        for s in shifts:
            np.minimum(best, _sq_norm(diff, s, sq, tmp), out=best)
        np.sqrt(best, out=best)
        out[start:stop, start:] = best
        # The block is symmetric (image -t next to t) and negating a
        # difference is exact, so the lower triangle mirrors the upper.
        out[stop:, start:stop] = best[:, stop - start:].T
    np.fill_diagonal(out, 0.0)
    return out


def neighbor_arrays(ps: PeriodicPointSet, cutoff: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All pairs (i <= j) and lattice images within the distance cutoff, as
    arrays ``(i, j, image, d)``: point indices, the K x n image coefficients
    in the caller's frame, and the distances d = |B (p_j + image - p_i)|.

    Self pairs i == j are included for every nonzero image (both signs);
    the zero image of a point with itself is not a neighbor.  Each pair
    evaluates only the images in the ball of its class, and the search
    block is the bounding box of the balls (see the module docstring); a
    cutoff whose block holds more than 2**22 images raises ValueError.
    Hits are sorted by (i, j, distance, image coefficients).
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError("cutoff must be positive and finite")
    red = reduction.reduce(ps.basis)
    rm = red.basis.matrix
    n = red.basis.dim
    w, fr = _split_cells(ps.points @ red.inverse.T)

    # Class q holds the pairs with f in [q, q + 1) / _SPLIT per axis, all
    # within diam / (2 _SPLIT) of the class center B c_q.
    grid = np.indices((2 * _SPLIT,) * n).reshape(n, -1).T
    centers = ((grid - _SPLIT + 0.5) / _SPLIT) @ rm.T
    r = (cutoff + red.basis.diameter() / (2 * _SPLIT)) * (1.0 + _PRUNE_SLACK)
    # The block is the bounding box of the class balls (module docstring).
    # Its size is a float, so a huge cutoff overflows to inf, not to an error.
    with np.errstate(over="ignore"):
        layers = np.floor(r * np.linalg.norm(red.basis.inv, axis=1) + (1 - 0.5 / _SPLIT))
        size = np.prod(2 * layers + 1)
    if size > _MAX_IMAGES:
        raise ValueError(f"cutoff {cutoff!r} needs a block of {size:.3g} lattice images, "
                         f"over the limit of {_MAX_IMAGES:,}")
    t = int_box(layers)
    shifts = t @ rm.T
    zero = len(t) // 2  # the middle row of the symmetric block
    # Caller-frame coefficients per block row.  The images of one pair
    # differ only in their row, so row keys order a pair's images.
    tu = t @ red.transform.T
    row_key = _image_keys(tu)
    # Per-component rows: numpy gathers 1-D arrays far faster than rows.
    shift_c, tu_c, wu_c = shifts.T.copy(), tu.T.copy(), (w @ red.transform.T).T.copy()

    cart_c = (fr @ rm.T).T.copy()
    npts = len(fr)
    out = []
    cands = {}  # per class that occurs: the block images within its ball
    for start, stop in _row_ranges(npts):
        # Of the (row, column) entries of the range, those with j >= i are pairs.
        i, j = np.nonzero(np.arange(start, npts) >= np.arange(start, stop)[:, None])
        i += start
        j += start
        # The class index of each pair, axis by axis.  fr lies in [0, 1]
        # (x - floor(x) rounds to 1.0 for tiny negative x), so f = 1 joins
        # the last class, which still holds it.
        code = np.zeros(len(i), dtype=np.intp)
        for f in fr.T:
            q = np.clip(np.floor(_SPLIT * (f[j] - f[i])), -_SPLIT, _SPLIT - 1)
            code = code * (2 * _SPLIT) + q.astype(np.intp) + _SPLIT
        by_class = np.argsort(code)
        bounds = np.searchsorted(code[by_class], np.arange(len(grid) + 1))
        found = []
        for c in np.flatnonzero(np.diff(bounds)):
            e = by_class[bounds[c]:bounds[c + 1]]
            if c not in cands:
                x = shifts + centers[c]
                cands[c] = np.flatnonzero(np.einsum("ij,ij->i", x, x) <= r ** 2)
            diff = [col[j[e]] - col[i[e]] for col in cart_c]
            found += _class_hits(diff, e, cands[c], shift_c, cutoff)
        if found:
            e, k, d = map(np.concatenate, zip(*found))
            keep = (k != zero) | (i[e] != j[e])
            e, k, d = e[keep], k[keep], d[keep]
            order = _hit_order(e, d, row_key[k])
            e, k, d = e[order], k[order], d[order]
            i_e, j_e = i[e], j[e]
            img = np.column_stack([a[k] + b[i_e] - b[j_e] for a, b in zip(tu_c, wu_c)])
            out.append((i_e, j_e, img, d))
    if not out:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty((0, n), np.int64), np.empty(0)
    return tuple(map(np.concatenate, zip(*out)))


def _class_hits(diff: list[np.ndarray], e: np.ndarray, cand: np.ndarray,
                shift_c: np.ndarray, cutoff: float
                ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(e, k, d) per block of candidates: the entries e whose differences
    ``diff`` (one array per component) lie within the cutoff after adding
    shift k, at that distance, with the squares summed as the whole-block
    formula sums them."""
    diff = [x[None, :] for x in diff]
    step = max(1, _CHUNK // len(e))
    found = []
    for k0 in range(0, len(cand), step):
        k = cand[k0:k0 + step]
        d = np.empty((len(k), len(e)))
        np.sqrt(_sq_norm(diff, [x[k][:, None] for x in shift_c], d, np.empty_like(d)), out=d)
        d = d.ravel()
        hit = np.flatnonzero(d <= cutoff)
        found.append((e[hit % len(e)], k[hit // len(e)], d[hit]))
    return found


def _image_keys(img: np.ndarray) -> np.ndarray:
    """One integer key per row of coefficients, ordered as the rows are
    as tuples."""
    # Per column: numpy reduces a narrow array along axis 0 slowly.
    lo = np.array([c.min() for c in img.T])
    dims = np.array([c.max() for c in img.T]) - lo + 1
    return np.ravel_multi_index((img - lo).T, dims)


def _hit_order(pair: np.ndarray, d: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((key, d, pair))``, from one float and one
    integer sort: pair then distance rank as one int64 key, then every run
    of equal (pair, d) put in key order.  pair indexes the entries of one
    row range, fewer than max(_CHUNK, N), and a range has at most
    _MAX_IMAGES hits per entry, so the key cannot overflow."""
    rank = np.empty(len(d), dtype=np.int64)
    rank[np.argsort(d)] = np.arange(len(d))
    order = np.argsort(pair * len(d) + rank)
    p, dd = pair[order], d[order]
    same = (p[1:] == p[:-1]) & (dd[1:] == dd[:-1])
    if same.any():
        run = np.concatenate(([0], np.cumsum(~same)))
        tied = np.flatnonzero(np.concatenate(([False], same)) | np.concatenate((same, [False])))
        sub = order[tied]
        order[tied] = sub[np.lexsort((key[sub], run[tied]))]
    return order


def neighbors_within(ps: PeriodicPointSet, cutoff: float
                     ) -> list[tuple[int, int, LatticeVector, float]]:
    """``neighbor_arrays`` as a list of (i, j, image, d) tuples, with one
    ``LatticeVector`` per distinct image."""
    i, j, img, d = neighbor_arrays(ps, cutoff)
    if not len(d):
        return []
    _, first, which = np.unique(_image_keys(img), return_index=True, return_inverse=True)
    vectors = np.empty(len(first), dtype=object)
    vectors[:] = [LatticeVector(tuple(row)) for row in img[first].tolist()]
    return list(zip(i.tolist(), j.tolist(), vectors[which].tolist(), d.tolist()))
