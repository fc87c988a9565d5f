"""Minimum-image distances, distance matrices, and cutoff neighbor lists.

Strategy: reduce the basis once per call, re-express the points there, and
minimize over the symmetric block of translates whose per-axis layer
counts come from the reach extents of the reduced cell.  The reduction and
the Voronoi vertices behind those extents come from one shared build
(``voronoi._prepare``), so no call reduces the basis twice.  For almost
every lattice the extents give one layer per axis, i.e. the familiar 3^n
block; rare strongly anisotropic 3D lattices need an extra layer on one
axis, and sizing the block from the extents keeps the result exact there
too.  The witness image is mapped back through the unimodular transform so
results are stated in the caller's coordinates.

The many-point kernels loop over the images of the block, not over point
pairs.  For a chunk of rows they hold per-component difference arrays
(rows, N) and, per image, add the shift, square and sum in place; the
matrix keeps a running minimum, the neighbor list keeps the entries within
the cutoff.  The squares are summed in the order ``(x ** 2).sum(-1)`` uses,
so the results are bit-identical to the direct broadcast formula.  The
matrix computes the upper triangle and mirrors it, which is exact because
the block is symmetric.  The neighbor list skips every image with
|s| > cutoff + diameter of the reduced cell, since no difference of two
points in that cell is longer than its diameter.  Rows are chunked so each
temporary array holds at most ``_CHUNK`` entries, whatever N is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Basis, LatticeVector, int_box, unimodular_inverse, wrap_frac
from . import copies, reduction, voronoi

# Images within this relative window of the minimum count as ties; the one
# with the lexicographically smallest coefficient vector is reported.
TIE_REL = 1e-12
# Entries per row chunk of the pairwise and neighbor kernels.  Each of
# their temporary arrays holds at most this many floats, whatever N is.
_CHUNK = 1 << 14
# Most lattice images neighbors_within may search.  A cutoff that needs a
# larger block raises ValueError before anything is allocated.
_MAX_IMAGES = 1 << 22
# Relative slack on the image pruning bound of neighbors_within, far above
# the rounding in the computed shift lengths and cell diameter.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class PeriodicPointSet:
    """Points of the quotient torus, as wrapped fractional coordinates."""

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
            labels = tuple(str(x) for x in self.labels)
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
    """Reduced basis plus the translate block that is exact for its cell."""
    p = voronoi._prepare(b)
    h = voronoi.frac_extents(p, p.red.basis)
    return p.red, int_box([copies.ceil_snapped(float(x)) for x in h])


def _split_cells(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer cell index and in-cell offset of reduced fractional
    coordinates; ValueError at 2**53 or above, where floor is inexact."""
    if not np.all(np.abs(f) < 2.0 ** 53):
        raise ValueError("reduced fractional coordinates must be below 2**53 in magnitude")
    w = np.floor(f)
    return w.astype(np.int64), f - w


def _pick_image(dd: np.ndarray, images: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Index and coefficients of the minimal image, ties broken lexically."""
    dmin = float(dd.min())
    window = dmin * (1.0 + 2.0 * TIE_REL)
    tied = np.flatnonzero(dd <= window)
    best = min(tied, key=lambda t: tuple(images[t]))
    return int(best), tuple(int(x) for x in images[best])


def min_image_distance(b: Basis, p1, p2) -> DistanceResult:
    """Exact quotient distance between two fractional points.

    Arbitrary fractional inputs are accepted and wrapped internally.  The
    reported image t satisfies distance = |B (p2 + t - p1)| and is minimal
    over the searched block; exact ties return the lexicographically
    smallest coefficient vector.  Each point needs n coordinates.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != (b.dim,) or p2.shape != (b.dim,):
        raise ValueError(f"points must have {b.dim} coordinates, got shapes "
                         f"{p1.shape} and {p2.shape}")
    if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
        raise ValueError("points must be finite")
    red, t = _reduced_search_block(b)
    rm = red.basis.matrix
    u = red.transform
    uinv = unimodular_inverse(u)
    w1, d1 = _split_cells(uinv @ p1)
    w2, d2 = _split_cells(uinv @ p2)
    disp = (d2 - d1)[None, :] + t
    dd = np.einsum("ij,ij->i", disp @ rm.T, disp @ rm.T)
    images = (t + (w1 - w2)[None, :]) @ u.T
    k, img = _pick_image(dd, images)
    return DistanceResult(distance=float(math.sqrt(dd[k])), image=LatticeVector(img))


def _row_chunks(cart: np.ndarray):
    """Row chunks of the upper block of all point differences.

    Yields (start, stop, diff) with diff[c, a, b] = cart[start + b, c] -
    cart[start + a, c] for the rows start <= start + a < stop and the
    columns start <= start + b < N.  Each chunk holds at most _CHUNK
    (row, column) entries per component.
    """
    npts = len(cart)
    rows = max(1, _CHUNK // max(1, npts))
    for start in range(0, npts, rows):
        stop = min(npts, start + rows)
        yield start, stop, cart[start:].T[:, None, :] - cart[start:stop].T[:, :, None]


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
    uinv = unimodular_inverse(red.transform)
    fr = wrap_frac(ps.points @ uinv.T)
    shifts = t @ rm.T
    npts = len(fr)
    out = np.empty((npts, npts))
    cart = fr @ rm.T
    for start, stop, diff in _row_chunks(cart):
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


def neighbors_within(ps: PeriodicPointSet, cutoff: float
                     ) -> list[tuple[int, int, LatticeVector, float]]:
    """All pairs (i <= j) and lattice images within the distance cutoff.

    Self pairs i == j are included for every nonzero image (both signs);
    the zero image of a point with itself is not a neighbor.  The search
    block is sized so no image within the cutoff can be missed:
    layers_k = ceil((cutoff + diam V) / width_k) with width_k the slab
    width of the reduced cell along dual axis k; a cutoff whose block holds
    more than 2**22 images raises ValueError.  Hits are sorted by
    (i, j, distance, image coefficients).
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError("cutoff must be positive and finite")
    p = voronoi._prepare(ps.basis)
    red = p.red
    rm = red.basis.matrix
    u = red.transform
    uinv = unimodular_inverse(u)
    w, fr = _split_cells(ps.points @ uinv.T)

    diam = 2.0 * float(np.linalg.norm(p.vertices, axis=1).max())
    widths = 1.0 / np.linalg.norm(red.basis.inv, axis=1)
    layers = [math.ceil((cutoff + diam) / wd) for wd in widths]
    if math.prod(2 * m + 1 for m in layers) > _MAX_IMAGES:
        raise ValueError(f"cutoff {cutoff!r} needs a block of {layers} layers, over "
                         f"the limit of {_MAX_IMAGES:,} lattice images")
    t = int_box(layers)
    shifts = t @ rm.T
    # A difference of two points of the reduced cell is no longer than its
    # diameter, so an image with |s| > cutoff + diameter holds no hit.
    reach = (cutoff + red.basis.diameter()) * (1.0 + _PRUNE_SLACK)
    kept = np.flatnonzero(np.linalg.norm(shifts, axis=1) <= reach)

    cart = fr @ rm.T
    found_i, found_j, found_k, found_d = [], [], [], []
    for start, stop, diff in _row_chunks(cart):
        d = np.empty(diff.shape[1:])
        tmp = np.empty_like(d)
        hit = np.empty(d.shape, dtype=bool)
        cols = np.arange(d.shape[1])
        upper = cols >= np.arange(d.shape[0])[:, None]
        strict = cols > np.arange(d.shape[0])[:, None]
        for k in kept:
            np.sqrt(_sq_norm(diff, shifts[k], d, tmp), out=d)
            np.less_equal(d, cutoff, out=hit)
            hit &= upper if t[k].any() else strict
            a, b = np.nonzero(hit)
            found_i.append(a + start)
            found_j.append(b + start)
            found_k.append(np.full(len(a), k))
            found_d.append(d[a, b])
    if not any(len(x) for x in found_d):
        return []
    i = np.concatenate(found_i)
    j = np.concatenate(found_j)
    dist = np.concatenate(found_d)
    img = (t[np.concatenate(found_k)] + w[i] - w[j]) @ u.T
    # One integer key per image, ordered as the coefficient tuples are.
    lo = img.min(axis=0)
    key = np.ravel_multi_index((img - lo).T, img.max(axis=0) - lo + 1)
    order = np.lexsort((key, dist, i * len(cart) + j))
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    vectors = [LatticeVector(tuple(row)) for row in img[first].tolist()]
    return list(zip(i[order].tolist(), j[order].tolist(),
                    [vectors[x] for x in which[order].tolist()],
                    dist[order].tolist()))
