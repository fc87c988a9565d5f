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
layer on one axis.  The block is exact for every difference f in
[-1, 1]^n, the whole cell, but a pair needs only the images that can
reach its own f.  So the kernel sorts the points once, stably, into bins
by floor(k fr) per axis, fr the reduced fractional coordinates in
[0, 1).  For i in bin a and j in bin c, f = fr_j - fr_i lies in the box
[d - 1, d + 1] / k per axis, d = c - a, and the pair searches only the
candidates of d: the block rows t that no facet normal r of the build
separates from B (box + t) by more than delta, tested on the box's
extreme point along r.  Each of the (2k - 1)^n differences picks its
candidates once per call.  On skewed FCC cells with k = 2 a bin pair
searches 16.1 of the 27 images on average, and on hexagonal ones 6.25 of
9.

No minimum is lost.  Suppose facet r is violated by more than delta over
the whole box: 2 x . r - |r|^2 > 2 delta for every x = B (f + t).  Then
|x|^2 - |x - r|^2 = 2 x . r - |r|^2 > 2 delta, and x - r is an image of
the same pair, so the true minimum is below |x|^2 - 2 delta.  The true
minimum's image lies in the block, and no facet separates it, since
2 x . r <= |r|^2 for every r where f + t is in V, ties included; so it
is kept.  Each computed |x|^2 is within a rounding error eps of the exact
one, of a few tens of units in the last place of R^2, where R, the
longest shift |B t| plus the reduced cell's diameter, bounds |B (f + t)|
over the block and box.  With delta = ``_PRUNE_SLACK`` R^2 far above eps,
every dropped image computes above the kept minimum's computed value,
and the minimum over the candidates has the bits of the minimum over the
block.  (The proof takes the block to hold the true minimum, as its
extents promise; ``copies.TOL_SNAP`` decides the layers.)

The kernel takes k = ``_BINS`` = 2 when each bin would average at least
``_BIN_MIN`` = 64 points (N >= 512 in 3D, N >= 256 in 2D), and k = 1
below.  One bin searches the whole block and walks one triangle, by the
row schedule below; its box [-1, 1]^n holds -t for every t of the 3^n
block, so no facet test could drop a row of it anyway.  Timed on
skewed FCC and hexagonal cells, 2 bins first beat one near 40-56 points
per bin in 3D and 48-80 in 2D; 64 keeps one bin wherever the two are
within the noise.  Per bin pair the kernel loops over the candidate
images, not over point pairs: for a range of rows it holds per-component
difference arrays against the pair's columns and, per image, adds the
shift, squares and sums in place, keeping a running minimum.  Each block
writes itself and its transpose straight into the matrix through the
sort permutation, which is exact because the block is symmetric; with
one bin the permutation is the identity, and the writes are plain slices.

The neighbor list evaluates only the (pair, image) candidates that can
hit, and needs the reduction alone, no Voronoi cell.  A pair's reduced
fractional difference f = fr_j - fr_i lies in [-1, 1]^n, and a hit
x = B (f + t), |x| <= cutoff, has |v . x| <= |v| cutoff for every vector
v.

The search block: around the centers c_q = (q + 1/2) / 2 of the boxes
q = floor(2 f), every f lies within diam / 4 of its center, diam being
the reduced cell's diameter (the longest |B x| over x in [-1, 1]^n), so
a hit has |B (c_q + t)| <= r = (cutoff + diam / 4)(1 +
``_PRUNE_SLACK``).  Every entry of c_q is +-1/4 or +-3/4, so such a t has
|t_k| <= r |row_k(B^-1)| + 3/4, and the block is that box.

The class rule.  A pair's class holds the sign of f per axis: f in
[0, 1] or in [-1, 0), the box mid -+ 1/2 with mid = +-1/2.  Its
candidates are the block images t with |g . (mid + t)| <= |v| cutoff +
|g| . (1/2, ..., 1/2) for every direction v among the rows of B^-1 and
the subset sums of the obtuse superbase, where g = B^T v and |g| is
taken per component.  Each class that occurs picks its candidates once
per call.  Four classes per axis, floor(2 f), cut the candidates but not
the time: timed on a skewed FCC cell, 200 points at cutoff 1.06 ran
within 1 % of two classes and 100 points at cutoff 0.5 1.3-1.4x slower.

No hit is lost.  For a hit, v . x = g . (f + t) = g . (mid + t) +
g . (f - mid), and the last term is at most |g| . (1/2, ..., 1/2) as f
lies in the box; so t passes the bound, and it lies in the block, as
shown above.  Computed values carry rounding of a few ulps of cutoff +
2 diam, and every bound adds ``_PRUNE_SLACK`` (cutoff + diam) to the
cutoff and a further factor 1 + ``_PRUNE_SLACK``, far above it.

Each class evaluates its candidates in a few array calls: the pairs of
a row range are sorted by class once, their differences computed once
and sliced per class, the candidate shift columns kept per class for the
call, and the hits of many classes found in one pass over a buffer of
their squared distances.  Hits are ordered per row range and written
into arrays sized from the ranges' counts.

Both kernels bound their temporaries by ``_row_ranges``: rows
start <= i < stop against columns j >= start, max(1, _CHUNK //
(N - start)) rows at a time.  The neighbor list walks the upper triangle
of all points by it and buffers 2 ``_CHUNK`` distances (or twice the
pairs of a one-row range that holds more); the matrix walks each bin's
own triangle, while an off-diagonal bin pair takes max(1, _CHUNK // |c|)
rows of bin a at a time against all of bin c.  So each temporary array holds
at most a few ``_CHUNK`` entries per component, whatever N is.  Both sum
the squares in the order ``(x ** 2).sum(-1)`` uses, with the same
differences and shifts, so every result is bit-identical to the direct
broadcast formula.
"""

from __future__ import annotations

import itertools
import math
import operator
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
# Per dimension, the unit box as float64.
_UNIT_BOX_F = {n: box.astype(float) for n, box in _UNIT_BOX.items()}
# Entries per row range of the pairwise and neighbor kernels.  Each of
# their temporary arrays holds at most this many floats, whatever N is.
_CHUNK = 1 << 14
# Most lattice images neighbor_arrays may search.  A cutoff that needs a
# larger block raises ValueError before anything is allocated.
_MAX_IMAGES = 1 << 22
# Relative slack on the image pruning bounds of neighbor_arrays and
# pairwise_distances, far above the rounding in the values they bound.
_PRUNE_SLACK = 1e-9
# Bins per axis of pairwise_distances, taken when each bin would average at
# least _BIN_MIN points; fewer points take one bin (module docstring).
_BINS = 2
_BIN_MIN = 64
# The search block of neighbor_arrays is the bounding box of the balls
# around the centers of 2 * _SPLIT boxes of difference per axis.
_SPLIT = 2


@dataclass(frozen=True, eq=False)
class PeriodicPointSet:
    """Points of the quotient torus, as wrapped fractional coordinates.

    ``labels``, when given, holds one string per point, in order; a single
    string, a set, a mapping or an item that is not a string raises
    ValueError, as do complex points.
    """

    basis: Basis
    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if np.iscomplexobj(self.points):
            raise ValueError("points must be real")
        given = np.asarray(self.points, dtype=float)
        pts = np.atleast_2d(given)
        if pts.ndim != 2 or pts.shape[1] != self.basis.dim:
            raise ValueError(
                f"points must have shape (N, {self.basis.dim}), got {given.shape}"
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


_FLOOR_BOUND = "reduced fractional coordinates must be below 2**53 in magnitude"


def _split_cells(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer cell index and in-cell offset of reduced fractional
    coordinates; ValueError at 2**53 or above, where floor is inexact."""
    if not (np.abs(f) < 2.0 ** 53).all():
        raise ValueError(_FLOOR_BOUND)
    w = np.floor(f)
    return w.astype(np.int64), f - w


def _least_image(dd: np.ndarray, scan: np.ndarray, shift: list,
                 transform: np.ndarray) -> tuple[int, list[int]]:
    """Index and caller-frame coefficients of the minimal image of a scan,
    ties broken lexically: of the rows s within the tie window of the
    least squared distance, the least U (s + shift).  Only those rows are
    mapped, in exact integer arithmetic."""
    d = dd.tolist()
    window = min(d) * (1.0 + 2.0 * TIE_REL)
    u = transform.tolist()
    best = None
    for i, x in enumerate(d):
        if x <= window:
            t = [int(c) + s for c, s in zip(scan[i].tolist(), shift)]
            img = [sum(map(operator.mul, row, t)) for row in u]
            if best is None or img < best[1]:
                best = i, img
    return best


def min_image_distance(b: Basis, p1, p2) -> DistanceResult:
    """Minimum-image distance between two fractional points.

    Arbitrary fractional inputs are accepted and wrapped internally.  The
    reported image t satisfies distance = |B (p2 + t - p1)|; it is found by
    the superbase descent of the module docstring, and among the images of
    its final scan within ``TIE_REL`` of the minimum the lexicographically
    smallest coefficient vector is reported.  Each point needs n real,
    finite coordinates; others raise ValueError.  A descent longer than
    ``_MAX_DESCENT`` steps raises ``ReductionNonConvergence``.
    """
    n = b.dim
    if np.iscomplexobj(p1) or np.iscomplexobj(p2):
        raise ValueError("points must be real")
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    if p1.shape != (n,) or p2.shape != (n,):
        raise ValueError(f"points must have {n} coordinates, got shapes "
                         f"{p1.shape} and {p2.shape}")
    if not all(map(math.isfinite, p1.tolist() + p2.tolist())):
        raise ValueError("points must be finite")
    red = reduction.reduce(b)
    rm = red.basis.matrix
    # Each point's reduced coordinates with the bits of red.inverse @ p,
    # split into cell and offset as _split_cells splits them: a float minus
    # its floor, an integer below 2**53, is the same IEEE subtraction in
    # Python as in numpy.  Only the sign of a zero in y can differ, and
    # y + scan adds it to the float of an integer, which gives the same bits.
    f1, f2 = matvecs(red.inverse, (p1, p2)).tolist()
    if not all(abs(x) < 2.0 ** 53 for x in f1 + f2):
        raise ValueError(_FLOOR_BOUND)
    c1, c2 = list(map(math.floor, f1)), list(map(math.floor, f2))
    y = np.array([(x2 - k2) - (x1 - k1) for x1, k1, x2, k2 in zip(f1, c1, f2, c2)])
    box = _UNIT_BOX_F[n]
    # The scan offsets, float64 integers so that y + scan casts nothing: the
    # unit box (its middle row is t itself), then the nonzero proper subset
    # sums of the obtuse superbase.
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
    k, img = _least_image(dd, scan, [a - b for a, b in zip(c1, c2)], red.transform)
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


def _bin_candidates(normals: np.ndarray, rm: np.ndarray, shifts: np.ndarray,
                    diameter: float, k: int) -> list[np.ndarray]:
    """Per difference d of bin coordinates, d in {1 - k, ..., k - 1}^n in
    ``int_box`` order, the rows of the block that no facet normal r of the
    cell separates from B (box_d + t) by more than the slack, with box_d =
    [d - 1, d + 1] / k (module docstring)."""
    g = normals @ rm  # x . r = f . g + (B t) . r for x = B (f + t)
    over = shifts @ normals.T - 0.5 * np.einsum("ij,ij->i", normals, normals)
    d = int_box((k - 1,) * rm.shape[0])[:, None]
    low = np.minimum((d - 1) * g, (d + 1) * g).sum(axis=2) / k  # min over box_d of f . g
    reach = math.sqrt(float(np.einsum("ij,ij->i", shifts, shifts).max())) + diameter
    keep = (over + low[:, None] <= _PRUNE_SLACK * reach ** 2).all(axis=2)
    return [np.flatnonzero(row) for row in keep]


def pairwise_distances(ps: PeriodicPointSet) -> np.ndarray:
    """Symmetric matrix of quotient distances between all point pairs."""
    red, t = _reduced_search_block(ps.basis)
    rm = red.basis.matrix
    fr = wrap_frac(ps.points @ red.inverse.T)
    shifts = t @ rm.T
    npts, n = fr.shape
    out = np.empty((npts, npts))
    # Sort the points stably by bin, floor(k fr) per axis (fr lies in
    # [0, 1)): bin b holds the sorted rows bounds[b]:bounds[b + 1].
    k = _BINS if npts >= _BIN_MIN * _BINS ** n else 1
    code = np.ravel_multi_index(np.floor(k * fr).astype(np.intp).T, (k,) * n)
    order = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[order], np.arange(k ** n + 1)).tolist()
    cart = (fr @ rm.T)[order].T.copy()
    # One bin searches the whole block.
    kept = (_bin_candidates(voronoi._prepare(ps.basis).normals, rm, shifts,
                            red.basis.diameter(), k) if k > 1 else [slice(None)])
    cands = [shifts[c].tolist() for c in kept]
    # which[a, c]: the candidates of bin pair (a, c), by its coordinate difference.
    grid = np.indices((k,) * n).reshape(n, -1)
    which = np.ravel_multi_index(grid[:, None] - grid[:, :, None] + k - 1, (2 * k - 1,) * n)
    for a, c in itertools.combinations_with_replacement(range(k ** n), 2):
        i0, i1, j0, j1 = bounds[a], bounds[a + 1], bounds[c], bounds[c + 1]
        if i0 == i1 or j0 == j1:
            continue
        if a == c:
            # Within a bin, the upper triangle by the row schedule.
            blocks = [(i0 + i, i0 + j, i0 + i) for i, j in _row_ranges(i1 - i0)]
        else:
            step = max(1, _CHUNK // (j1 - j0))
            blocks = [(i, min(i + step, i1), j0) for i in range(i0, i1, step)]
        s = cands[which[a, c]]
        for r0, r1, c0 in blocks:
            # diff[:, i, j] = cart[:, c0 + j] - cart[:, r0 + i]
            diff = cart[:, None, c0:j1] - cart[:, r0:r1, None]
            best, sq, tmp = (np.empty(diff.shape[1:]) for _ in range(3))
            _sq_norm(diff, s[0], best, tmp)
            for v in s[1:]:
                np.minimum(best, _sq_norm(diff, v, sq, tmp), out=best)
            np.sqrt(best, out=best)
            # The block is symmetric (image -t next to t) and negating a
            # difference is exact, so each entry's transpose has its bits.
            skip = r1 - r0 if a == c else 0
            if k == 1:  # the sort permutation is the identity
                out[r0:r1, c0:j1] = best
                out[c0 + skip:j1, r0:r1] = best[:, skip:].T
            else:
                rows, cols = order[r0:r1], order[c0:j1]
                out[rows[:, None], cols] = best
                out[cols[skip:, None], rows] = best[:, skip:].T
    np.fill_diagonal(out, 0.0)
    return out


def neighbor_arrays(ps: PeriodicPointSet, cutoff: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All pairs (i <= j) and lattice images within the distance cutoff, as
    arrays ``(i, j, image, d)``: point indices, the K x n image coefficients
    in the caller's frame, and the distances d = |B (p_j + image - p_i)|.

    Self pairs i == j are included for every nonzero image (both signs);
    the zero image of a point with itself is not a neighbor.  Each pair
    evaluates only the candidate images of its class (see the module
    docstring); a cutoff whose search block holds more than 2**22 images
    raises ValueError.
    Hits are sorted by (i, j, distance, image coefficients).
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError("cutoff must be positive and finite")
    red = reduction.reduce(ps.basis)
    rm = red.basis.matrix
    n = red.basis.dim
    w, fr = _split_cells(ps.points @ red.inverse.T)
    diam = red.basis.diameter()
    inv_norms = np.linalg.norm(red.basis.inv, axis=1)  # |row_k(B^-1)|

    r = (cutoff + diam / (2 * _SPLIT)) * (1.0 + _PRUNE_SLACK)
    # The block is the bounding box of the balls (module docstring).  Its
    # size is a float, so a huge cutoff overflows to inf, not to an error.
    with np.errstate(over="ignore"):
        layers = np.floor(r * inv_norms + (1 - 0.5 / _SPLIT))
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
    cart_c, fr_c = (fr @ rm.T).T.copy(), fr.T.copy()
    npts = len(fr)

    # A hit has |v . B (f + t)| <= |v| cutoff for every vector v.  The
    # directions v are the rows of B^-1, which bound |f_a + t_a|, and the
    # subset sums of the obtuse superbase; g = B^T v gives v . B (f + t) =
    # g . (f + t).  The slack covers rounding.
    padded = (cutoff + _PRUNE_SLACK * (cutoff + diam)) * (1.0 + _PRUNE_SLACK)
    sums = voronoi._TABLES[n][0] @ red.superbase.T
    g = np.vstack((np.eye(n), sums @ (rm.T @ rm)))
    bound = padded * np.append(inv_norms, np.linalg.norm(sums @ rm.T, axis=1))
    # Per axis, a pair's class bit u = (f >= 0) puts f in the box
    # mid -+ 1/2, mid = u - 1/2; so |g . (mid + t)| <= |v| cutoff + |g| . 1/2.
    bound = bound + 0.5 * np.abs(g).sum(axis=1)
    gt = t @ g.T
    cands = {}  # per class that occurs: its candidate rows and their shift columns
    parts = []
    for start, stop in _row_ranges(npts):
        # Of the (row, column) entries of the range, those with j >= i are pairs.
        i, j = np.nonzero(np.arange(start, npts) >= np.arange(start, stop)[:, None])
        i += start
        j += start
        code = np.zeros(len(i), dtype=np.intp)
        for f in fr_c:
            code = 2 * code + (f[j] >= f[i])
        by_class = np.argsort(code)
        code = code[by_class]
        starts = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1]))).tolist()
        classes = code[starts].tolist()
        new = [c for c in classes if c not in cands]
        if new:
            mid = np.array(np.unravel_index(new, (2,) * n)).T - 0.5
            for c, row in zip(new, (np.abs(gt + (mid @ g.T)[:, None]) <= bound).all(axis=2)):
                k = np.flatnonzero(row)
                cands[c] = k, shift_c[:, k, None]
        ii, jj = i[by_class], j[by_class]
        diff = np.empty((n, len(ii)))
        for a, col in enumerate(cart_c):
            np.subtract(col[jj], col[ii], out=diff[a])
        e, k, d = _class_hits(diff, [(b0, b1, *cands[c]) for c, b0, b1 in
                                     zip(classes, starts, starts[1:] + [len(code)])], cutoff)
        e = by_class[e]
        keep = (k != zero) | (i[e] != j[e])
        e, k, d = e[keep], k[keep], d[keep]
        order = _hit_order(e, d, row_key[k], len(i))
        e, k, d = e[order], k[order], d[order]
        parts.append((i[e], j[e], k, d))
    # Hits in order, written into arrays sized from the ranges' counts.
    total = sum(len(part[3]) for part in parts)
    out_i, out_j = np.empty(total, np.intp), np.empty(total, np.intp)
    img, dist = np.empty((total, n), np.int64), np.empty(total)
    at = 0
    for i, j, k, d in parts:
        hits = slice(at, at + len(d))
        out_i[hits], out_j[hits], dist[hits] = i, j, d
        for c, (a, b) in enumerate(zip(tu_c, wu_c)):
            img[hits, c] = a[k] + b[i] - b[j]
        at += len(d)
    return out_i, out_j, img, dist


def _class_hits(diff: np.ndarray, blocks: list, cutoff: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, k, d): the entries e whose differences ``diff`` (n x entries) lie
    within the cutoff after adding shift k, at that distance.

    ``blocks`` holds per class its entries b0:b1, its candidate rows and
    their shift columns (n x K x 1).  Each class adds its shifts to its
    entries, squares and sums over the components, in three array calls
    into one buffer; the hits of the whole buffer are then found at once.
    The squares are summed in component order, as ``(x ** 2).sum(-1)``
    sums them."""
    n = len(diff)
    most = max([_CHUNK] + [b1 - b0 for b0, b1, _, _ in blocks])  # one row may pass _CHUNK
    tmp, sq = np.empty(n * most), np.empty(2 * most)
    found, pending, fill = [], [], 0  # pending: (offset in sq, b0, entries, rows)

    def flush():
        d = np.sqrt(sq[:fill], out=sq[:fill])
        hit = np.flatnonzero(d <= cutoff)
        off, b0, m, rows = zip(*pending)
        which = np.searchsorted(off, hit, "right") - 1
        at = hit - np.array(off)[which]
        m = np.array(m)[which]
        first = np.cumsum([0] + [len(x) for x in rows[:-1]])[which]
        found.append((np.array(b0)[which] + at % m, np.concatenate(rows)[first + at // m],
                      d[hit]))

    for b0, b1, cand, cols in blocks:
        m = b1 - b0
        step = max(1, _CHUNK // m)
        for k0 in range(0, len(cand), step):
            kc = min(step, len(cand) - k0)
            if fill + kc * m > len(sq):
                flush()
                pending, fill = [], 0
            x = tmp[:n * kc * m].reshape(n, kc, m)
            np.add(diff[:, None, b0:b1], cols[:, k0:k0 + kc], out=x)
            np.multiply(x, x, out=x)
            np.add.reduce(x, axis=0, out=sq[fill:fill + kc * m].reshape(kc, m))
            pending.append((fill, b0, m, cand[k0:k0 + kc]))
            fill += kc * m
    if fill:
        flush()
    if not found:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    return tuple(map(np.concatenate, zip(*found)))


def _image_keys(img: np.ndarray) -> np.ndarray:
    """One integer key per row of coefficients, ordered as the rows are
    as tuples."""
    # Per column: numpy reduces a narrow array along axis 0 slowly.
    lo = np.array([c.min() for c in img.T])
    dims = np.array([c.max() for c in img.T]) - lo + 1
    return np.ravel_multi_index((img - lo).T, dims)


def _hit_order(pair: np.ndarray, d: np.ndarray, key: np.ndarray, count: int) -> np.ndarray:
    """The permutation ``np.lexsort((key, d, pair))``, from one float and one
    integer sort: the distances first, then a stable sort of the pair
    index, then every run of equal (pair, d) put in key order.  pair
    indexes the ``count`` entries of one row range, so it is cast to the
    smallest unsigned type that holds ``count``, uint16 within ``_CHUNK``,
    which numpy sorts stably by radix."""
    order = np.argsort(d)
    order = order[np.argsort(pair[order].astype(np.min_scalar_type(count)), kind="stable")]
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
    keys, which = np.unique(_image_keys(img), return_inverse=True)
    rows = np.empty((len(keys), img.shape[1]), dtype=img.dtype)
    rows[which] = img  # every row of one key is the same image
    vectors = np.empty(len(keys), dtype=object)
    vectors[:] = [LatticeVector(tuple(row)) for row in rows.tolist()]
    return list(zip(i.tolist(), j.tolist(), vectors[which].tolist(), d.tolist()))
