"""Voronoi-relevant vectors, the origin Voronoi cell, and its extents.

A lattice vector r is Voronoi relevant when the bisector plane between 0
and r carries a facet of the Voronoi cell V, which happens exactly when
+-r are the unique shortest members of their class of L/2L.  The cell
itself is assembled from the halfspaces {x : x . r <= |r|^2 / 2}.  Its
vertices are the intersections of n facet planes that every halfspace
admits.  In 3D, with up to 7 facet pairs and C(14, 3) = 364 plane triples,
of which a generic cell has 24 vertices, a screen goes first: each
triple's vertex in closed form, kept unless it violates a halfspace by
more than its error bound.  Only the kept triples are solved and tested,
and they are solved and tested as before, so the screen changes no
output bit (see ``_vertices``).  2D cells have at most 15 plane pairs and
solve them all.

Every public operation that needs this geometry builds it once per call
with ``_prepare``: one reduction, one array pass over the L/2L class table
of the reduced basis (never reduced again) for the relevant vectors, and
the vertices of the cell bounded by their bisector planes, so all
operations read extents from the same vertex set.  Only ``voronoi_cell``
measures the facets, in one pass over (facet, tight vertex) arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Basis, LatticeVector, canonical_rows, int_box, matvecs, row_dots
from .errors import DegenerateCell
from . import reduction

# Coefficient search radius per coset class, in reduced coordinates.
COSET_BOX = 2
# Relative norm window treated as a tie; a tied class contributes faces of
# lower dimension, not facets, and is discarded whole.
TIE_REL = 1e-9
# Geometric tolerance, as a fraction of the cell diameter.
GEOM_REL = 1e-8


@dataclass(frozen=True, eq=False)
class RelevantVectorSet:
    """Voronoi-relevant vectors, stored once per +-pair.

    ``vectors`` holds the canonical representative of each pair (first
    nonzero coefficient positive) in the caller's basis coordinates;
    ``cartesians`` caches their Cartesian forms row by row.
    """

    vectors: tuple[LatticeVector, ...]
    cartesians: np.ndarray

    def __post_init__(self):
        c = np.array(self.cartesians, dtype=float, copy=True)
        c.flags.writeable = False
        object.__setattr__(self, "cartesians", c)

    @property
    def count(self) -> int:
        """Number of relevant vectors counting both signs."""
        return 2 * len(self.vectors)

    def coeff_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(v.coeffs for v in self.vectors)


@dataclass(frozen=True, eq=False)
class VoronoiCell:
    """The origin Voronoi cell as halfspaces plus enumerated vertices.

    ``normals`` has one row per halfspace (both signs of every relevant
    vector), ``offsets`` the matching |r|^2 / 2, and ``volume`` equals the
    covolume |det B| of the lattice.
    """

    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray
    volume: float

    def __post_init__(self):
        for name in ("normals", "offsets", "vertices"):
            a = np.array(getattr(self, name), dtype=float, copy=True)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def halfspaces(self) -> list[tuple[np.ndarray, float]]:
        return [(self.normals[i], float(self.offsets[i]))
                for i in range(len(self.offsets))]

    def diameter(self) -> float:
        return 2.0 * float(np.linalg.norm(self.vertices, axis=1).max())


class _Prepared(NamedTuple):
    """The facts of one lattice, built once per public call.

    ``relevant`` holds the relevant vectors in reduced coordinates,
    ``normals`` both signs of their Cartesian forms, and ``tight[v, f]``
    says whether vertex v lies on the plane of facet f.
    """

    red: reduction.ReducedBasis
    relevant: list[tuple[int, ...]]
    normals: np.ndarray
    vertices: np.ndarray
    tight: np.ndarray


def _prepare(b: Basis) -> _Prepared:
    """Reduce ``b`` once and build the Voronoi vertices from that reduction."""
    red = reduction.reduce(b)
    rel, carts = _by_norm(red.basis.matrix, _coset_minima(red.basis.matrix))
    return _Prepared(red, rel, *_vertices(carts, GEOM_REL * red.basis.diameter()))


def _by_norm(m: np.ndarray, coeffs) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Coefficient rows sorted by (|m t|, t), as tuples, and their Cartesian
    rows; the norms carry the bits of the 1-D ``np.linalg.norm(m @ t)``."""
    t = np.asarray(coeffs, dtype=np.int64)
    carts = matvecs(m, t)
    order = np.lexsort((*t.T[::-1], np.sqrt(row_dots(carts, carts))))
    return [tuple(r) for r in t[order].tolist()], carts[order]


# Per dimension, the table of L/2L: for each nonzero parity vector c, the
# coefficient rows 2 z + c over z in [-COSET_BOX, COSET_BOX]^n.
_CLASSES = {n: 2 * int_box((COSET_BOX,) * n)[None]
            + np.indices((2,) * n).reshape(n, -1).T[1:, None] for n in (2, 3)}


def _coset_minima(rm: np.ndarray) -> np.ndarray:
    """Relevant vectors of a reduced basis matrix as coefficient rows, one
    canonical sign each.  One pass minimizes |B(2z + c)| over the class
    table for every nonzero class c; a class whose minimum is attained by
    more than one +-pair (within TIE_REL) is tied and contributes nothing.
    """
    ys = _CLASSES[len(rm)]
    norms = np.linalg.norm(ys @ rm.T, axis=-1)
    best = ys[np.arange(len(ys)), norms.argmin(axis=1)]
    tied = norms <= norms.min(axis=1, keepdims=True) * (1.0 + TIE_REL)
    same = np.all(ys == best[:, None], axis=-1) | np.all(ys == -best[:, None], axis=-1)
    return canonical_rows(best[np.all(same | ~tied, axis=1)])


def _vertices(carts: np.ndarray, tol_len: float):
    """(normals, vertices, tight) of the cell bounded by the bisectors of
    ``carts``: the intersections of n facet planes that are feasible for
    every halfspace, within ``tol_len`` of each plane.

    In 3D the plane triples are screened before anything is solved (a 2D
    cell has at most 15 plane pairs, and all are solved).  Each triple's
    determinant and vertex come in closed form, from cofactor vectors
    written out by components.  A subset is judged singular as the
    LU determinant judges it (|det| <= 1e-10 times the norm product), and
    LU decides the rows whose closed-form determinant lies within the two
    methods' error bound of that threshold.  A vertex is dropped only when
    it violates some halfspace by more than twice its own error bound: the
    closed-form and the LU vertex both lie within _SCREEN_EPS * rho * kappa
    * |v| of the exact one, rho being the subset's largest norm over its
    smallest and kappa its norm product over |det|.  Ill-conditioned
    subsets, where that bound reaches |v| / 4, are kept.
    ``np.linalg.solve`` and the feasibility test then run on the kept rows
    in their original order, so every decision falls as if all subsets
    had been solved: the solve's bits do not depend on the batch, and a
    product of two or more rows has the bits of per-row 1-D dots.  (One
    kept row would round differently, but a cell needs n + 1 vertices, so
    that case raises DegenerateCell either way.)
    """
    n = carts.shape[1]
    normals = np.vstack([carts, -carts])
    nnorm = np.linalg.norm(normals, axis=1)
    offsets = 0.5 * nnorm ** 2
    lim = offsets + tol_len * nnorm
    sub = _SUBSETS[n, len(normals)][0][_candidates(normals, nnorm, lim)]
    verts = np.linalg.solve(np.take(normals, sub, axis=0), offsets[sub][..., None])[..., 0]
    feasible = np.all(verts @ normals.T <= lim, axis=1)
    verts = _dedup(verts[feasible], tol_len)
    if len(verts) < n + 1:
        raise DegenerateCell(
            f"only {len(verts)} distinct vertices found (need at least {n + 1})"
        )
    tight = np.abs(verts @ normals.T - offsets) <= tol_len * nnorm
    if np.any(tight.sum(axis=0) < n):
        raise DegenerateCell("halfspace with too few tight vertices")
    return normals, verts, tight


def _candidates(normals: np.ndarray, nnorm: np.ndarray, lim: np.ndarray) -> np.ndarray:
    """Mask of the plane subsets that _vertices solves: the nonsingular
    ones, less, in 3D, those the screen proves infeasible."""
    n = normals.shape[1]
    combos, rows_t, cof_t = _SUBSETS[n, len(normals)]
    nn = nnorm.take(rows_t)
    scale = np.prod(nn, axis=0)
    thr = 1e-10 * scale
    if n == 2:
        return np.abs(np.linalg.det(np.take(normals, combos, axis=0))) > thr
    x, y, z = (np.multiply.outer(normals[:, i], normals[:, j]) for i, j in ((1, 2), (2, 0), (0, 1)))
    # cof[c, r, k]: component c of the cofactor vector of row r of subset k.
    cof = np.stack([x - x.T, y - y.T, z - z.T]).reshape(3, -1).take(cof_t, axis=1)
    det = (normals.T.take(rows_t[0], axis=1) * cof[:, 0]).sum(axis=0)
    rho = nn.max(axis=0) / nn.min(axis=0)
    ok = np.abs(det) > thr
    unsure = np.abs(np.abs(det) - thr) <= _SCREEN_EPS * rho * scale
    if unsure.any():
        ok[unsure] = np.abs(np.linalg.det(np.take(normals, combos[unsure], axis=0))) > thr[unsure]
    with np.errstate(divide="ignore", invalid="ignore"):
        err = _SCREEN_EPS * rho * scale / np.abs(det)
        vert = (0.5 * nn ** 2 * cof).sum(axis=1) / det  # offsets |n|^2 / 2
        slack = (normals / nnorm[:, None]) @ vert - (lim / nnorm)[:, None]
        out = np.any(slack > 2.0 * err * np.linalg.norm(vert, axis=0), axis=0) & (err < 0.25)
    return ok & ~out


def _subset_tables(n: int, k: int):
    """Index rows of all n-subsets of k planes, the same transposed, and, per
    row of a subset, the place in the pair table of _candidates of its
    cofactor vector, the cross product of the next two rows (3D)."""
    c = np.array(list(itertools.combinations(range(k), n))).reshape(-1, n)
    cof = np.roll(c, -1, axis=1) * k + np.roll(c, -2, axis=1)
    return c, np.ascontiguousarray(c.T), np.ascontiguousarray(cof.T)


# Per dimension n and plane count k: two planes per relevant pair, n to
# 2^n - 1 pairs.
_SUBSETS = {(n, k): _subset_tables(n, k) for n in (2, 3) for k in range(2 * n, 2 ** (n + 1) - 1, 2)}
# Error bound of the screen, per unit of rho * kappa * |v| (see _vertices).
# A closed-form vertex and the LU solve's lie within about 20 and 60 eps
# of the exact one per unit, and the closed-form and LU determinants
# within about 20 eps and 60 eps * rho of the exact one, relative to the
# norm product (LU's backward error is at most 7 gamma_3 times the largest
# row, per row).  2^10 eps covers their sum with tenfold room; on
# elongated lattices, with kappa up to 4e8, the measured gaps stay a
# thousandfold inside it.
_SCREEN_EPS = 1024 * np.finfo(float).eps


def _in_basis(b: Basis, red: reduction.ReducedBasis, rel) -> RelevantVectorSet:
    """Relevant vectors given in reduced coordinates, restated in ``b``."""
    found, carts = _by_norm(b.matrix, canonical_rows(np.array(rel) @ red.transform.T))
    return RelevantVectorSet(vectors=tuple(LatticeVector(t) for t in found),
                             cartesians=carts)


def relevant_vectors(b: Basis) -> RelevantVectorSet:
    """Compute the Voronoi-relevant vectors of the lattice of ``b``.

    The basis is reduced internally and the coset minima are searched
    there; the vectors are reported in the coordinates of ``b``.
    """
    red = reduction.reduce(b)
    return _in_basis(b, red, _coset_minima(red.basis.matrix))


def voronoi_cell(b: Basis) -> VoronoiCell:
    """Construct the origin Voronoi cell of the lattice of ``b``.

    The halfspaces are those of ``relevant_vectors(b)``, the vertices the
    shared build, and the volume the sum over facets of the pyramid volumes
    to the origin, an independent check against |det B|.
    """
    p = _prepare(b)
    rel = _in_basis(b, p.red, p.relevant)
    normals = np.vstack([rel.cartesians, -rel.cartesians])
    areas = _facet_measures(p.vertices, p.tight, p.normals)
    volume = np.sum(areas * (0.5 * np.linalg.norm(p.normals, axis=1))) / b.dim
    return VoronoiCell(normals=normals, offsets=0.5 * np.linalg.norm(normals, axis=1) ** 2,
                       vertices=p.vertices, volume=float(volume))


def frac_extents(cell: VoronoiCell | _Prepared, frame: Basis) -> np.ndarray:
    """Half-extents of the Voronoi cell along the fractional axes of ``frame``.

    h_i = max over vertices x of |(frame^-1 x)_i|; central symmetry of the
    cell makes this the half-extent in both directions.  Only
    ``cell.vertices`` is read.
    """
    fracs = cell.vertices @ frame.inv.T
    return np.abs(fracs).max(axis=0)


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Points in lexicographic order, dropping each one within ``tol`` of an
    earlier kept point.  Distances sum the squares in component order, as
    ``np.linalg.norm`` does along an axis, so they carry its bits."""
    pts = points[np.lexsort(points.T[::-1])]
    close = np.sqrt(sum((x[:, None] - x) ** 2 for x in pts.T)) <= tol
    if np.count_nonzero(close) == len(pts):
        return pts
    dropped = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        if not dropped[i]:
            dropped[i + 1:] |= close[i, i + 1:]
    return pts[~dropped]


def _facet_measures(verts: np.ndarray, tight: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Length (2D) or area (3D) of every facet, from its tight vertices.

    In 3D one pass orders each facet's tight vertices by angle about their
    mean, from the first of them, and sums the shoelace cross products
    along the normal; padding repeats the first vertex, adding no area.
    """
    rh = normals / np.linalg.norm(normals, axis=1)[:, None]
    if verts.shape[1] == 2:
        proj = verts @ np.column_stack([-rh[:, 1], rh[:, 0]]).T
        return np.where(tight, proj, -np.inf).max(axis=0) - np.where(tight, proj, np.inf).min(axis=0)
    k = tight.sum(axis=0)
    q = verts[None] - ((tight.T @ verts) / k[:, None])[:, None]
    u = q[np.arange(len(q)), tight.argmax(axis=0), None]
    angle = np.arctan2(np.cross(u, q) @ rh[:, :, None], q @ u.transpose(0, 2, 1))[..., 0]
    order = np.argsort(np.where(tight.T, angle, np.inf), axis=1, kind="stable")
    q = np.take_along_axis(q, order[..., None], axis=1)
    q = np.where((np.arange(len(verts)) >= k[:, None])[..., None], q[:, :1], q)
    return 0.5 * np.abs((np.cross(q, np.roll(q, -1, axis=1)) @ rh[:, :, None])[..., 0].sum(axis=1))
