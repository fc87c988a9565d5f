"""Voronoi-relevant vectors, the origin Voronoi cell, and its extents.

Every 2D and 3D lattice is of Voronoi's first kind: ``reduce`` returns an
obtuse superbase v_0..v_n (sum zero, every v_i . v_j <= 0), and the cell
follows from it by combinatorics (Voronoi 1908; Conway & Sloane, Proc. R.
Soc. A 436, 1992).  A conorm -v_i . v_j is an edge when it exceeds
reduction.COS_SNAP |v_i| |v_j|, the snap where Selling stops.  The sum v_S
over a proper subset S of the members is relevant iff S and its complement
are each connected.  Each ordering of the members gives a vertex, on the
planes x . v_S = |v_S|^2 / 2 of its prefix sets; v_S is tight there iff no
edge joins S to an earlier non-member, as |v_S|^2 / 2 - x . v_S sums those
conorms.  Orderings with equal tight sets are one vertex.  So the
incidence is exact, with no geometric tolerance: every facet keeps its
vertices however small it is, and no lattice raises DegenerateCell.

``_prepare`` builds this once per ``Basis`` object, from one reduction,
and keeps the read-only build on it, as ``Basis`` keeps ``det`` and
``inv``: every public reader on that object reads the same build, and a
second ``Basis`` of the same matrix builds again.  ``relevant_vectors``
restates the kept relevant vectors in the caller's coordinates once per
``Basis`` object, keeps the read-only ``RelevantVectorSet`` in its
``__dict__`` beside the build and hands each caller a copy; every other
reader goes through it.  Only ``voronoi_cell`` measures the facets, in one
pass over (facet, tight vertex) arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import TOL_SINGULAR, Basis, LatticeVector, canonical_rows, matvecs, row_dots
from . import reduction


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
        return [(r, float(c)) for r, c in zip(self.normals, self.offsets)]

    def diameter(self) -> float:
        return 2.0 * float(np.linalg.norm(self.vertices, axis=1).max())


class _Prepared(NamedTuple):
    """The facts of one lattice, built once per ``Basis`` and shared by
    every call on it, so nothing in it can be written.

    ``relevant`` holds the relevant vectors in reduced coordinates,
    ``normals`` both signs of their Cartesian forms, and ``tight[v, f]``
    says whether vertex v lies on the plane of facet f.
    """

    red: reduction.ReducedBasis
    relevant: tuple[tuple[int, ...], ...]
    normals: np.ndarray
    vertices: np.ndarray
    tight: np.ndarray


def _prepare(b: Basis) -> _Prepared:
    """Reduce ``b`` once and build the Voronoi cell from its superbase, on
    the first call for this ``Basis`` object; later calls return the build
    kept in its ``__dict__``.  Two threads that race both build, and the
    builds are equal bit for bit."""
    p = b.__dict__.get("_prepared")
    if p is None:
        red = reduction.reduce(b)
        sums, facets, edges = _relevant_sets(red)
        order, carts = _by_norm(red.basis.matrix, sums[facets])
        facets = facets[order]
        arrays = _vertices(carts, facets, edges)
        for a in arrays:
            a.flags.writeable = False
        p = b.__dict__["_prepared"] = _Prepared(
            red, tuple(map(tuple, sums[facets].tolist())), *arrays)
    return p


def _by_norm(m: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order of the coefficient rows ``t`` by (|m t|, t) and their Cartesian
    rows in it; the norms carry the bits of the 1-D ``np.linalg.norm(m @ t)``."""
    carts = matvecs(m, t)
    order = np.lexsort((*t.T[::-1], np.sqrt(row_dots(carts, carts))))
    return order, carts[order]


def _superbase_tables(n: int):
    """Over n + 1 members: proper subsets as 0/1 rows (row K - 1 - k the
    complement of row k); pairs i < j; per (subset, pair), inside (0/1) and
    crossing; per (ordering, subset, pair), joining a member to an earlier
    non-member; n-subsets of range(K) in colex order, with their bitmasks."""
    m = n + 1
    sets = (np.arange(1, 2 ** m - 1)[:, None] >> np.arange(m)) & 1
    pairs = np.array(list(itertools.combinations(range(m), 2))).T
    a, b = (sets[:, p] == 1 for p in pairs)
    pos = np.argsort(list(itertools.permutations(range(m))), axis=1)
    later = (pos[:, pairs[0]] > pos[:, pairs[1]])[:, None]
    leaves = a & ~b & later | b & ~a & ~later
    combos = np.array(sorted(itertools.combinations(range(len(sets)), n), key=lambda c: c[::-1]))
    return sets, pairs, (a & b).astype(np.int64), a ^ b, leaves, combos, (1 << combos).sum(axis=1)


_TABLES = {n: _superbase_tables(n) for n in (2, 3)}


def _relevant_sets(red: reduction.ReducedBasis):
    """The subset sums v_S of the superbase of ``red`` as coefficient rows,
    the indices of the relevant ones with a canonical sign, and the edges.
    |v_S|^2 sums the conorms crossing S: if the snap drops them all, the
    largest stays.  At most 3 members connect iff |S| - 1 edges join them."""
    sets, (i, j), inside, crossing = _TABLES[red.basis.dim][:4]
    carts = red.basis.matrix @ red.superbase
    gram = carts.T @ carts
    norms = np.sqrt(np.diag(gram))
    conorms = -gram[i, j]
    edges = conorms > reduction.COS_SNAP * norms[i] * norms[j]
    for cut in crossing[~(crossing @ edges)]:
        if not (cut & edges).any():
            edges[np.argmax(np.where(cut, conorms, -np.inf))] = True
    connected = inside @ edges >= sets.sum(axis=1) - 1
    sums = sets @ red.superbase.T
    canonical = np.all(canonical_rows(sums) == sums, axis=1)
    return sums, np.flatnonzero(connected & connected[::-1] & canonical), edges


def _vertices(carts: np.ndarray, facets: np.ndarray, edges: np.ndarray):
    """(normals, vertices, tight) of the cell bounded by the bisectors of
    ``carts`` and ``-carts``, the superbase subsets ``facets``.  A vertex is
    the lexicographically least ``np.linalg.solve`` solution (ties to the
    first) over the n-subsets of its tight planes, in row order, that LU
    judges nonsingular: |det| above TOL_SINGULAR times the norm product."""
    leaves, combos, bits = _TABLES[carts.shape[1]][4:]
    planes = np.concatenate([facets, leaves.shape[1] - 1 - facets])
    normals = np.vstack([carts, -carts])
    nnorm = np.linalg.norm(normals, axis=1)
    offsets = 0.5 * nnorm ** 2
    # Per ordering, a plane is tight iff no edge joins its set to an earlier non-member.
    tight = ~(leaves[:, planes] @ edges)
    keys, first = np.unique(tight @ (1 << np.arange(len(planes))), return_index=True)
    k = math.comb(len(planes), combos.shape[1])
    v, c = np.divmod(np.flatnonzero((keys[:, None] & bits[:k]) == bits[:k]), k)
    sub = combos[c]
    ok = np.abs(np.linalg.det(normals[sub])) > TOL_SINGULAR * np.prod(nnorm[sub], axis=1)
    v, sub = v[ok], sub[ok]
    verts = np.linalg.solve(normals[sub], offsets[sub][..., None])[..., 0]
    order = np.lexsort((*sub.T[::-1], *verts.T[::-1], v))
    least = order[np.r_[True, v[order][1:] != v[order][:-1]]]
    least = least[np.lexsort(verts[least].T[::-1])]
    return normals, verts[least], tight[first[v[least]]]


def relevant_vectors(b: Basis) -> RelevantVectorSet:
    """Compute the Voronoi-relevant vectors of the lattice of ``b``.

    They are the relevant subset sums of the obtuse superbase that the
    shared build of ``b`` keeps in reduced coordinates, restated in the
    coordinates of ``b``; the first reader of a ``Basis`` makes the build.
    The restated set is kept, read-only, in the ``__dict__`` of ``b``
    beside the build, so each ``Basis`` object restates once; every call
    returns its own copy of it.
    """
    rel = b.__dict__.get("_relevant")
    if rel is None:
        rel = b.__dict__["_relevant"] = _restate(_prepare(b), b.matrix)
    return RelevantVectorSet(vectors=rel.vectors, cartesians=rel.cartesians)


def _restate(p: _Prepared, m: np.ndarray) -> RelevantVectorSet:
    """The relevant vectors of the build ``p`` in the coordinates of the
    basis ``m``: canonical signs, in (norm, coefficient) order."""
    t = canonical_rows(np.array(p.relevant) @ p.red.transform.T)
    order, carts = _by_norm(m, t)
    return RelevantVectorSet(vectors=tuple(LatticeVector(tuple(r)) for r in t[order].tolist()),
                             cartesians=carts)


def voronoi_cell(b: Basis) -> VoronoiCell:
    """Construct the origin Voronoi cell of the lattice of ``b``.

    The halfspaces are those of ``relevant_vectors(b)``, the vertices the
    shared build, and the volume the sum over facets of the pyramid volumes
    to the origin, an independent check against |det B|.
    """
    p = _prepare(b)
    rel = relevant_vectors(b)
    normals = np.vstack([rel.cartesians, -rel.cartesians])
    areas = _facet_measures(p.vertices, p.tight, p.normals)
    volume = np.sum(areas * (0.5 * np.linalg.norm(p.normals, axis=1))) / b.dim
    return VoronoiCell(normals=normals, offsets=0.5 * np.linalg.norm(normals, axis=1) ** 2,
                       vertices=p.vertices, volume=float(volume))


def frac_extents(cell: VoronoiCell | _Prepared, frame: Basis) -> np.ndarray:
    """Half-extents of the Voronoi cell along the fractional axes of ``frame``.

    h_i = max over vertices x of |(frame^-1 x)_i|; central symmetry of the
    cell makes this the half-extent in both directions.  Only
    ``cell.vertices`` is read.  A cell and frame of different dimensions
    raise ValueError.
    """
    if cell.vertices.shape[1] != frame.dim:
        raise ValueError(f"a {cell.vertices.shape[1]}D cell has no extents in a "
                         f"{frame.dim}D frame")
    return _reach(cell.vertices, frame.inv)


def _reach(vertices: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """max over ``vertices`` x of |inv x|, per inverse frame of a stack or for one."""
    return np.abs(vertices @ np.swapaxes(inv, -1, -2)).max(axis=-2)


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
