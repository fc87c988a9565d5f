"""Enumeration of fundamental domains for which 3^n copies suffice.

Candidates are parallelepipeds spanned by n Voronoi-relevant vectors whose
coefficient matrix is unimodular and whose reach extents stay within one
extra layer per axis; ``enumerate_ps`` tests every n-subset in one array
pass.  ``check_cell`` enumerates nothing: a cell is a member iff its own
extents are within one layer and its key's columns are relevant vectors.
Column sign flips and permutations produce lattice translates of the same
parallelepiped, so candidates are stored by a canonical key
(sign-normalized columns, sorted).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Basis, canonical_rows, int_dets
from . import copies, reduction, voronoi


@dataclass(frozen=True, eq=False)
class CellBasisCandidate:
    """A fundamental domain spanned by relevant vectors, in canonical form.

    ``coeffs`` holds the spanning vectors as integer columns in reduced
    basis coordinates; ``basis`` is the Cartesian form.
    """

    coeffs: np.ndarray
    basis: Basis
    canonical_key: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.int64, copy=True)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class CellCheckReport:
    """Diagnosis of a user-supplied primitive cell."""

    sufficient: bool
    counts: copies.CopyCounts
    ps_member: bool
    cell_reduced: bool
    coeffs_key: tuple[tuple[int, ...], ...]


def canonical_cell_key(coeff_columns) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a cell's integer column set.

    Each column is sign-normalized (first nonzero entry positive) and the
    columns are sorted; translation-equivalent cells share a key.
    """
    return tuple(sorted(map(tuple, canonical_rows(np.asarray(coeff_columns).T).tolist())))


def enumerate_ps(lattice: Basis) -> list[CellBasisCandidate]:
    """The fundamental domains spanned by n relevant vectors that need only
    3^n copies.

    For a generic lattice (strictly obtuse reduced basis, no relevant-vector
    ties) these are 3 domains in 2D and at most 16 in 3D, fewer as
    anisotropy pushes some spanning triples past one layer.  On exactly
    tied lattices other sufficient cells exist and are left out: the cube
    gives 1 cell, yet (e1, e2, e1 + e3) also needs only 3^3 copies.
    """
    return _domains(voronoi._prepare(lattice))


def _domains(p: voronoi._Prepared) -> list[CellBasisCandidate]:
    # Distinct canonical rows in lexicographic order: distinct, sorted keys.
    rel = np.array(sorted(p.relevant))
    subsets = rel[list(itertools.combinations(range(len(rel)), p.red.basis.dim))]
    zs = subsets.transpose(0, 2, 1)
    # Unimodular subsets whose cell rm @ z has extents within one layer per axis.
    ok = np.abs(int_dets(zs)) == 1
    inv = np.linalg.inv(p.red.basis.matrix @ zs[ok])
    ok[ok] = copies.sufficient_from_extents(voronoi._reach(p.vertices, inv))
    return [CellBasisCandidate(coeffs=zs[k], basis=Basis(p.red.basis.matrix @ zs[k]),
                               canonical_key=tuple(map(tuple, subsets[k].tolist())))
            for k in np.flatnonzero(ok)]


def check_cell(cell: Basis, lattice: Basis) -> CellCheckReport:
    """Report whether a primitive cell supports the 3^n-copy shortcut.

    It is in ``enumerate_ps`` iff it is sufficient and the columns of its
    key are relevant vectors; the extents are the report's own, read once.
    Raises NotAPrimitiveCell if the cell does not span the full lattice.
    """
    w = copies.primitive_coeffs(cell, lattice)
    p = voronoi._prepare(lattice)
    counts = copies.counts_from_extents(voronoi.frac_extents(p, cell))
    key = canonical_cell_key(p.red.inverse @ w)
    sufficient = bool(copies.sufficient_from_extents(counts.h))
    return CellCheckReport(
        sufficient=sufficient,
        counts=counts,
        ps_member=sufficient and set(key) <= set(p.relevant),
        cell_reduced=reduction.is_reduced(cell),
        coeffs_key=key,
    )
