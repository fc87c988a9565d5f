"""Enumeration of fundamental domains for which 3^n copies suffice.

Candidates are parallelepipeds spanned by n Voronoi-relevant vectors whose
coefficient matrix is unimodular and whose reach extents stay within one
extra layer per axis.  Column sign flips and column permutations produce
lattice translates of the same parallelepiped, so candidates are stored by
a canonical key (sign-normalized columns, sorted).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Basis, canonical_sign, int_det, unimodular_inverse, validate_basis
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
    m = np.asarray(coeff_columns)
    cols = [canonical_sign(m[:, i]) for i in range(m.shape[1])]
    return tuple(sorted(cols))


def enumerate_ps(lattice: Basis) -> list[CellBasisCandidate]:
    """All fundamental domains of the lattice needing only 3^n copies.

    For a generic lattice (strictly obtuse reduced basis, no relevant-vector
    ties) this returns 3 domains in 2D and at most 16 in 3D, fewer as
    anisotropy pushes some spanning triples past one layer; ties remove
    relevant vectors and change the count.
    """
    return _domains(voronoi._prepare(lattice))


def _domains(p: voronoi._Prepared) -> list[CellBasisCandidate]:
    red = p.red
    out = []
    seen = set()
    for combo in itertools.combinations(p.relevant, red.basis.dim):
        key = canonical_cell_key(np.array(combo).T)
        if key in seen:
            continue
        z = np.array(key, dtype=np.int64).T
        if abs(int_det(z)) != 1:
            continue
        cand = validate_basis(red.basis.matrix @ z)
        if not copies.sufficient_from_extents(voronoi.frac_extents(p, cand)):
            continue
        seen.add(key)
        out.append(CellBasisCandidate(coeffs=z, basis=cand, canonical_key=key))
    out.sort(key=lambda c: c.canonical_key)
    return out


def check_cell(cell: Basis, lattice: Basis) -> CellCheckReport:
    """Report whether a primitive cell supports the 3^n-copy shortcut.

    Raises NotAPrimitiveCell if the cell does not span the full lattice.
    """
    w = copies.primitive_coeffs(cell, lattice)
    p = voronoi._prepare(lattice)
    counts = copies.counts_from_extents(voronoi.frac_extents(p, cell))
    key = canonical_cell_key(unimodular_inverse(p.red.transform) @ w)
    members = {c.canonical_key for c in _domains(p)}
    return CellCheckReport(
        sufficient=copies.sufficient_from_extents(counts.h),
        counts=counts,
        ps_member=key in members,
        cell_reduced=reduction.is_reduced(cell),
        coeffs_key=key,
    )
