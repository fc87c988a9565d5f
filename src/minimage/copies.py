"""Reach extents of a cell and the minimal symmetric block of copies.

For a primitive cell of a lattice, the set of points that can realize a
minimum-image distance to somewhere in the cell is the Minkowski sum of
the cell with the lattice's Voronoi cell.  Its half-extents h_i along the
cell's fractional axes give the number of extra cell layers m_i = ceil(h_i)
needed per side; (2 m_i + 1) copies per axis are then sufficient, and the
block is minimal among symmetric blocks (the Voronoi cell is centrally
symmetric, so nothing is saved by asymmetry).

The extents are measured in fractional (dual) coordinates of the cell, not
by orthogonal projection onto the cell vectors: cells tile along their
fractional axes, so the covering count along axis i is governed by the
fractional coordinate.  The two coincide for orthogonal cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Basis, TOL_NUM, int_det
from .errors import NotAPrimitiveCell
from . import voronoi

# Extents within this of an integer snap down before the ceiling: the reach
# domain is closed, and a copy whose boundary touches it still contains the
# touching points.
TOL_SNAP = 1e-9


@dataclass(frozen=True)
class CopyCounts:
    """Minimal symmetric block of cell copies for correct periodic distances.

    ``layers[i]`` is the number of extra cell layers on each side along
    fractional axis i, ``per_axis[i] = 2 * layers[i] + 1``, and ``total``
    is their product.  ``h`` keeps the half-extents the layers were
    derived from.
    """

    layers: tuple[int, ...]
    per_axis: tuple[int, ...]
    total: int
    h: tuple[float, ...]


def primitive_coeffs(cell: Basis, lattice: Basis) -> np.ndarray:
    """Integer coefficients of the cell columns in the lattice basis.

    Raises NotAPrimitiveCell unless the cell columns are integer
    combinations of the lattice columns with |det| = 1.
    """
    if cell.dim != lattice.dim:
        raise NotAPrimitiveCell(f"a {cell.dim}D cell cannot span a {lattice.dim}D lattice")
    # Judged by backward error; the solve's forward error grows with cond(B).
    zi = np.rint(np.linalg.solve(lattice.matrix, cell.matrix))
    resid = np.linalg.norm(lattice.matrix @ zi - cell.matrix, axis=0)
    if np.any(resid > TOL_NUM * np.linalg.norm(cell.matrix, axis=0)):
        raise NotAPrimitiveCell(
            "cell columns are not integer combinations of the lattice basis"
        )
    if abs(int_det(zi)) != 1:
        raise NotAPrimitiveCell(
            "cell spans a proper sublattice (|det| != 1 in lattice coordinates)"
        )
    return zi.astype(np.int64)


def domain_extents(cell: Basis, lattice: Basis) -> np.ndarray:
    """Half-extents h_i of the reach domain along the cell's fractional axes.

    In cell-fractional coordinates the reach domain spans [-h_i, 1 + h_i]
    along axis i.
    """
    primitive_coeffs(cell, lattice)
    return voronoi.frac_extents(voronoi._prepare(lattice), cell)


def ceil_snapped(x: float) -> int:
    """Smallest integer >= x - TOL_SNAP."""
    return math.ceil(x - TOL_SNAP)


def copy_counts(cell: Basis, lattice: Basis) -> CopyCounts:
    """Minimal per-axis layer counts for the given primitive cell.

    For every pair of points in the cell, minimizing over images of one
    point inside the (2 m_i + 1)-per-axis block of copies yields the true
    quotient distance.
    """
    return counts_from_extents(domain_extents(cell, lattice))


def counts_from_extents(h) -> CopyCounts:
    """Copy counts for the half-extents ``h`` of a reach domain."""
    layers = tuple(ceil_snapped(float(v)) for v in h)
    per_axis = tuple(2 * m + 1 for m in layers)
    return CopyCounts(layers=layers, per_axis=per_axis, total=math.prod(per_axis),
                      h=tuple(float(v) for v in h))


def is_3n_sufficient(cell: Basis, lattice: Basis) -> bool:
    """True iff 3^n copies of the cell suffice (all h_i <= 1).

    Equivalently, the Voronoi cell is covered by the block of 2 cell copies
    in each direction around the origin.
    """
    return bool(sufficient_from_extents(domain_extents(cell, lattice)))


def sufficient_from_extents(h) -> np.ndarray:
    """Whether all half-extents along the last axis of ``h`` are within one
    layer, snapped by TOL_SNAP; one flag per row of a stack."""
    return np.all(np.asarray(h, dtype=float) <= 1.0 + TOL_SNAP, axis=-1)
