"""Brute-force reference implementations, deliberately simple and slow.

These are correctness anchors for tests and for the CLI --verify flag.
They share only the lattice-core transforms with the fast paths: no basis
reduction, no coset shortcuts, just exhaustive enumeration over coefficient
boxes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Basis, LatticeVector, canonical_sign, int_box
from .distance import DistanceResult
from .voronoi import RelevantVectorSet, TIE_REL
from . import copies as copies_mod
from . import voronoi as voronoi_mod

# Grid resolution per axis for the witness search; odd so the cell center
# is sampled.  Misses are backstopped by the injected Voronoi vertex images.
WITNESS_GRID = 33
WITNESS_GAP = 1e-9


def brute_distance(b: Basis, p1, p2, layers: int) -> DistanceResult:
    """Exhaustive minimum over all translates with coefficients in [-K, K]^n."""
    if layers < 1:
        raise ValueError("layers must be at least 1")
    n = b.dim
    delta = np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float)
    m = b.matrix
    t_all = int_box((layers,) * n)
    chunk = 200_000
    best_d2 = math.inf
    for start in range(0, len(t_all), chunk):
        cart = (delta[None, :] + t_all[start:start + chunk]) @ m.T
        best_d2 = min(best_d2, float(np.einsum("ij,ij->i", cart, cart).min()))
    window = best_d2 * (1.0 + 2e-12)
    best_img: tuple[int, ...] | None = None
    for start in range(0, len(t_all), chunk):
        t = t_all[start:start + chunk]
        cart = (delta[None, :] + t) @ m.T
        d2 = np.einsum("ij,ij->i", cart, cart)
        for i in np.flatnonzero(d2 <= window):
            cand = tuple(int(x) for x in t[i])
            if best_img is None or cand < best_img:
                best_img = cand
    d = float(np.linalg.norm(m @ (delta + np.asarray(best_img, dtype=float))))
    return DistanceResult(distance=d, image=LatticeVector(best_img))


def brute_relevant(b: Basis, box: int) -> RelevantVectorSet:
    """Facet criterion over a coefficient box: r is relevant iff r/2 is
    strictly closer to {0, r} than to every other lattice point in the box."""
    if box < 2:
        raise ValueError("box must be at least 2")
    n = b.dim
    zs = int_box((box,) * n)
    zs = zs[np.any(zs != 0, axis=1)]
    carts = zs @ b.matrix.T
    found = []
    for z, r in zip(zs, carts):
        mid = 0.5 * r
        rnorm = float(np.linalg.norm(r))
        thresh = 0.5 * rnorm + TIE_REL * rnorm
        others = ~np.all(zs == z, axis=1)
        if np.linalg.norm(carts[others] - mid, axis=1).min() > thresh:
            found.append(canonical_sign(z))
    uniq = sorted(set(found),
                  key=lambda t: (float(np.linalg.norm(b.matrix @ np.asarray(t, float))), t))
    carts = np.array([b.matrix @ np.asarray(t, float) for t in uniq])
    return RelevantVectorSet(vectors=tuple(LatticeVector(t) for t in uniq),
                             cartesians=carts)


def minimality_witness(cell: Basis, lattice: Basis, axis: int,
                       grid: int = WITNESS_GRID):
    """Search for a point pair that breaks the block with one layer removed.

    Returns (p1, p2, gap) where the distance computed with layers[axis] - 1
    layers on the given axis exceeds the true distance by gap > 1e-9, or
    None if no witness is found.  Candidate pairs come from images of the
    Voronoi cell's vertices (nudged inward, since exact vertex pairs are
    distance ties) and from all pairs of a per-axis fractional grid.

    When layers[axis] == 1 the reduced block has no copies at all along
    that axis, and a witness is almost always found.  Its gap then shows
    only that zero layers on that axis fail; it says nothing about whether
    the 3^n block (one layer per axis) is sufficient.  Check that claim
    directly, for example against a larger block.
    """
    counts = copies_mod.copy_counts(cell, lattice)
    n = cell.dim
    full = int_box(counts.layers)
    restricted_layers = list(counts.layers)
    restricted_layers[axis] -= 1
    restricted = int_box(restricted_layers)
    m = cell.matrix

    full_sh = full @ m.T
    res_sh = restricted @ m.T

    def check(delta: np.ndarray):
        true_d = np.linalg.norm(delta @ m.T + full_sh[:, None, :], axis=-1).min(axis=0)
        res_d = np.linalg.norm(delta @ m.T + res_sh[:, None, :], axis=-1).min(axis=0)
        hits = np.flatnonzero(res_d - true_d > WITNESS_GAP)
        if len(hits):
            k = int(hits[0])
            d = delta[k]
            p1 = np.maximum(0.0, -d)
            return p1, p1 + d, float(res_d[k] - true_d[k])
        return None

    vc = voronoi_mod.voronoi_cell(lattice)
    vertex_fracs = vc.vertices @ np.linalg.inv(m).T
    deltas = []
    for scale in (1.0, 1.0 - 1e-3, 1.0 - 1e-2, 0.9):
        base = vertex_fracs * scale
        frac = base - np.floor(base)
        for shift in itertools.product((0.0, -1.0), repeat=n):
            deltas.append(frac + np.array(shift))
    hit = check(np.vstack(deltas))
    if hit is not None:
        return hit

    steps = np.arange(-(grid - 1), grid) / grid
    delta_grid = np.array(list(itertools.product(steps, repeat=n)))
    chunk = max(1, 200_000 // max(1, len(full)))
    for start in range(0, len(delta_grid), chunk):
        hit = check(delta_grid[start:start + chunk])
        if hit is not None:
            return hit
    return None
