"""Brute-force reference implementations, deliberately simple and slow.

These are correctness anchors for tests and for the CLI --verify flag.
They share only the lattice-core transforms with the fast paths: no basis
reduction, no superbases, just exhaustive enumeration over coefficient
boxes.  Every box a check searches is sized here by ``certified_layers``
from the basis and the answer under test, never from copy counts: the
translates t with |B (delta + t)| <= d satisfy |t_k| <= d ||row_k(B^-1)|| +
|delta_k| (Fincke-Pohst; Agrell et al., "Closest point search in
lattices", IEEE Trans. IT 48, 2002).  A distance is checked in the box of
the reported distance, so a report that is too small fails as well; the
hit set of a neighbor-list pair in the box of the cutoff ball; a block
of copies in the box of each sampled pair's block distance; relevant
vectors in the ball of radius R = sqrt(sum |b_i|^2), since a relevant r
has |r| <= 2 mu <= R (mu the covering radius) and every point contesting
its facet lies within |r|; and a reduced basis in the ball of its longest
column.  Sizing a box that one check would search over more than
ORACLE_BUDGET lattice points raises OracleBudgetExceeded, before anything
is allocated.  A box the caller passes in is searched as given, in chunks,
so memory stays bounded whatever its size.  Only ``minimality_witness``
sizes its blocks from copy counts, which it tests by design.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Basis, LatticeVector, canonical_sign, int_box, int_det
from .distance import DistanceResult
from .errors import OracleBudgetExceeded
from .voronoi import RelevantVectorSet
from . import copies as copies_mod
from . import voronoi as voronoi_mod

# Grid resolution per axis for the witness search; odd so the cell center
# is sampled.  Misses are backstopped by the injected Voronoi vertex images.
WITNESS_GRID = 33
WITNESS_GAP = 1e-9
# Most lattice points one certified check may evaluate: in 3D well under a
# second, and at most about 90 MB where a box is held whole.
ORACLE_BUDGET = 1 << 20
# Relative slack on every certified radius, far above rounding error.
_SLACK = 1e-9
# Relative window in which a contesting point ties a facet's own pair.
TIE_REL = 1e-9
# Rows per array when a box is streamed.
_BOX_CHUNK = 1 << 16


def _within_budget(points: int, what: str) -> None:
    if points > ORACLE_BUDGET:
        raise OracleBudgetExceeded(
            f"{what} needs {points:,} lattice points, over the oracle budget "
            f"of {ORACLE_BUDGET:,}")


def certified_layers(b: Basis, radius: float, delta=0.0) -> tuple[int, ...]:
    """Per-axis half-widths, at least 1, of a box holding every integer t
    with |B (delta + t)| <= radius; OracleBudgetExceeded if the box holds
    more than ORACLE_BUDGET lattice points."""
    reach = (radius * (1.0 + _SLACK) * np.linalg.norm(b.inv, axis=1)
             + np.abs(np.asarray(delta, dtype=float)))
    layers = tuple(max(1, math.ceil(float(x))) for x in reach)
    _within_budget(math.prod(2 * m + 1 for m in layers), "the certified box")
    return layers


def _box_rows(layers):
    """The rows of ``int_box(layers)``, in the same order, _BOX_CHUNK at a time."""
    for start in range(0, math.prod(2 * int(m) + 1 for m in layers), _BOX_CHUNK):
        yield int_box(layers, start, start + _BOX_CHUNK)


def brute_distance(b: Basis, p1, p2, layers) -> DistanceResult:
    """Exhaustive minimum over all translates t with |t_k| <= layers[k]; an
    int ``layers`` applies to every axis."""
    layers = tuple(layers) if np.iterable(layers) else (layers,) * b.dim
    if min(layers) < 1:
        raise ValueError("layers must be at least 1")
    delta = np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float)
    best_d2, tied = math.inf, []
    for t in _box_rows(layers):
        cart = (delta[None, :] + t) @ b.matrix.T
        d2 = np.einsum("ij,ij->i", cart, cart)
        best_d2 = min(best_d2, float(d2.min()))
        near = d2 <= best_d2 * (1.0 + 2e-12)
        tied += zip(d2[near].tolist(), map(tuple, t[near].tolist()))
    best = min(t for d2, t in tied if d2 <= best_d2 * (1.0 + 2e-12))
    d = float(np.linalg.norm(b.matrix @ (delta + np.asarray(best, dtype=float))))
    return DistanceResult(distance=d, image=LatticeVector(best))


def brute_within(b: Basis, p1, p2, radius: float, layers) -> dict[tuple[int, ...], float]:
    """Every translate t with |t_k| <= layers[k] and |B (p2 + t - p1)| <=
    radius, mapped to that distance."""
    delta = np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float)
    found = {}
    for t in _box_rows(layers):
        d = np.linalg.norm((delta[None, :] + t) @ b.matrix.T, axis=1)
        near = d <= radius
        found.update(zip(map(tuple, t[near].tolist()), d[near].tolist()))
    return found


def brute_relevant(b: Basis, box: int | None = None) -> RelevantVectorSet:
    """Facet criterion: r is relevant iff r/2 is strictly closer to {0, r}
    than to every other lattice point.

    The search covers the lattice points within R = sqrt(sum |b_i|^2) of
    the origin, in their certified box or, when ``box`` is given, in the
    coefficient box [-box, box]^n.
    """
    if box is not None and box < 2:
        raise ValueError("box must be at least 2")
    # Candidates lie within R, and a point contesting r within |r| (1 + 2 TIE_REL).
    radius = math.sqrt(float((b.matrix ** 2).sum())) * (1.0 + TIE_REL)
    reach = radius * (1.0 + 2.0 * TIE_REL)
    layers = certified_layers(b, reach) if box is None else (box,) * b.dim
    zs = np.vstack([t[np.linalg.norm(t @ b.matrix.T, axis=1) <= reach]
                    for t in _box_rows(layers)])
    zs = zs[np.any(zs != 0, axis=1)]
    carts = zs @ b.matrix.T
    norms = np.linalg.norm(carts, axis=1)
    if box is None:
        _within_budget(len(zs) ** 2, "the facet test")
    found = []
    for k in np.flatnonzero(norms <= radius):
        mid = 0.5 * carts[k]
        thresh = 0.5 * norms[k] + TIE_REL * norms[k]
        others = np.arange(len(zs)) != k
        if np.linalg.norm(carts[others] - mid, axis=1).min() > thresh:
            found.append(canonical_sign(zs[k]))
    uniq = sorted(set(found),
                  key=lambda t: (float(np.linalg.norm(b.matrix @ np.asarray(t, float))), t))
    carts = np.array([b.matrix @ np.asarray(t, float) for t in uniq])
    return RelevantVectorSet(vectors=tuple(LatticeVector(t) for t in uniq),
                             cartesians=carts)


def brute_reduced(b: Basis) -> bool:
    """True iff the columns of ``b`` attain the successive minima in order,
    pairwise obtuse if some shortest basis can be so signed: any in 2D, in
    3D one whose pairwise inner products have a product <= 0, which no sign
    flip changes.  The search covers the certified ball of the longest column."""
    m, norms = b.matrix, b.column_norms()
    zs = np.vstack([t[np.linalg.norm(t @ m.T, axis=1) <= norms.max() * (1.0 + _SLACK)]
                    for t in _box_rows(certified_layers(b, float(norms.max())))])
    lens = np.linalg.norm(zs @ m.T, axis=1)
    levels = [zs[np.abs(lens - x) <= _SLACK * x] for x in norms]
    # Column k is no longer than any vector independent of columns < k.
    if not all(lens[np.any(zs[:, k:] != 0, axis=1)].min() >= norms[k] * (1.0 - _SLACK)
               for k in range(b.dim)):
        return False
    return max(_cosines(m)) <= 0.0 or b.dim == 3 and all(
        abs(int_det(z)) != 1 or np.prod(_cosines(m @ np.transpose(z))) > 0
        for z in itertools.product(*levels))


def _cosines(m: np.ndarray) -> np.ndarray:
    """Cosines of the column pairs of ``m``, snapped to 0 within _SLACK."""
    g = m.T @ m
    i, j = np.triu_indices(len(g), 1)
    c = g[i, j] / np.sqrt(g[i, i] * g[j, j])
    return np.where(np.abs(c) <= _SLACK, 0.0, c)


def _block_minima(m: np.ndarray, deltas: np.ndarray, *blocks) -> list[np.ndarray]:
    """Per row of ``deltas``, the minimum of |M delta + M t| over the rows t
    of each block."""
    cart = deltas @ m.T
    return [np.linalg.norm(cart + (block @ m.T)[:, None, :], axis=-1).min(axis=0)
            for block in blocks]


def block_counterexample(cell: Basis, layers):
    """Among 200 seeded point pairs of the cell, one that the block of
    ``layers`` gets wrong, as (p1, p2) lists, or None.  The true minima come
    from the union of the pairs' certified boxes.  The block is budgeted
    like those boxes, before either is built."""
    pairs = np.random.default_rng(171717).random((200, 2, cell.dim))
    deltas = pairs[:, 1] - pairs[:, 0]
    _within_budget(len(deltas) * math.prod(2 * m + 1 for m in layers), "the block check")
    (d_small,) = _block_minima(cell.matrix, deltas, int_box(layers))
    boxes = [certified_layers(cell, d, delta) for d, delta in zip(d_small, deltas)]
    big = [max(axis) for axis in zip(*boxes)]
    _within_budget(len(deltas) * math.prod(2 * m + 1 for m in big), "the block check")
    (d_big,) = _block_minima(cell.matrix, deltas, int_box(big))
    bad = np.flatnonzero(d_small - d_big > 1e-12 * d_big)
    return (list(pairs[bad[0], 0]), list(pairs[bad[0], 1])) if len(bad) else None


def minimality_witness(cell: Basis, lattice: Basis, axis: int):
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
    vc = voronoi_mod.voronoi_cell(lattice)
    vertex_fracs = vc.vertices @ np.linalg.inv(m).T
    deltas = []
    for scale in (1.0, 1.0 - 1e-3, 1.0 - 1e-2, 0.9):
        base = vertex_fracs * scale
        frac = base - np.floor(base)
        for shift in itertools.product((0.0, -1.0), repeat=n):
            deltas.append(frac + np.array(shift))
    deltas = np.vstack(deltas + [int_box((WITNESS_GRID - 1,) * n) / WITNESS_GRID])
    chunk = max(1, 200_000 // len(full))
    for start in range(0, len(deltas), chunk):
        part = deltas[start:start + chunk]
        res_d, true_d = _block_minima(m, part, restricted, full)
        hits = np.flatnonzero(res_d - true_d > WITNESS_GAP)
        if len(hits):
            k = int(hits[0])
            p1 = np.maximum(0.0, -part[k])
            return p1, p1 + part[k], float(res_d[k] - true_d[k])
    return None
