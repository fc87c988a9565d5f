"""Shared fixtures, random lattice generators, and enumeration oracles."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import minimage as mi
from minimage.core import canonical_sign

# Tests reuse the checks of scripts/type_sweep.py.
sys.path.append(str(Path(__file__).resolve().parent.parent / "scripts"))

# One line per acceptance criterion, echoed after the run (see the
# pytest_terminal_summary hook below); populated by tests/test_acceptance.py.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

# ---------------------------------------------------------------------------
# Frozen fixtures

HEX_2D = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])
SKEW_2D = np.array([[1.0, -5.0], [0.0, 1.0]])          # columns (1,0), (-5,1)
FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]).T

# A 3D lattice whose successive minima are attained only by a vector triple
# with no all-obtuse signing (the product of its three pairwise inner
# products is positive, so no sign flips fix it).
NO_OBTUSE_SHORTEST_3D = np.array([
    [0.77965451, 0.57399889, -0.74925534],
    [0.21052717, 0.18402582, -0.16739624],
    [-0.02412731, -0.00314152, 0.04661637],
])

# A 3D lattice whose fully reduced basis (shortest, all pairwise inner
# products <= 0) still has a reach extent h = 1.0319 > 1: the plain 3^3
# image block returns a wrong distance for some pairs (the pair
# `oracle.minimality_witness` constructs on axis 0 is off by 2.5e-6).
REDUCED_BUT_H_ABOVE_1 = np.array([
    [0.13125135, -0.35959709, -0.04705178],
    [0.09806472, -0.24771099, -0.06635602],
    [-0.17092042, 0.46656115, 0.07239761],
])


@pytest.fixture
def identity2():
    return mi.validate_basis(np.eye(2))


@pytest.fixture
def identity3():
    return mi.validate_basis(np.eye(3))


@pytest.fixture
def hexagonal2():
    return mi.validate_basis(HEX_2D)


@pytest.fixture
def fcc():
    return mi.validate_basis(FCC)


def basis_pool() -> list[mi.Basis]:
    """A small mixed bag of well-understood bases used by property tests."""
    return [
        mi.validate_basis(np.eye(2)),
        mi.validate_basis(HEX_2D),
        mi.validate_basis(SKEW_2D),
        mi.validate_basis(np.array([[2.0, 1.0], [0.0, 1.5]])),
        mi.validate_basis(np.eye(3)),
        mi.validate_basis(FCC),
        mi.cell_params_to_basis(2, 3, 4, 80, 95, 100),
        mi.cell_params_to_basis(1, 1.1, 1.2, 100, 95, 98),
    ]


# ---------------------------------------------------------------------------
# Random generators (all deterministic through the caller's rng)

def random_cond_basis(rng, n: int, cond: float) -> mi.Basis:
    """Random basis with prescribed 2-norm condition number."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = np.geomspace(1.0, 1.0 / cond, n)
    return mi.validate_basis(q1 @ np.diag(s) @ q2 * rng.uniform(0.5, 2.0))


def skewed_basis(rng, matrix, cond: float) -> mi.Basis:
    """The lattice of ``matrix``, randomly rotated, through a basis built by
    random +-1 column shears until its condition number reaches ``cond``."""
    n = len(matrix)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q @ matrix
    while np.linalg.cond(m) < cond:
        i, j = rng.choice(n, size=2, replace=False)
        m[:, j] += (1.0 if rng.random() < 0.5 else -1.0) * m[:, i]
    return mi.validate_basis(m)


def random_unimodular(rng, n: int, steps: int = 6, kmax: int = 3) -> np.ndarray:
    u = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        k = int(rng.integers(1, kmax + 1)) * (1 if rng.random() < 0.5 else -1)
        u[:, j] += k * u[:, i]
    if rng.random() < 0.5:
        perm = rng.permutation(n)
        u = u[:, perm]
    return u


def random_obtuse_2d(rng, distort: bool = False) -> mi.Basis:
    """Strictly obtuse tie-free 2D lattice, given by its reduced basis."""
    while True:
        blen = rng.uniform(1.0, 1.22)
        theta = np.radians(rng.uniform(93.0, 109.0))
        m = np.array([[1.0, blen * np.cos(theta)], [0.0, blen * np.sin(theta)]])
        b = mi.validate_basis(m)
        if not mi.is_reduced(b):
            continue
        if len(mi.relevant_vectors(b).vectors) != 3:
            continue
        if m[0, 1] > -0.02:
            continue
        break
    if distort:
        b = mi.validate_basis(b.matrix @ random_unimodular(rng, 2))
    return b


def random_obtuse_3d(rng, distort: bool = False) -> mi.Basis:
    """Strictly obtuse tie-free generic 3D lattice (its own reduced basis)."""
    while True:
        try:
            b = mi.cell_params_to_basis(
                rng.uniform(1.0, 1.08), rng.uniform(1.1, 1.18), rng.uniform(1.2, 1.3),
                rng.uniform(93.0, 106.0), rng.uniform(93.0, 106.0), rng.uniform(93.0, 106.0),
            )
        except mi.InvalidCellParameters:
            continue
        if not mi.is_reduced(b):
            continue
        if len(mi.relevant_vectors(b).vectors) != 7:
            continue
        g = b.matrix.T @ b.matrix
        nr = np.sqrt(np.diag(g))
        if max(g[i, j] / (nr[i] * nr[j])
               for i, j in itertools.combinations(range(3), 2)) > -0.02:
            continue
        break
    if distort:
        b = mi.validate_basis(b.matrix @ random_unimodular(rng, 3))
    return b


# ---------------------------------------------------------------------------
# Enumeration oracles (independent of the reduction / coset fast paths)

def enumerated_minima(matrix: np.ndarray, box) -> np.ndarray:
    """Successive minima of the lattice by greedy rank over a coefficient box
    (|z_k| <= box, or box[k])."""
    n = matrix.shape[0]
    zs = np.array(list(itertools.product(*[range(-k, k + 1)
                                           for k in np.broadcast_to(box, (n,))])))
    zs = zs[np.any(zs != 0, axis=1)]
    lens = np.linalg.norm(zs @ matrix.T, axis=1)
    order = np.argsort(lens, kind="stable")
    chosen: list[np.ndarray] = []
    vals: list[float] = []
    for idx in order:
        stack = np.array(chosen + [zs[idx]], dtype=float)
        if np.linalg.matrix_rank(stack) > len(chosen):
            chosen.append(zs[idx])
            vals.append(float(lens[idx]))
            if len(chosen) == n:
                break
    return np.array(vals)


def gram_cosines(m: np.ndarray) -> list[float]:
    """Cosines of the column pairs (i, j), i < j, of ``m``."""
    g = m.T @ m
    nr = np.sqrt(np.diag(g))
    return [g[i, j] / (nr[i] * nr[j])
            for i, j in itertools.combinations(range(m.shape[0]), 2)]


def brute_voronoi(red: mi.Basis) -> tuple[np.ndarray, np.ndarray]:
    """Relevant vectors and Voronoi-cell vertices of a reduced basis's lattice.

    The relevant vectors come from ``oracle.brute_relevant`` as integer rows
    (one per +-pair) in the coordinates of ``red``; a coefficient box of 2
    holds all of them for a reduced basis.  Every n-subset of their bisector
    planes is intersected and the points inside all halfspaces are kept.
    No reduction or Voronoi code of the package is involved.
    """
    n = red.dim
    rel = np.array([v.coeffs for v in mi.oracle.brute_relevant(red, 2).vectors])
    normals = np.vstack([rel, -rel]) @ red.matrix.T
    offsets = 0.5 * np.einsum("ij,ij->i", normals, normals)
    combos = np.array(list(itertools.combinations(range(len(normals)), n)))
    planes = normals[combos]
    regular = (np.abs(np.linalg.det(planes))
               > 1e-10 * np.prod(np.linalg.norm(planes, axis=2), axis=1))
    verts = np.linalg.solve(planes[regular],
                            offsets[combos[regular]][..., None])[..., 0]
    return rel, verts[np.all(verts @ normals.T <= offsets * (1 + 1e-9), axis=1)]


def brute_extents(vertices: np.ndarray, cell_matrix: np.ndarray) -> np.ndarray:
    """Half-extents h_i of a Voronoi cell along a cell's fractional axes."""
    return np.abs(vertices @ np.linalg.inv(cell_matrix).T).max(axis=0)


def relevant_cell_extents(red: mi.Basis) -> dict:
    """Extents h of every unimodular cell spanned by n relevant vectors.

    Keyed like ``CellBasisCandidate.canonical_key``: sign-normalized integer
    columns in the coordinates of ``red``, sorted; h follows the key's
    column order.
    """
    rel, verts = brute_voronoi(red)
    out = {}
    for combo in itertools.combinations(rel, red.dim):
        key = tuple(sorted(canonical_sign(c) for c in combo))
        z = np.array(key, dtype=float).T
        if round(abs(np.linalg.det(z))) == 1:
            out[key] = brute_extents(verts, red.matrix @ z)
    return out


def block_excess(matrix: np.ndarray, layers, deltas) -> float:
    """Largest relative excess of block-minimum distances over true ones.

    ``deltas`` are fractional point differences in (-1, 1)^n.  The block
    holds the images t with |t_i| <= layers[i].  The true minimum is taken
    over |t_i| <= d0 |row_i(M^-1)| + 1, with d0 the largest block minimum:
    every image at distance <= d0 lies in that box.
    """
    deltas = np.atleast_2d(deltas)

    def nearest(radii):
        t = np.array(list(itertools.product(*[range(-m, m + 1) for m in radii])))
        return np.linalg.norm((deltas[:, None, :] + t) @ matrix.T, axis=-1).min(axis=1)

    d_block = nearest(layers)
    rows = np.linalg.norm(np.linalg.inv(matrix), axis=1)
    d_true = nearest(np.floor(d_block.max() * rows + 1).astype(int))
    return float((d_block / d_true - 1.0).max())


# ---------------------------------------------------------------------------
# Domain key tables

def domain_keys_2d() -> set:
    return {((0, 1), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1))}


def _vsum(*vs):
    return tuple(int(sum(x)) for x in zip(*vs))


def domain_table_3d_19() -> set:
    """The 19 spanning-vector sets often quoted for generic obtuse lattices."""
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    d, e, f, g = _vsum(a, b), _vsum(a, c), _vsum(b, c), _vsum(a, b, c)
    sets = [
        (a, b, c), (a, b, e), (a, b, f), (a, b, g),
        (a, d, c), (a, d, e), (a, d, g), (a, f, c),
        (a, g, c), (a, g, e), (d, b, c), (d, b, f),
        (d, b, g), (e, b, c), (e, g, c), (e, f, c),
        (g, b, c), (g, b, f), (g, f, c),
    ]
    return {tuple(sorted(canonical_sign(v) for v in s)) for s in sets}


def domain_keys_3d_generic() -> set:
    """At most these 16 sets satisfy the covering condition.

    Mildly obtuse lattices admit all 16; stronger anisotropy pushes some of
    them past one layer, so fewer remain.

    The three dropped members of the 19-entry table have the shape
    (x, x+y, x+z); each places the relevant vector y+z at fractional
    coordinates (-2, 1, 1) of the cell, two layers out, and brute-force
    witness pairs show the 3^3 block then returns wrong distances.
    """
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    d, e, f = _vsum(a, b), _vsum(a, c), _vsum(b, c)
    dropped = [(a, d, e), (b, d, f), (c, e, f)]
    keys = {tuple(sorted(canonical_sign(v) for v in s)) for s in dropped}
    return domain_table_3d_19() - keys
