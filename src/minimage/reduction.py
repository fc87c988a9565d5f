"""Shortest lattice bases in 2D and 3D, sign-normalized toward obtuseness.

The normal form produced here is a basis of shortest linearly independent
lattice vectors, ordered by norm, with signs chosen so that all pairwise
inner products are non-positive (enclosed angles >= 90 degrees) whenever
such a signing exists; in 2D it always does, in 3D a small family of
lattices admits none and shortness takes precedence.

2D uses the Lagrange-Gauss iteration, which is optimal outright.  3D runs
a Selling iteration on the superbase (v1, v2, v3, -v1-v2-v3): while any of
the six pairwise inner products is positive, the worst pair is flipped,
which strictly decreases the norm-square sum.  After convergence the
vectors attaining the successive minima all have coefficients in
{-1, 0, 1} with respect to the superbase, so an exhaustive search over
those candidates finds every shortest unimodular triple.

The output is deterministic: ties in norm are broken by maximizing the
flattened Cartesian column tuple over all admissible orderings and sign
patterns, which keeps e.g. the identity basis fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Basis, canonical_sign, int_box, int_det, validate_basis
from .errors import ReductionNonConvergence

MAX_ITERATIONS = 1000
# Cosines smaller than this in magnitude are snapped to zero, so exact
# 90 degree angles are recognized as such.
COS_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """A reduced basis plus the unimodular transform that produced it.

    ``basis.matrix == input.matrix @ transform`` holds exactly at the level
    of the integer combination (a single float matmul away from the input).
    """

    basis: Basis
    transform: np.ndarray

    def __post_init__(self):
        t = np.array(self.transform, dtype=np.int64, copy=True)
        t.flags.writeable = False
        object.__setattr__(self, "transform", t)

    @property
    def norms(self) -> np.ndarray:
        return self.basis.column_norms()


def reduce(b: Basis) -> ReducedBasis:
    """Reduce ``b`` to a shortest basis of the same lattice.

    Shortness always wins: the output attains the successive minima.  Among
    the sign choices of a shortest triple an all-obtuse one is preferred
    and almost always exists; a small family of 3D lattices admits no
    shortest basis with pairwise non-positive inner products, and for those
    the sign pattern with the least acute violation is returned instead
    (is_reduced reports such bases honestly as not fully reduced).
    """
    if b.dim == 2:
        triples = [_gauss_columns(b)]
    else:
        triples = _selling_shortest_triples(b)
    _, best_cols = min((_ranked_config(b.matrix, tri) for tri in triples),
                       key=lambda cfg: cfg[0])
    u = np.column_stack(best_cols).astype(np.int64)
    return ReducedBasis(basis=validate_basis(b.matrix @ u), transform=u)


def is_reduced(b: Basis, box=4) -> bool:
    """Check the reduced-basis invariants of ``b``.

    Ordering and obtuseness are read off the Gram matrix; shortness is
    verified by enumerating all lattice vectors with |coefficient k| <= box
    (or box[k]) and comparing against the successive minima.
    """
    m = b.matrix
    n = b.dim
    norms = np.linalg.norm(m, axis=0)
    tol = COS_SNAP
    for i in range(n - 1):
        if norms[i] > norms[i + 1] * (1.0 + tol):
            return False
    for i, j in itertools.combinations(range(n), 2):
        if float(m[:, i] @ m[:, j]) > tol * norms[i] * norms[j]:
            return False
    zs = int_box(np.broadcast_to(box, (n,)))
    lens = np.linalg.norm(zs @ m.T, axis=1)
    # Column k must be no longer than any vector independent of columns < k.
    return all(lens[np.any(zs[:, k:] != 0, axis=1)].min() >= norms[k] * (1.0 - 1e-9)
               for k in range(n))


def _norm2(m: np.ndarray, z: np.ndarray) -> float:
    c = m @ z
    return float(c @ c)


def _gauss_columns(b: Basis) -> list[np.ndarray]:
    m = b.matrix
    u = np.array([1, 0], dtype=np.int64)
    v = np.array([0, 1], dtype=np.int64)
    if _norm2(m, u) > _norm2(m, v):
        u, v = v, u
    for _ in range(MAX_ITERATIONS):
        cu = m @ u
        cv = m @ v
        t = round(float(cu @ cv) / float(cu @ cu))
        v = v - t * u
        if _norm2(m, v) >= _norm2(m, u):
            return [u, v]
        u, v = v, u
    raise ReductionNonConvergence(
        f"Lagrange-Gauss did not converge in {MAX_ITERATIONS} steps"
    )


def _selling_shortest_triples(b: Basis) -> list[list[np.ndarray]]:
    """Selling-reduce, then collect the shortest unimodular triples.

    After a Selling-reduced superbase is reached, every vector attaining a
    successive minimum has coefficients in {-1, 0, 1} with respect to it,
    so the exhaustive search below returns every unimodular triple
    achieving the minimal sorted norm profile, as integer coefficient
    columns with respect to the input basis.
    """
    m = b.matrix
    s = np.array([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], dtype=np.int64)
    pairs = list(itertools.combinations(range(4), 2))
    for _ in range(MAX_ITERATIONS):
        c = m @ s
        norms = np.linalg.norm(c, axis=0)
        worst = None
        worst_dot = 0.0
        for i, j in pairs:
            d = float(c[:, i] @ c[:, j])
            if d > COS_SNAP * norms[i] * norms[j] and d > worst_dot:
                worst = (i, j)
                worst_dot = d
        if worst is None:
            break
        i, j = worst
        k, l = (x for x in range(4) if x not in (i, j))
        wi = s[:, i].copy()
        s[:, k] += wi
        s[:, l] += wi
        s[:, i] = -wi
    else:
        raise ReductionNonConvergence(
            f"Selling iteration did not converge in {MAX_ITERATIONS} steps"
        )

    s3 = s[:, :3]
    seen = set()
    cands = []
    for z in itertools.product((-1, 0, 1), repeat=3):
        if not any(z):
            continue
        key = canonical_sign(z)
        if key in seen:
            continue
        seen.add(key)
        cands.append(np.array(key, dtype=np.int64))
    carts = np.array([m @ (s3 @ z) for z in cands])
    n2 = np.einsum("ij,ij->i", carts, carts)
    order = np.argsort(n2, kind="stable")
    cands = [cands[i] for i in order]
    n2 = n2[order]

    best_profile = None
    best: list[tuple[int, int, int]] = []
    for i, j, k in itertools.combinations(range(len(cands)), 3):
        profile = (n2[i], n2[j], n2[k])
        if best_profile is not None and profile > best_profile:
            continue
        if abs(int_det(np.column_stack([cands[i], cands[j], cands[k]]))) != 1:
            continue
        if best_profile is None or profile < best_profile:
            best_profile = profile
            best = [(i, j, k)]
        else:
            best.append((i, j, k))
    # The identity triple is unimodular, so the search cannot come back empty.
    return [[s3 @ cands[i] for i in tri] for tri in best]


def _ranked_config(matrix: np.ndarray, cols: list[np.ndarray]):
    """Deterministic ordering and signing of a reduced vector set.

    Among all norm-ascending orderings and all sign patterns, pick the one
    with the fewest acute pairs (cosines above COS_SNAP), then the smallest
    worst acute cosine, then the largest flattened Cartesian tuple (encoded
    negated so the whole rank can be minimized).  Returns (rank, columns);
    a rank starting with 0 is an all-obtuse signing.
    """
    k = len(cols)
    carts = [matrix @ z for z in cols]
    n2 = [float(c @ c) for c in carts]
    gram = [[float(carts[a] @ carts[b]) for b in range(k)] for a in range(k)]
    best_rank = None
    best_cols = None
    for perm in itertools.permutations(range(k)):
        if any(n2[perm[a]] > n2[perm[a + 1]] for a in range(k - 1)):
            continue
        for signs in itertools.product((1, -1), repeat=k):
            cosines = [signs[a] * signs[b] * gram[perm[a]][perm[b]]
                       / (n2[perm[a]] * n2[perm[b]]) ** 0.5
                       for a, b in itertools.combinations(range(k), 2)]
            acute = [c for c in cosines if c > COS_SNAP]
            key = tuple(-float(signs[a] * x) for a in range(k) for x in carts[perm[a]])
            rank = (len(acute), max(acute, default=0.0), key)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_cols = [signs[a] * cols[perm[a]] for a in range(k)]
    return best_rank, best_cols
