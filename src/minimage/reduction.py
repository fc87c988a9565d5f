"""Shortest lattice bases in 2D and 3D, sign-normalized toward obtuseness.

The output is a basis of shortest linearly independent lattice vectors,
ordered by norm, signed so that all pairwise inner products are
non-positive whenever some shortest basis admits that.  Every 2D basis
does; a 3D triple does iff g12 g13 g23 <= 0, a product no sign flip
changes, and about half of random 3D lattices have a shortest basis,
unique up to signs, with a positive product.  Shortness takes precedence.

A pairwise Lagrange-Gauss reduction gives the 2D answer and the starting
superbase (v1, v2, v3, -v1-v2-v3) of the 3D Selling iteration: while any
of its six pairwise inner products is positive, the worst pair is flipped,
which strictly decreases the norm-square sum.  The vectors attaining the
successive minima then have coefficients in {-1, 0, 1} with respect to the
superbase, so one array pass over the unimodular triples of those
candidates finds every shortest triple, ties within NORM_TIE included, and
one ranking over all tied triples, orderings and signings picks among them.

The ranking keys of a signing s are its acute count, its worst acute
cosine and its negated flattened Cartesian tuple.  The first two depend on
s only through the products s_a s_b, so s and -s share them, and the third
of -s is the negation of that of s: between the two, the winner makes the
first nonzero Cartesian entry of the first column positive.  So when one
set ties and its norms strictly increase (the common case; in 2D, every
pair whose two norms differ), there is one ordering and 2^(n-1) signings
to rank, and Python compares over the cosines, computed once with the
array pass's products and roots, rank them with the same bits.  Several
tied sets or equal norms (cubic, square, FCC) take the array pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Basis, int_box, int_dets, matvecs, row_dots, unimodular_inverse
from .errors import ReductionNonConvergence

MAX_ITERATIONS = 1000
# Cosines smaller than this in magnitude are snapped to zero, so exact
# 90 degree angles are recognized as such.
COS_SNAP = 1e-9
# Sorted norm profiles within this relative window of the shortest count
# as tied, so rounding cannot choose among tied shortest triples.
NORM_TIE = 1e-9
# is_reduced checks shortness over the coefficient box of this half-width.
_SHORTNESS_BOX = 4


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """A reduced basis plus the unimodular transform that produced it.

    ``basis.matrix == input.matrix @ transform`` holds exactly at the level
    of the integer combination (a single float matmul away from the input).
    ``superbase`` is an obtuse superbase in ``basis`` coordinates: Selling's
    in 3D, and in 2D the obtuse basis and minus its sum.  ``inverse``, the
    exact inverse of ``transform``, is computed here when not given.  The
    three are kept as read-only int64 arrays: one that already is one and
    owns its data (as ``reduce`` hands them over) is kept, anything else (a
    list, a writeable array, a view) is copied.
    """

    basis: Basis
    transform: np.ndarray
    superbase: np.ndarray
    inverse: np.ndarray | None = None

    def __post_init__(self):
        if self.inverse is None:
            object.__setattr__(self, "inverse", unimodular_inverse(self.transform))
        for name in ("transform", "superbase", "inverse"):
            t = getattr(self, name)
            if not (type(t) is np.ndarray and t.dtype == np.int64
                    and t.flags.owndata and not t.flags.writeable):
                t = np.array(t, dtype=np.int64)
                t.flags.writeable = False
                object.__setattr__(self, name, t)

    @property
    def norms(self) -> np.ndarray:
        return self.basis.column_norms()


def reduce(b: Basis) -> ReducedBasis:
    """Reduce ``b`` to a shortest basis of the same lattice.

    Shortness always wins: the output attains the successive minima.  It is
    all-obtuse whenever some shortest basis admits that; otherwise (about
    half of 3D lattices) the signing with the least acute violation is
    returned, and is_reduced reports it as not fully reduced.
    """
    m = b.matrix
    vecs, carts, n2 = _gauss_columns(m)
    if b.dim == 2:
        u = _ranked_config(vecs, carts, n2, _PAIR)
    else:
        s, vecs, carts, n2, sets = _selling_shortest_triples(m, vecs)
        u = _ranked_config(vecs, carts, n2, sets)
    uinv = unimodular_inverse(u)
    # A 2D superbase is the obtuse basis and minus its sum.
    superbase = _START[2] if b.dim == 2 else uinv @ s
    for t in (u, uinv, superbase):
        t.flags.writeable = False
    return ReducedBasis(basis=Basis(m @ u), transform=u, superbase=superbase, inverse=uinv)


def is_reduced(b: Basis) -> bool:
    """Check the reduced-basis invariants of ``b``.

    Ordering and obtuseness are read off the Gram matrix; shortness is
    verified by enumerating all lattice vectors with every |coefficient| <=
    _SHORTNESS_BOX and comparing against the successive minima.
    """
    m, n = b.matrix, b.dim
    norms = np.linalg.norm(m, axis=0)
    if (any(norms[i] > norms[i + 1] * (1.0 + COS_SNAP) for i in range(n - 1))
            or any(float(m[:, i] @ m[:, j]) > COS_SNAP * norms[i] * norms[j]
                   for i, j in itertools.combinations(range(n), 2))):
        return False
    zs = _SHORTNESS[n]
    lens = np.linalg.norm(zs @ m.T, axis=1)
    # Column k must be no longer than any vector independent of columns < k.
    return all(lens[np.any(zs[:, k:] != 0, axis=1)].min() >= norms[k] * (1.0 - 1e-9)
               for k in range(n))


# Per dimension, the coefficient box is_reduced enumerates.
_SHORTNESS = {n: int_box((_SHORTNESS_BOX,) * n) for n in (2, 3)}


def _gauss_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise Lagrange-Gauss reduction of the columns of ``m``.

    Columns stay in ascending norm.  Column k is rounded against each
    shorter column in turn; if the result is no shorter than column k - 1
    the steps move on to column k + 1, otherwise it drops to its place and
    the steps resume there.  For n = 2 this is Lagrange-Gauss.  Returns the
    columns as coefficient rows, their Cartesian rows and their squared
    norms, with the bits of the 1-D products ``m @ z`` and ``c @ c``: each
    column carries its Cartesian row, recomputed only when a nonzero
    rounding step moves it.
    """
    eye = _EYE[len(m)]
    carts = matvecs(m, eye)
    cols = sorted(zip(row_dots(carts, carts).tolist(), eye, carts), key=lambda c: c[0])
    k = 1
    for _ in range(MAX_ITERATIONS):
        if k == len(cols):
            n2, vecs, carts = zip(*cols)
            return np.array(vecs), np.array(carts), np.array(n2)
        v2, v, cv = cols.pop(k)
        w, cw = v, cv
        for u2, u, cu in cols[:k]:
            q = float(cu @ cw) / u2
            if not abs(q) < 2.0 ** 53:  # where a float stops being an exact integer
                raise ReductionNonConvergence("Lagrange-Gauss coefficient reached 2**53")
            r = round(q)
            if r:
                w = w - r * u
                cw = m @ w
        w2 = v2 if w is v else float(cw @ cw)
        p = sum(u2 <= w2 for u2, _, _ in cols[:k])
        # Rounding at a norm tie can lengthen a column by noise.  Only the
        # last column keeps such a step, as Lagrange-Gauss does, so the
        # columns stay sorted, never grow, and the steps terminate.
        if p == k < len(cols) and w2 > v2:
            w2, w, cw = v2, v, cv
        cols.insert(p, (w2, w, cw))
        k = max(p, 1) if p < k else k + 1
    raise ReductionNonConvergence(
        f"Lagrange-Gauss did not converge in {MAX_ITERATIONS} steps"
    )


def _selling_shortest_triples(m: np.ndarray, start: np.ndarray):
    """Selling-reduce the superbase of the coefficient rows ``start``.

    Returns the superbase as integer columns in the input basis; the 13
    candidates as coefficient rows in the input basis, with their Cartesian
    rows and squared norms (the bits of ``matvecs`` and ``row_dots``); and
    the index rows of every unimodular triple whose sorted norm profile
    ties the lexicographic minimum within NORM_TIE.
    """
    s = start.T @ _START[3]
    for _ in range(MAX_ITERATIONS):
        c = m @ s
        gram = (c.T @ c).tolist()
        # Flip the pair with the largest inner product above the snap, the
        # first in (i, j) order on a tie.
        best, flip = 0.0, None
        for (i, j), f in _FLIPS:
            g = gram[i][j]
            if g > best and g > COS_SNAP * (math.sqrt(gram[i][i]) * math.sqrt(gram[j][j])):
                best, flip = g, f
        if flip is None:
            break
        s = s @ flip
    else:
        raise ReductionNonConvergence(
            f"Selling iteration did not converge in {MAX_ITERATIONS} steps"
        )

    w = _CANDIDATES @ s[:, :3].T
    carts = matvecs(m, w)
    n2 = row_dots(carts, carts)
    profiles = np.sort(np.sqrt(n2)[_TRIPLES], axis=1)
    # The tie-aware lexicographic minimum; the first row at each running
    # minimum survives its filter, so the result is never empty.
    keep = np.ones(len(_TRIPLES), dtype=bool)
    for col in profiles.T:
        keep &= col <= col[keep].min() * (1.0 + NORM_TIE)
    return s, w, carts, n2, _TRIPLES[keep]


# Per dimension: the identity, and the superbase (e_1, ..., e_n, -sum e_i).
_EYE = {n: np.eye(n, dtype=np.int64) for n in (2, 3)}
_START = {n: np.hstack([_EYE[n], -np.ones((n, 1), dtype=np.int64)]) for n in (2, 3)}
# Every 2D ReducedBasis shares its superbase.
for _t in _START.values():
    _t.flags.writeable = False
# The one index pair a 2D basis is ranked over.
_PAIR = np.array([[0, 1]])

# The 13 vectors of {-1, 0, 1}^3 with a positive first nonzero entry, and
# the index triples of those with determinant +-1.  The superbase is
# unimodular, so it keeps these triples.
_CANDIDATES = int_box((1, 1, 1))[14:]
_TRIPLES = np.array(list(itertools.combinations(range(13), 3)))
_TRIPLES = _TRIPLES[np.abs(int_dets(_CANDIDATES[_TRIPLES])) == 1]


def _selling_step(i: int, j: int) -> np.ndarray:
    """Integer matrix of the Selling step on the superbase pair (i, j):
    column i is added to the two columns other than i and j, then negated."""
    f = np.eye(4, dtype=np.int64)
    f[i] = [x not in (i, j) for x in range(4)]
    f[i, i] = -1
    return f


# The six superbase pairs i < j in (i, j) order, each with its step.
_FLIPS = [((i, j), _selling_step(i, j)) for i, j in itertools.combinations(range(4), 2)]


# Per dimension: orderings and signings in tie-break order, and pairs a < b;
# for the direct ranking, the pairs as two index lists, and the signings
# with a positive first sign, each with its sign product per pair.
_CONFIGS = {n: (np.array(list(itertools.permutations(range(n)))),
                np.array(list(itertools.product((1, -1), repeat=n))),
                np.array(list(itertools.combinations(range(n), 2))).T) for n in (2, 3)}
_PAIRS = {n: tuple(c.tolist()) for n, (_, _, c) in _CONFIGS.items()}
_SIGNINGS = {n: [(s, [s[i] * s[j] for i, j in zip(*_PAIRS[n])])
                 for s in itertools.product((1, -1), repeat=n) if s[0] == 1]
             for n in (2, 3)}


def _ranked_config(vecs: np.ndarray, carts: np.ndarray, n2: np.ndarray,
                   sets: np.ndarray) -> np.ndarray:
    """The columns of the best ordering and signing of the best tied set.

    ``sets`` holds index rows into the coefficient rows ``vecs``, whose
    Cartesian rows ``carts`` and squared norms ``n2`` carry the bits of
    ``matvecs`` and ``row_dots``.  Over all sets, norm-ascending orderings
    and sign patterns the rank is: fewest acute pairs (cosines above
    COS_SNAP), smallest worst acute cosine, largest flattened Cartesian
    tuple (negated, so the rank is minimized); exact ties go to the first
    (set, ordering, signing).  Products keep the bits of per-vector 1-D
    products, and roots those of ``x ** 0.5``.

    One set with strictly increasing norms has one ordering, and of each
    signing s and its negation -s (equal in the first two keys, opposite
    in the third) the one whose first column has a positive first nonzero
    Cartesian entry wins, so :func:`_ranked_untied` ranks the 2^(n-1)
    signings left.  Several sets or equal norms take :func:`_ranked_array`.
    """
    if len(sets) == 1:
        norms = n2.tolist()
        idx = sorted(sets[0].tolist(), key=norms.__getitem__)
        if all(norms[i] < norms[j] for i, j in zip(idx, idx[1:])):
            return _ranked_untied(vecs, carts, norms, idx)
    return _ranked_array(vecs, carts, n2, sets)


def _ranked_untied(vecs: np.ndarray, carts: np.ndarray, norms: list,
                   idx: list) -> np.ndarray:
    """The ranking of :func:`_ranked_config` for the one ordering ``idx``
    (norms strictly increasing).  The cosines take one ``row_dots`` call and
    ``x ** 0.5`` roots, the operations the array pass does element by
    element, and a sign flip is exact, so the ranks carry its bits.  -0.0
    and 0.0 compare equal here as in ``lexsort``."""
    n = len(idx)
    a, b = ([idx[i] for i in side] for side in _PAIRS[n])
    dots = row_dots(carts.take(a, axis=0), carts.take(b, axis=0)).tolist()
    cosines = [g / (norms[i] * norms[j]) ** 0.5 for g, i, j in zip(dots, a, b)]
    rows = [carts[i].tolist() for i in idx]
    first = 1 if next(x for x in rows[0] if x) > 0 else -1

    def key(signs):
        return [-first * s * x for s, row in zip(signs, rows) for x in row]

    best = best_rank = None
    for signs, products in _SIGNINGS[n]:
        acute = [x for x in (c * p for c, p in zip(cosines, products)) if x > COS_SNAP]
        rank = (len(acute), max(acute, default=0.0))
        if best is None or rank < best_rank or rank == best_rank and key(signs) < key(best):
            best, best_rank = signs, rank
    v = vecs.tolist()
    return np.array([[first * s * v[i][k] for s, i in zip(best, idx)] for k in range(n)],
                    dtype=np.int64)


def _ranked_array(vecs: np.ndarray, carts: np.ndarray, n2: np.ndarray,
                  sets: np.ndarray) -> np.ndarray:
    """The ranking of :func:`_ranked_config` in one array pass over every
    set and norm-ascending ordering, and of each signing s and its negation
    -s the one whose first column has a positive first nonzero Cartesian
    entry: the other loses to it on the third key.  The kept signings of an
    ordering are the half of ``itertools.product`` order with that first
    sign, so exact ties still go to the first (set, ordering, signing)."""
    n = vecs.shape[1]
    perms, signs, (a, b) = _CONFIGS[n]
    idx = sets[:, perms].reshape(-1, n)
    idx = idx[np.all(n2[idx[:, :-1]] <= n2[idx[:, 1:]], axis=1)]
    lead = carts[np.arange(len(carts)), (carts != 0).argmax(axis=1)] < 0
    signs = signs.reshape(2, -1, n)[lead[idx[:, 0]].astype(np.intp)]  # ordering x signing x n
    ia, ib = idx[:, a], idx[:, b]
    root = np.reshape([x ** 0.5 for x in (n2[ia] * n2[ib]).ravel().tolist()], ia.shape)
    cos = (row_dots(carts[ia], carts[ib]) / root)[:, None] * (signs[:, :, a] * signs[:, :, b])
    acute = cos > COS_SNAP
    key = -(signs[:, :, :, None] * carts[idx][:, None]).reshape(-1, n * n)
    best = np.lexsort((*key.T[::-1], np.where(acute, cos, 0.0).max(axis=-1).ravel(),
                       acute.sum(axis=-1).ravel()))[0]
    half = signs.shape[1]
    return np.ascontiguousarray((signs[best // half, best % half][:, None]
                                 * vecs[idx[best // half]]).T)
