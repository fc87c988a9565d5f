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
superbase, so the unimodular triples of those 13 candidates hold every
shortest triple, and one ranking over all tied triples, orderings and
signings picks among them.  The tied triples are those whose sorted norm
profile ties the lexicographic minimum within NORM_TIE.  The common case
is one of them, and a pick over the 13 norms finds it in three steps
(shortest candidate, shortest partner, shortest completion); a runner-up
within NORM_TIE at any step hands the choice to one array pass over the
profiles of all 145 triples, so the triples are those the pass keeps on
every input, and ties are resolved by the ranking, not by rounding.

Every float product keeps one numpy expression whatever the path (the
Cartesian rows ``m @ z``, the dot products, ``c.T @ c``, the roots), since
the same product formed in Python can round differently; the decisions
and the integer bookkeeping around them run in Python.  Integer
coefficients and the Selling superbase are carried as float64 (exact below
2**53), so the products with ``m`` cast nothing.

The ranking keys of a signing s are its acute count, its worst acute
cosine and its negated flattened Cartesian tuple.  The first two depend on
s only through the products s_a s_b, so s and -s share them, and the third
of -s is the negation of that of s: between the two, the winner makes the
first nonzero Cartesian entry of the first column positive.  So when one
set ties and its norms strictly increase (the common case; in 2D, every
pair whose two norms differ), there is one ordering and 2^(n-1) signings
to rank, and Python compares over the cosines, computed with the array
pass's products and roots, rank them with the same bits.  Several tied
sets or equal norms (cubic, square, FCC) take the array pass.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    if b.dim == 2:
        u = _ranked_config(*_gauss_columns(m), _PAIR)
    else:
        s, vecs, carts, n2, sets = _selling_shortest_triples(m, _gauss_columns(m)[0])
        u = _ranked_config(vecs, carts, n2, sets)
    uinv = unimodular_inverse(u)
    # A 2D superbase is the obtuse basis and minus its sum.
    superbase = _START_2D if b.dim == 2 else uinv @ s
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


def _gauss_columns(m: np.ndarray):
    """Pairwise Lagrange-Gauss reduction of the columns of ``m``.

    Columns stay in ascending norm.  Column k is rounded against each
    shorter column in turn; if the result is no shorter than column k - 1
    the steps move on to column k + 1, otherwise it drops to its place and
    the steps resume there.  For n = 2 this is Lagrange-Gauss.  Each column
    carries its Cartesian row, with the bits of the 1-D product ``m @ z``,
    recomputed only when a nonzero rounding step moves it, and its squared
    norm ``c @ c``.  Coefficient rows are carried as float64, integers that
    are exact below 2**53, so ``m @ w`` casts nothing.

    In 2D this returns the coefficient rows as int64, the Cartesian rows
    and the squared norms; in 3D the coefficient rows as float64 and None
    for the other two, since Selling reads nothing else, and its
    ``m @ s`` then casts nothing either.
    """
    eye = _EYE[len(m)]
    carts = matvecs(m, eye)
    cols = sorted(zip(row_dots(carts, carts).tolist(), eye, carts), key=lambda c: c[0])
    k = 1
    for _ in range(MAX_ITERATIONS):
        if k == len(cols):
            n2, vecs, carts = zip(*cols)
            if len(cols) == 3:
                return np.array(vecs), None, None
            return np.array(vecs, dtype=np.int64), np.array(carts), np.array(n2)
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
    ties the lexicographic minimum within NORM_TIE.  The superbase is
    carried as float64 (exact integers), so each step is one float matrix
    product on it and ``m @ s`` casts nothing.

    The common case is one such triple, which :func:`_untied_triple`
    picks from the 13 norms in three steps, each with its own NORM_TIE
    window.  A runner-up inside any window takes the array pass over the
    sorted norm profiles of all 145 triples, and the pick keeps exactly
    the row that pass would, so the rows are the pass's on every input.
    """
    s = start.T @ _START_3D
    for _ in range(MAX_ITERATIONS):
        c = m @ s
        gram = (c.T @ c).tolist()
        # Flip the pair with the largest inner product above the snap, the
        # first in (i, j) order on a tie.
        best, flip = 0.0, None
        for i, j, f in _FLIPS:
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

    s = s.astype(np.int64)
    w = _CANDIDATES @ s[:, :3].T
    carts = matvecs(m, w)
    n2 = row_dots(carts, carts)
    roots = np.sqrt(n2)
    sets = _untied_triple(roots.tolist())
    if sets is None:
        profiles = np.sort(roots[_TRIPLES], axis=1)
        # The tie-aware lexicographic minimum; the first row at each running
        # minimum survives its filter, so the result is never empty.
        keep = np.ones(len(_TRIPLES), dtype=bool)
        for col in profiles.T:
            keep &= col <= col[keep].min() * (1.0 + NORM_TIE)
        sets = _TRIPLES[keep]
    return s, w, carts, n2, sets


def _untied_triple(roots: list) -> np.ndarray | None:
    """The index row of the one shortest unimodular triple of the candidate
    norms ``roots``, as the array pass keeps it, or None on a tie.

    The pick takes the shortest candidate a, then the shortest b that forms
    a unimodular triple with a, then the shortest c that completes one with
    (a, b).  It returns None when at some step the runner-up lies within
    the pick times 1 + NORM_TIE.  Otherwise the array pass keeps exactly the
    same triple.  Its first filter keeps the profiles whose least norm is
    within the window of r_a: only triples holding a.  Among those the
    second column is the lesser norm of the other two members, so the
    second filter keeps only the triples that also hold b, and the third
    column is then the norm of the third member, which only c brings within
    the window.  So the index rows equal the array pass's on every input,
    and any tie takes that pass.
    """
    a = _lone_least(roots, _ALL)
    if a is None:
        return None
    b = _lone_least(roots, _PARTNERS[a])
    if b is None:
        return None
    c = _lone_least(roots, _THIRDS[a][b])
    if c is None:
        return None
    return np.array([sorted((a, b, c))])


def _lone_least(roots: list, within: list) -> int | None:
    """The index in ``within`` of the least of its ``roots``, or None when
    a second one lies within NORM_TIE of it, as the array pass's filters
    compare: at most the least times 1 + NORM_TIE."""
    rs = [roots[i] for i in within]
    least = min(rs)
    if sorted(rs)[1] <= least * (1.0 + NORM_TIE):
        return None
    return within[rs.index(least)]


# Per dimension, the identity as float64.  The superbase (e_1, ..., e_n,
# -sum e_i): in 3D as float64, where Selling starts from it, and in 2D as
# int64, where every ReducedBasis shares it.
_EYE = {n: np.eye(n) for n in (2, 3)}
_START_3D = np.hstack([_EYE[3], -np.ones((3, 1))])
_START_2D = np.array([[1, 0, -1], [0, 1, -1]])
_START_2D.flags.writeable = False
# The one index pair a 2D basis is ranked over.
_PAIR = np.array([[0, 1]])

# The 13 vectors of {-1, 0, 1}^3 with a positive first nonzero entry, and
# the index triples of those with determinant +-1.  The superbase is
# unimodular, so it keeps these triples.  For the pick: all 13 indices;
# per index a, its partners b, those that form a triple with it, and per
# partner the indices that complete a triple with (a, b).
_CANDIDATES = int_box((1, 1, 1))[14:]
_TRIPLES = np.array(list(itertools.combinations(range(13), 3)))
_TRIPLES = _TRIPLES[np.abs(int_dets(_CANDIDATES[_TRIPLES])) == 1]
_ALL = list(range(13))
_THIRDS = [{} for _ in _ALL]
for _t in _TRIPLES.tolist():
    for _a, _b in itertools.permutations(_t, 2):
        _THIRDS[_a].setdefault(_b, []).append(sum(_t) - _a - _b)
_PARTNERS = [sorted(thirds) for thirds in _THIRDS]


def _selling_step(i: int, j: int) -> np.ndarray:
    """Matrix of the Selling step on the superbase pair (i, j), float64 and
    exact: column i is added to the two columns other than i and j, then
    negated."""
    f = np.eye(4)
    f[i] = [x not in (i, j) for x in range(4)]
    f[i, i] = -1
    return f


# The six superbase pairs i < j in (i, j) order, each with its step.
_FLIPS = [(i, j, _selling_step(i, j)) for i, j in itertools.combinations(range(4), 2)]


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
    (norms strictly increasing).  The cosines take 1-D dot products and
    ``x ** 0.5`` roots, the operations the array pass does element by
    element, and a sign flip is exact, so the ranks carry its bits.  Only
    signings tied on the first two keys compare their Cartesian tuples,
    where -0.0 and 0.0 compare equal as in ``lexsort``.  The columns are
    built from the Python rows of the chosen coefficient rows."""
    n = len(idx)
    c = carts.take(idx, axis=0)
    cosines = [float(c[i] @ c[j]) / (norms[idx[i]] * norms[idx[j]]) ** 0.5
               for i, j in zip(*_PAIRS[n])]
    # The signings least on the first two keys: fewest acute pairs, then
    # the least worst acute cosine (every acute cosine exceeds 0.0).
    least = tied = None
    for signs, products in _SIGNINGS[n]:
        count, worst = 0, 0.0
        for x in map(operator.mul, cosines, products):
            if x > COS_SNAP:
                count += 1
                worst = max(worst, x)
        if least is None or (count, worst) < least:
            least, tied = (count, worst), [signs]
        elif (count, worst) == least:
            tied.append(signs)
    rows = c.tolist()
    first = 1 if next(x for x in rows[0] if x) > 0 else -1
    best = tied[0] if len(tied) == 1 else min(
        tied, key=lambda signs: [-first * s * x for s, row in zip(signs, rows) for x in row])
    cols = [[first * s * x for x in row] for s, row in zip(best, vecs.take(idx, axis=0).tolist())]
    return np.array(list(zip(*cols)), dtype=np.int64)


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
