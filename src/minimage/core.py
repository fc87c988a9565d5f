"""Lattice bases, coordinate transforms, and crystallographic cell ingestion.

Conventions used across the package:

- A basis is an (n, n) float matrix whose COLUMNS are the cell vectors
  v1, ..., vn, with n in {2, 3}.  The parallelepiped spanned by the columns
  is the unit cell; the lattice is the set of integer combinations of them.
- Fractional coordinates f and Cartesian coordinates x are related by
  x = M @ f and f = Minv @ x, where M is the basis matrix.
- Cell parameters (a, b, c, alpha, beta, gamma) follow the crystallographic
  convention: alpha = angle(v2, v3), beta = angle(v1, v3),
  gamma = angle(v1, v2), all angles in degrees.  v1 lies along +x and v2 in
  the xy-plane, so the constructed basis has positive determinant.

All value types are immutable after construction and every function here is
pure, so everything is safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DeterminantOutOfRange, InvalidCellParameters, SingularBasis,
                     UnsupportedDimension)

# Columns count as linearly independent when |det| exceeds this times the
# product of the column norms.
TOL_SINGULAR = 1e-10
# Each column's largest |entry| must lie in [2^-(SCALE_EXP + 1), 2^SCALE_EXP).
SCALE_EXP = 200
# Relative tolerance for numerical identities (round trips, integrality).
TOL_NUM = 1e-9


@dataclass(frozen=True, eq=False)
class Basis:
    """A lattice basis; columns of ``matrix`` span the unit cell.

    Inputs go through :func:`validate_basis`; bases derived from a valid
    one are built directly.  ``det`` and ``inv`` are cached on first use,
    ``inv`` read-only like ``matrix``; ``voronoi`` keeps its build of the
    lattice's Voronoi cell on the object the same way.  Such facts live in
    the instance ``__dict__`` and die with it: they are tied to this
    object, not to its matrix, so an equal ``Basis`` computes them again.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, order="C", copy=True)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(self.matrix[:, i] for i in range(self.dim))

    @cached_property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @cached_property
    def inv(self) -> np.ndarray:
        inv = np.linalg.inv(self.matrix)
        inv.flags.writeable = False
        return inv

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=0)

    def diameter(self) -> float:
        """Largest distance between two corners of the unit cell."""
        # The rows of the unit box are the differences of two corners.
        return float(np.linalg.norm(self.matrix @ _UNIT_BOX[self.dim].T, axis=0).max())


@dataclass(frozen=True)
class LatticeVector:
    """A lattice point given by exact integer coefficients.

    Python and NumPy integers are accepted; any other coefficient, such as
    a float, raises TypeError rather than being truncated.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def cart(self, basis: Basis) -> np.ndarray:
        return basis.matrix @ np.asarray(self.coeffs, dtype=float)


def validate_basis(matrix) -> Basis:
    """Validate an (n, n) column matrix and return a :class:`Basis`.

    Independence is tested once, on the columns brought into the scale
    window by powers of two (exact); a basis inside it is tested as given.
    Negative determinants are accepted; orientation is preserved, never
    silently flipped.

    Raises
    ------
    ValueError
        If the matrix is complex, even with zero imaginary parts.
    UnsupportedDimension
        If the matrix is not square with n in {2, 3}.
    SingularBasis
        If the columns are numerically dependent or not finite.
    DeterminantOutOfRange
        If the columns are independent but some column's largest |entry|
        lies outside [2^-(SCALE_EXP + 1), 2^SCALE_EXP).
    """
    if np.iscomplexobj(matrix):
        raise ValueError("basis matrix must be real")
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
        raise UnsupportedDimension(
            f"expected a square 2x2 or 3x3 column matrix, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise SingularBasis("basis matrix contains non-finite entries")
    exp = np.frexp(np.abs(m).max(axis=0))[1]
    shift = exp - np.minimum(np.maximum(exp, -SCALE_EXP), SCALE_EXP)
    u = np.ldexp(m, -shift)
    det = float(np.linalg.det(u))
    if not abs(det) > TOL_SINGULAR * float(np.prod(np.linalg.norm(u, axis=0))):
        raise SingularBasis("columns are numerically dependent (|det| is at most "
                            f"{TOL_SINGULAR:g} times the product of the column norms)")
    if shift.any():
        log2_det = math.log2(abs(det)) + float(shift.sum())
        if not -1022 <= log2_det < 1024:
            raise DeterminantOutOfRange(f"|det| is about 1e{log2_det * math.log10(2):.0f}, "
                                        "outside float64's normal range")
        k = int(np.argmax(np.abs(shift)))
        raise DeterminantOutOfRange(
            f"column {k + 1} has largest |entry| {np.abs(m[:, k]).max():.2g}, outside the "
            f"supported scale [2^-{SCALE_EXP + 1}, 2^{SCALE_EXP}), about 3.1e-61 to 1.6e60")
    return Basis(matrix=m)


def cell_params_to_basis(a: float, b: float, c: float,
                         alpha: float, beta: float, gamma: float) -> Basis:
    """Build a 3D basis from cell lengths and angles (degrees).

    Standard setting: v1 along +x, v2 in the xy-plane with
    v1 . v2 = a b cos(gamma), v3 placed so all three pairwise angles match;
    the determinant is positive.

    Raises InvalidCellParameters when the inputs cannot define a cell of
    positive volume.
    """
    if not (a > 0 and b > 0 and c > 0):
        raise InvalidCellParameters("cell lengths must be positive")
    for name, ang in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not 0.0 < ang < 180.0:
            raise InvalidCellParameters(f"{name} must lie in (0, 180) degrees")
    ca = math.cos(math.radians(alpha))
    cb = math.cos(math.radians(beta))
    cg = math.cos(math.radians(gamma))
    sg = math.sin(math.radians(gamma))
    q = 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg
    if q <= 0.0:
        raise InvalidCellParameters(
            f"angles ({alpha}, {beta}, {gamma}) give non-positive cell volume"
        )
    v1 = (a, 0.0, 0.0)
    v2 = (b * cg, b * sg, 0.0)
    v3 = (c * cb, c * (ca - cb * cg) / sg, c * math.sqrt(q) / sg)
    return validate_basis(np.column_stack([v1, v2, v3]))


def basis_to_cell_params(basis: Basis) -> tuple[float, float, float, float, float, float]:
    """Recover (a, b, c, alpha, beta, gamma) from a 3D basis via its Gram
    matrix.  A cosine that rounds just outside [-1, 1] (two nearly parallel
    columns) is clamped into it before ``acos``."""
    if basis.dim != 3:
        raise UnsupportedDimension("cell parameters are defined for 3D bases only")
    g = gram_matrix(basis)
    a, b, c = (math.sqrt(g[i, i]) for i in range(3))
    alpha, beta, gamma = (math.degrees(math.acos(max(-1.0, min(1.0, g[i, j] / (x * y)))))
                          for i, j, x, y in ((1, 2, b, c), (0, 2, a, c), (0, 1, a, b)))
    return a, b, c, alpha, beta, gamma


def gram_matrix(basis: Basis) -> np.ndarray:
    """Symmetric matrix of inner products g_ij = v_i . v_j (length^2)."""
    g = basis.matrix.T @ basis.matrix
    return 0.5 * (g + g.T)


def frac_to_cart(basis: Basis, frac) -> np.ndarray:
    """Map fractional to Cartesian coordinates; accepts (n,) or (N, n)."""
    return np.asarray(frac, dtype=float) @ basis.matrix.T


def cart_to_frac(basis: Basis, cart) -> np.ndarray:
    """Map Cartesian to fractional coordinates; accepts (n,) or (N, n)."""
    return np.asarray(cart, dtype=float) @ basis.inv.T


def wrap_frac(frac) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1) componentwise."""
    w = np.asarray(frac, dtype=float) % 1.0
    # x % 1.0 rounds to exactly 1.0 for tiny negative x; fold that edge back.
    return np.where(w >= 1.0, 0.0, w)


def _adjugate(m) -> tuple[list[list[int]], int]:
    """The adjugate of a small integer matrix by cofactors, and its
    determinant, in Python ints."""
    a = [[int(x) for x in row] for row in np.asarray(m).tolist()]
    if len(a) == 2:
        (p, q), (r, s) = a
        return [[s, -q], [-r, p]], p * s - q * r
    (p, q, r), (s, t, v), (w, x, y) = a
    adj = [[t * y - v * x, r * x - q * y, q * v - r * t],
           [v * w - s * y, p * y - r * w, r * s - p * v],
           [s * x - t * w, q * w - p * x, p * t - q * s]]
    return adj, p * adj[0][0] + q * adj[1][0] + r * adj[2][0]


def int_det(m) -> int:
    """Exact determinant of a small integer matrix."""
    return _adjugate(m)[1]


def int_dets(z: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of small int64 matrices, shape (k, n, n)."""
    if z.shape[-1] == 2:
        return z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0]
    return np.einsum("ki,ki->k", z[:, 0], np.cross(z[:, 1], z[:, 2]))


def matvecs(m: np.ndarray, rows) -> np.ndarray:
    """``m @ row`` for every row of ``rows``, with the bits of the 2-D @ 1-D
    product: numpy computes a stack of column vectors with the same BLAS
    matrix-vector kernel, where a matrix product would round differently."""
    return (m @ np.asarray(rows, dtype=float)[..., None])[..., 0]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` over the leading axes, with the bits of the 1-D dot
    product (a stack of vector-vector products uses the same BLAS dot)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def canonical_rows(m: np.ndarray) -> np.ndarray:
    """Every row of an integer matrix signed so that its first nonzero
    entry is positive; a zero row stays zero."""
    first = m[np.arange(len(m)), np.argmax(m != 0, axis=1)]
    return m * np.sign(first)[:, None]


def canonical_sign(coeffs) -> tuple[int, ...]:
    """One integer vector signed as :func:`canonical_rows` signs a row."""
    return tuple(canonical_rows(np.array([[int(c) for c in coeffs]]))[0].tolist())


def unimodular_inverse(u) -> np.ndarray:
    """Exact integer inverse of a unimodular integer matrix: its adjugate
    times its determinant, which is +-1."""
    adj, d = _adjugate(u)
    if abs(d) != 1:
        raise ValueError(f"matrix is not unimodular (det = {d})")
    return np.array(adj if d == 1 else [[-x for x in row] for row in adj], dtype=np.int64)


def int_box(layers, start: int = 0, stop: int | None = None) -> np.ndarray:
    """All integer vectors t with |t_i| <= layers[i], one per row, as a
    C-contiguous int64 array, or only its rows start <= k < stop.

    Rows come in ``itertools.product`` order (last axis fastest), so every
    caller that breaks ties by the first row sees the same row first, and a
    box streamed in row ranges yields the same rows.  This is the package's
    only builder of symmetric integer boxes.
    """
    m = np.asarray(layers, dtype=np.int64)
    shape = tuple(int(x) for x in 2 * m + 1)
    rows = np.arange(start, math.prod(shape) if stop is None else min(stop, math.prod(shape)))
    return np.column_stack(np.unravel_index(rows, shape)) - m


# Per dimension, the unit box int_box((1,) * n), built once.
_UNIT_BOX = {n: int_box((1,) * n) for n in (2, 3)}
