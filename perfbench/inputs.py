"""Seeded input generators shared by the workloads.

Every lattice is drawn with a prescribed 2-norm condition number of its
input basis (random rotations around geometric singular values, the same
family the test suite uses) and scaled to unit covolume, so point density,
and with it neighbor hit counts, does not depend on the seed.  The three
conditioning levels are "low" (10**U(0, 1)), 1e2 and 1e3.  The kernel-bound
commands instead take a fixed isotropic lattice through skewed bases
(:func:`skewed_matrix`).
"""

from __future__ import annotations

import time

import numpy as np

import minimage
from minimage import core

COND_LEVELS = ("low", "1e2", "1e3")


class ValidateClock:
    """Times the workloads' own calls into ``validate_basis`` and
    ``cell_params_to_basis`` (the ``core.validate_us`` metric)."""

    def __init__(self):
        self.samples: list[float] = []

    def validate(self, matrix) -> minimage.Basis:
        t0 = time.perf_counter()
        b = core.validate_basis(matrix)
        self.samples.append(time.perf_counter() - t0)
        return b

    def from_params(self, params) -> minimage.Basis:
        t0 = time.perf_counter()
        b = core.cell_params_to_basis(*params)
        self.samples.append(time.perf_counter() - t0)
        return b


def cond_value(rng: np.random.Generator, level: str) -> float:
    if level == "low":
        return float(10 ** rng.uniform(0.0, 1.0))
    return float(level)


def cond_matrix(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Column matrix with 2-norm condition number ``cond`` and |det| = 1."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2
    return m / abs(np.linalg.det(m)) ** (1.0 / n)


# Reference lattices of the skewed inputs: hexagonal in 2D, face-centred
# cubic in 3D (primitive bases, columns).
_ISOTROPIC = {
    2: np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]),
    3: np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
}


def skewed_matrix(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """A randomly rotated hexagonal (2D) or face-centred cubic (3D) lattice
    of unit covolume, given through a skewed basis: random column shears
    until the basis condition number reaches ``cond``.  The reduced cell,
    and so the work of a distance kernel, does not depend on the seed."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q @ _ISOTROPIC[n]
    m = m / abs(np.linalg.det(m)) ** (1.0 / n)
    while np.linalg.cond(m) < cond:
        i, j = rng.choice(n, size=2, replace=False)
        m[:, j] += (1.0 if rng.random() < 0.5 else -1.0) * m[:, i]
    return m


def cell_params(rng: np.random.Generator, cond: float,
                clock: ValidateClock) -> tuple[float, ...]:
    """Cell parameters (a, b, c, alpha, beta, gamma) of a 3D lattice drawn
    like :func:`cond_matrix`; rebuilt through ``cell_params_to_basis`` they
    give the same lattice in the standard crystallographic orientation."""
    return core.basis_to_cell_params(clock.validate(cond_matrix(rng, 3, cond)))


def points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Fractional points in [0, 1)^n."""
    return rng.random((count, n))


def inline_matrix(m: np.ndarray) -> str:
    """CLI inline form: consecutive groups of n values are the columns."""
    return " ".join(repr(float(x)) for x in np.asarray(m).T.ravel())


def inline_values(values) -> str:
    return " ".join(repr(float(x)) for x in values)
