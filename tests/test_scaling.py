"""Scaling a basis by 2^k changes no decision and scales every length exactly.

Multiplying by a power of two is exact in floating point, and every
tolerance in the package is relative, so every integer output of every
public operation must stay the same and every float output must scale by
the matching power of two, bit for bit, as long as nothing leaves the
normal range.  A rewritten stage that compared against an absolute
tolerance, or rounded differently at one scale than at another, would
break this.  k ranges over +-(SCALE_EXP - 10): ``validate_basis`` accepts
columns whose largest |entry| lies in [2^-(SCALE_EXP + 1), 2^SCALE_EXP),
and the scale of the test bases is about 1, so that is the whole window
less a margin for their spread.  Both sides of the window's edges are
tested on a unit basis.  The same holds for the two outputs outside the
public operations: the bytes of a ``render_2d`` figure, and the decision
of the oracle's block check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import minimage as mi
from minimage.core import SCALE_EXP

from conftest import FCC, HEX_2D, random_cond_basis, skewed_basis

# A sheared square cell of the unit square lattice that needs layers (3, 1).
SHEARED = np.array([[1.0, -5.0], [0.0, 1.0]])

BASES_PER_CASE = 10


def scaled(a, k: int):
    return np.ldexp(np.asarray(a, dtype=float), k)


def outputs(b: mi.Basis, k: int, rng) -> dict:
    """Every public output on the basis ``b`` scaled by 2^k, each float
    output scaled back by 2^-k (2^-nk for the volume, 2^-2k for offsets)."""
    n = b.dim
    s = mi.validate_basis(scaled(b.matrix, k))
    red = mi.reduce(s)
    rel = mi.relevant_vectors(s)
    cell = mi.voronoi_cell(s)
    counts = mi.copy_counts(s, s)
    domains = mi.enumerate_ps(s)
    pairs = rng.random((3, 2, n))
    points = mi.PeriodicPointSet(s, rng.random((5, n)))
    cutoff = scaled(abs(b.det) ** (1.0 / n), k)
    return {
        "reduce": (scaled(red.basis.matrix, -k).tolist(), red.transform.tolist()),
        "is_reduced": mi.is_reduced(red.basis),
        "relevant": ([v.coeffs for v in rel.vectors], scaled(rel.cartesians, -k).tolist()),
        "cell": (scaled(cell.normals, -k).tolist(), scaled(cell.offsets, -2 * k).tolist(),
                 scaled(cell.vertices, -k).tolist(), math.ldexp(cell.volume, -n * k)),
        "counts": (counts.layers, counts.h),
        "domains": [(d.canonical_key, d.coeffs.tolist(), scaled(d.basis.matrix, -k).tolist())
                    for d in domains],
        "check_cell": [(r.sufficient, r.ps_member, r.cell_reduced, r.coeffs_key, r.counts)
                       for r in (mi.check_cell(c, s) for c in (s, red.basis))],
        "distances": [(math.ldexp(d.distance, -k), d.image.coeffs)
                      for d in (mi.min_image_distance(s, p1, p2) for p1, p2 in pairs)],
        "matrix": scaled(mi.pairwise_distances(points), -k).tolist(),
        "neighbors": [(i, j, img.coeffs, math.ldexp(d, -k))
                      for i, j, img, d in mi.neighbors_within(points, cutoff)],
    }


def case_bases(n: int, seed: int) -> list[mi.Basis]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(BASES_PER_CASE):
        if i % 4 == 3:
            out.append(skewed_basis(rng, HEX_2D if n == 2 else FCC, 10 ** rng.uniform(1, 3)))
        else:
            out.append(random_cond_basis(rng, n, 10 ** rng.uniform(0, 4)))
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", (2, 3))
def test_power_of_two_scaling_is_exact(n, seed):
    rng = np.random.default_rng([n, seed])
    kmax = SCALE_EXP - 10
    for b in case_bases(n, seed):
        k = int(rng.integers(-kmax, kmax + 1))
        point_seed = int(rng.integers(2 ** 32))
        want = outputs(b, 0, np.random.default_rng(point_seed))
        got = outputs(b, k, np.random.default_rng(point_seed))
        for key in want:
            assert got[key] == want[key], (key, k)


@pytest.mark.parametrize("n", (2, 3))
def test_the_scaling_range_reaches_both_ends(n):
    """The extreme exponents themselves, on one basis each."""
    b = case_bases(n, 99)[0]
    kmax = SCALE_EXP - 10
    want = outputs(b, 0, np.random.default_rng(5))
    for k in (-kmax, kmax):
        assert outputs(b, k, np.random.default_rng(5)) == want


@pytest.mark.parametrize("n", (2, 3))
def test_scale_window_edges(n):
    """A unit basis times 2^199 or 2^-201 is accepted; times 2^200 or 2^-202
    it is out of the supported scale."""
    for k in (SCALE_EXP - 1, -SCALE_EXP - 1):
        assert mi.validate_basis(scaled(np.eye(n), k)).det == pytest.approx(2.0 ** (n * k))
    for k in (SCALE_EXP, -SCALE_EXP - 2):
        with pytest.raises(mi.DeterminantOutOfRange, match="supported scale"):
            mi.validate_basis(scaled(np.eye(n), k))
    # One column out of the window is enough.
    m = np.eye(n)
    m[:, -1] = scaled(m[:, -1], SCALE_EXP)
    with pytest.raises(mi.DeterminantOutOfRange, match=f"column {n} "):
        mi.validate_basis(m)


@pytest.mark.parametrize("k", [-190, -100, -40, -30, 60, 190])
def test_render_bytes_are_the_same_at_every_scale(tmp_path, k):
    """The figure is drawn in viewport units, so scaling the lattice and the
    cell by 2^k changes no byte; the lattice points drawn and circled are
    decided by window bounds and integer coefficients, not by absolute
    tolerances."""
    rng = np.random.default_rng(k % 1000)
    cases = [(HEX_2D, None), (np.eye(2), SHEARED),
             (random_cond_basis(rng, 2, 30.0).matrix, None)]
    for i, (lattice, cell) in enumerate(cases):
        figures = []
        for kk in (0, k):
            out = tmp_path / f"{i}-{kk}.svg"
            mi.render_2d(mi.validate_basis(scaled(lattice, kk)),
                         None if cell is None else mi.validate_basis(scaled(cell, kk)), out)
            figures.append(out.read_bytes())
        assert figures[0] == figures[1], (i, k)


@pytest.mark.parametrize("k", [-190, -100, -40, -20, 0, 40, 190])
def test_block_check_decides_the_same_at_every_scale(k):
    """The block check's threshold is relative, so one layer too few on the
    sheared cell is caught with the same pair at every scale, and the
    sufficient block passes."""
    cell = mi.validate_basis(scaled(SHEARED, k))
    assert mi.copy_counts(cell, mi.validate_basis(scaled(np.eye(2), k))).layers == (3, 1)
    want = mi.oracle.block_counterexample(mi.validate_basis(SHEARED), (2, 1))
    assert want is not None
    assert mi.oracle.block_counterexample(cell, (2, 1)) == want
    assert mi.oracle.block_counterexample(cell, (3, 1)) is None
