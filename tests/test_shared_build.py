"""Each lattice fact is computed once per public call.

Every public operation reduces the basis once and builds the Voronoi
vertices at most once, through ``voronoi._prepare``.  The stage counts are
checked with counting wrappers around ``reduction.reduce`` and
``voronoi._vertices``.  ``frozen_outputs.json`` holds outputs of the code as
it was before the stages were shared, when ``min_image_distance`` reduced
every basis twice and ``check_cell`` five times; integer results and
distance bits must still match it exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import minimage as mi
from minimage import cells, copies, distance, reduction, render, voronoi

from conftest import random_cond_basis

FROZEN = Path(__file__).with_name("frozen_outputs.json")
CONDS = (1.0, 1e2, 1e3)


def seeded_lattices(per_level: int, seed: int) -> list[mi.Basis]:
    rng = np.random.default_rng(seed)
    return [random_cond_basis(rng, n, cond)
            for n in (2, 3) for cond in CONDS for _ in range(per_level)]


@pytest.fixture
def stage_calls(monkeypatch):
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(reduction, "reduce", counting("reduce", reduction.reduce))
    monkeypatch.setattr(voronoi, "_vertices", counting("vertices", voronoi._vertices))
    return calls


OPERATIONS = {
    "min_image_distance": (lambda b: distance.min_image_distance(b, [0.1] * b.dim,
                                                                 [0.7] * b.dim), 1),
    "pairwise_distances": (lambda b: distance.pairwise_distances(
        distance.PeriodicPointSet(b, np.linspace(0.0, 0.9, 4 * b.dim).reshape(4, b.dim))), 1),
    "neighbors_within": (lambda b: distance.neighbors_within(
        distance.PeriodicPointSet(b, [[0.2] * b.dim, [0.6] * b.dim]), 1.0), 1),
    "check_cell": (lambda b: cells.check_cell(b, b), 1),
    "enumerate_ps": (cells.enumerate_ps, 1),
    "copy_counts": (lambda b: copies.copy_counts(b, b), 1),
    "domain_extents": (lambda b: copies.domain_extents(b, b), 1),
    "voronoi_cell": (voronoi.voronoi_cell, 1),
    "relevant_vectors": (voronoi.relevant_vectors, 0),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@pytest.mark.parametrize("cond", CONDS)
@pytest.mark.parametrize("n", (2, 3))
def test_one_reduction_and_at_most_one_vertex_build(stage_calls, name, cond, n):
    b = random_cond_basis(np.random.default_rng(7), n, cond)
    op, builds = OPERATIONS[name]
    op(b)
    assert stage_calls == Counter(reduce=1, vertices=builds)


def test_render_reduces_once(stage_calls, tmp_path):
    b = random_cond_basis(np.random.default_rng(7), 2, 1e2)
    render.render_2d(b, None, tmp_path / "cell.svg")
    assert stage_calls == Counter(reduce=1, vertices=1)


def test_check_cell_counts_equal_copy_counts():
    """check_cell and copy_counts read the same vertex set, so h is equal
    as floats, not just close."""
    for b in seeded_lattices(per_level=4, seed=2024):
        red = mi.reduce(b).basis
        for cell in (b, red):
            assert cells.check_cell(cell, b).counts == copies.copy_counts(cell, b)


def greedy_dedup(points, tol):
    """The vertex de-duplication as a plain loop: keep each point, in
    lexicographic order, unless it lies within tol of a point kept before."""
    if len(points) == 0:
        return points
    pts = points[np.lexsort(points.T[::-1])]
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def dedup_inputs():
    rng = np.random.default_rng(11)
    tol = 1e-3
    centers = rng.normal(size=(12, 3))
    clustered = np.vstack([c + rng.normal(scale=0.4 * tol, size=(5, 3)) for c in centers])
    # A chain at 0.7 tol spacing: the middle point is dropped, and the last
    # one is kept because only kept points remove others.
    chain = np.array([[0.0, 0.0, 0.0], [0.7e-3, 0.0, 0.0], [1.4e-3, 0.0, 0.0]])
    duplicated = np.repeat(rng.normal(size=(6, 2)), 3, axis=0)[rng.permutation(18)]
    return [
        (rng.permutation(clustered), tol),
        (chain[::-1].copy(), tol),
        (duplicated, tol),
        (rng.normal(size=(30, 3)), tol),
        (np.empty((0, 3)), tol),
    ]


@pytest.mark.parametrize("points, tol", dedup_inputs())
def test_dedup_matches_greedy_loop(points, tol):
    got = voronoi._dedup(points, tol)
    want = greedy_dedup(points, tol)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _hex(a) -> list[str]:
    return [float(x).hex() for x in np.ravel(a)]


def _unhex(values, shape) -> np.ndarray:
    return np.array([float.fromhex(x) for x in values]).reshape(shape)


def frozen_record(b: mi.Basis, pairs) -> dict:
    """Outputs of every public operation on ``b``: integers and distance
    bits, plus the float geometry under ``"h"`` and ``"volume"``."""
    red = mi.reduce(b)
    counts = mi.copy_counts(b, b)
    rec = {
        "reduced": _hex(red.basis.matrix),
        "transform": red.transform.tolist(),
        "relevant": [list(v.coeffs) for v in mi.relevant_vectors(b).vectors],
        "layers": list(counts.layers),
        "h": list(counts.h),
        "volume": mi.voronoi_cell(b).volume,
        "domains": [[list(c) for c in d.canonical_key] for d in mi.enumerate_ps(b)],
        "check_cell": [],
        "distances": [],
    }
    for cell in (b, red.basis):
        r = mi.check_cell(cell, b)
        rec["check_cell"].append([r.sufficient, r.ps_member, r.cell_reduced,
                                  [list(c) for c in r.coeffs_key], list(r.counts.layers)])
    for p1, p2 in pairs:
        res = mi.min_image_distance(b, p1, p2)
        rec["distances"].append([res.distance.hex(), list(res.image.coeffs)])
    return rec


def frozen_cases():
    data = json.loads(FROZEN.read_text())
    for case in data:
        n = case["dim"]
        b = mi.validate_basis(_unhex(case["basis"], (n, n)))
        pairs = _unhex(case["points"], (-1, 2, n))
        yield pytest.param(b, pairs, case["expected"], id=case["id"])


@pytest.mark.parametrize("b, pairs, expected", frozen_cases())
def test_outputs_match_frozen_fixture(b, pairs, expected):
    got = frozen_record(b, pairs)
    want = dict(expected)
    for key in ("h", "volume"):
        assert got.pop(key) == pytest.approx(want.pop(key), rel=0, abs=1e-10)
    assert got == want
