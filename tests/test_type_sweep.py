"""A seeded slice of ``scripts/type_sweep.py``: lattices next to the
boundaries between Voronoi types, where a facet is about eps of the cell
across, must pass every check of the sweep."""

import numpy as np
import pytest

import minimage as mi
import type_sweep
from conftest import random_unimodular

DRAWS = 2


@pytest.mark.parametrize("eps", type_sweep.EPS)
@pytest.mark.parametrize("name", list(type_sweep.TYPES))
def test_draws_near_a_type_boundary_are_ok(name, eps):
    rng = np.random.default_rng([list(type_sweep.TYPES).index(name), type_sweep.EPS.index(eps)])
    m = type_sweep.TYPES[name]
    outcomes = [type_sweep.outcome(*type_sweep.draw(rng, m, eps), eps, rng) for _ in range(DRAWS)]
    assert outcomes == ["ok"] * DRAWS


def test_perturbed_cube_has_one_vertex_per_ordering():
    """A cube perturbed by 1e-6 is a generic lattice: 14 facets and 24
    vertices, one per ordering of its superbase, however small 8 of its
    facets are."""
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q @ (np.eye(3) + 1e-6 * rng.normal(size=(3, 3))) @ random_unimodular(rng, 3)
    b = mi.validate_basis(m)
    cell = mi.voronoi_cell(b)
    assert (len(cell.normals), len(cell.vertices)) == (14, 24)
    assert type_sweep.cell_failure(b, cell) is None
