"""Each lattice fact is computed once per public call, in one array pass,
and the Voronoi build once per ``Basis`` object.

Every public operation reduces the basis once and builds the Voronoi
vertices at most once, through ``voronoi._prepare``
(``min_image_distance`` and the neighbor lists build none), and validates
no basis: inputs arrive validated, and the bases derived from them are built
directly.  ``_prepare`` keeps its read-only build on the ``Basis``, so a
later operation on the same object that reads it reduces nothing and
builds nothing, with the bits of a cold call; an equal ``Basis`` builds
again, and the operations that read no build reduce on every call.  The inverse of the reduction transform is computed once, by
``reduce``, and read from the ``ReducedBasis`` after that.  The stage
counts are checked with counting wrappers around ``reduction.reduce``,
``voronoi._vertices`` (the vertex build from the obtuse superbase), and
``validate_basis`` and ``unimodular_inverse`` wherever the package binds
them.
``frozen_outputs.json`` holds outputs of the code as it was before the
stages were shared, when ``min_image_distance`` reduced every basis twice
and ``check_cell`` five times; integer results and distance bits must
still match it exactly.

The per-lattice stages that were Python loops (domain enumeration, the
ranked signing, the norm ordering and the facet measures) are array
passes; test-only copies of the loops are kept below as the reference they
must reproduce.  The ranked signing of one untied shortest set takes
direct Python compares instead, and must reproduce the same loop.  So is a
copy of the Selling step that picked its pair
from a masked triangle, which the table-driven step must match bit for
bit.  Two numeric references with their own tolerances, the L/2L coset
search for the relevant vectors and the vertex build that solved every
plane subset, must give the superbase build's bits wherever no facet is
within their tolerances of vanishing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimage as mi
from minimage import cells, copies, distance, reduction, render, voronoi
from minimage.core import canonical_sign, int_det

import type_sweep
from conftest import (FCC, HEX_2D, NO_OBTUSE_SHORTEST_3D, REDUCED_BUT_H_ABOVE_1,
                      random_cond_basis, random_unimodular, skewed_basis)

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
    for attr, fn, key in (("validate_basis", mi.validate_basis, "validate"),
                          ("unimodular_inverse", mi.core.unimodular_inverse, "inverse")):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "minimage" and getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, counting(key, fn))
    return calls


OPERATIONS = {
    "min_image_distance": (lambda b: distance.min_image_distance(b, [0.1] * b.dim,
                                                                 [0.7] * b.dim), 0),
    "pairwise_distances": (lambda b: distance.pairwise_distances(
        distance.PeriodicPointSet(b, np.linspace(0.0, 0.9, 4 * b.dim).reshape(4, b.dim))), 1),
    "neighbors_within": (lambda b: distance.neighbors_within(
        distance.PeriodicPointSet(b, [[0.2] * b.dim, [0.6] * b.dim]), 1.0), 0),
    "check_cell": (lambda b: cells.check_cell(b, b), 1),
    "enumerate_ps": (cells.enumerate_ps, 1),
    "copy_counts": (lambda b: copies.copy_counts(b, b), 1),
    "domain_extents": (lambda b: copies.domain_extents(b, b), 1),
    "voronoi_cell": (voronoi.voronoi_cell, 1),
    "relevant_vectors": (voronoi.relevant_vectors, 1),
    "reduce": (lambda b: reduction.reduce(b), 0),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@pytest.mark.parametrize("cond", CONDS)
@pytest.mark.parametrize("n", (2, 3))
def test_one_reduction_and_at_most_one_vertex_build(stage_calls, name, cond, n):
    b = random_cond_basis(np.random.default_rng(7), n, cond)
    op, builds = OPERATIONS[name]
    stage_calls.clear()
    op(b)
    assert stage_calls == Counter(reduce=1, vertices=builds, validate=0, inverse=1)


@pytest.mark.parametrize("n", (2, 3))
def test_a_cold_geometry_pass_reduces_twice(stage_calls, n):
    """The calls of the benchmark's geometry workload on a new Basis: its
    own ``reduce`` and the one build every other call reads."""
    b = random_cond_basis(np.random.default_rng(7), n, 1e2)
    stage_calls.clear()
    reduction.reduce(b)
    voronoi.relevant_vectors(b)
    voronoi.voronoi_cell(b)
    copies.copy_counts(b, b)
    cells.enumerate_ps(b)
    cells.check_cell(b, b)
    assert stage_calls == Counter(reduce=2, vertices=1, validate=0, inverse=2)


def test_render_reduces_once(stage_calls, tmp_path):
    b = random_cond_basis(np.random.default_rng(7), 2, 1e2)
    stage_calls.clear()
    render.render_2d(b, None, tmp_path / "cell.svg")
    assert stage_calls == Counter(reduce=1, vertices=1, validate=0, inverse=1)


@pytest.mark.parametrize("n", (2, 3))
def test_each_basis_restates_its_relevant_vectors_once(monkeypatch, tmp_path, n):
    """The readers of the relevant vectors (``relevant_vectors`` itself,
    ``voronoi_cell`` and, in 2D, ``render_2d``) restate the build's vectors
    once per ``Basis`` object: a second pass on it restates nothing, and an
    equal ``Basis`` restates again."""
    calls = counted(monkeypatch, voronoi, "_restate")
    m = random_cond_basis(np.random.default_rng(7), n, 1e2).matrix

    def readers(b):
        voronoi.relevant_vectors(b)
        voronoi.voronoi_cell(b)
        cells.check_cell(b, b)
        if n == 2:
            render.render_2d(b, None, tmp_path / "cell.svg")

    b = mi.Basis(m)
    for _ in range(2):
        readers(b)
        assert calls == Counter(_restate=1)
    readers(mi.Basis(m))
    assert calls == Counter(_restate=2)


def test_check_cell_counts_equal_copy_counts():
    """check_cell and copy_counts read the same vertex set, so h is equal
    as floats, not just close."""
    for b in seeded_lattices(per_level=4, seed=2024):
        red = mi.reduce(b).basis
        for cell in (b, red):
            assert cells.check_cell(cell, b).counts == copies.copy_counts(cell, b)


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


# --- the build kept on the Basis ------------------------------------------------
# ``_prepare`` keeps its build in the instance ``__dict__`` of the Basis it
# was given: every later reader called with that object reads it, whichever
# reader built it, and a new object with the same matrix builds again.  The
# calls that read no build reduce on every call.

def build_readers(dim: int, out: Path) -> dict:
    """Name -> operation, for every public operation that reads the build
    of a ``dim``-dimensional lattice; ``render_2d`` gives the bytes of the
    SVG it writes under ``out``."""
    ops = {name: op for name, (op, builds) in OPERATIONS.items() if builds}
    if dim == 2:
        ops["render_2d"] = lambda b: render.render_2d(b, None, out / "cell.svg").read_bytes()
    return ops


def bits(x):
    """Every bit of an output: arrays by dtype, shape and bytes, floats by
    hex, dataclasses (Basis included) field by field."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return float(x).hex()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    return x


@pytest.mark.parametrize("n, first", [(n, name) for n in (2, 3)
                                      for name in build_readers(n, Path())])
def test_every_reader_reuses_the_kept_build(stage_calls, tmp_path, n, first):
    b = random_cond_basis(np.random.default_rng(7), n, 1e2)
    ops = build_readers(n, tmp_path)
    ops[first](b)
    stage_calls.clear()
    for op in ops.values():
        op(b)
    assert stage_calls == Counter(reduce=0, vertices=0, validate=0, inverse=0)


def test_an_equal_basis_builds_again(stage_calls):
    b = random_cond_basis(np.random.default_rng(7), 3, 1e2)
    voronoi.voronoi_cell(b)
    twin = mi.Basis(b.matrix)
    stage_calls.clear()
    voronoi.voronoi_cell(twin)
    assert stage_calls == Counter(reduce=1, vertices=1, validate=0, inverse=1)
    assert voronoi._prepare(twin) is not voronoi._prepare(b)


@pytest.mark.parametrize("name", ["reduce", "min_image_distance", "neighbors_within"])
def test_calls_that_read_no_build_reduce_every_time(stage_calls, name):
    b = random_cond_basis(np.random.default_rng(7), 3, 1e2)
    voronoi._prepare(b)
    op = OPERATIONS[name][0]
    for _ in range(2):
        stage_calls.clear()
        op(b)
        assert stage_calls == Counter(reduce=1, vertices=0, validate=0, inverse=1)


@pytest.mark.parametrize("b, pairs, expected", frozen_cases())
def test_warm_outputs_equal_cold_outputs(tmp_path, b, pairs, expected):
    """Each reader on a fresh Basis against all readers on one Basis, in
    forward and in reverse order, twice over."""
    ops = build_readers(b.dim, tmp_path)
    if np.linalg.cond(b.matrix) > 300.0:
        # render_2d refuses the cond-1e3 windows: their lattice points need a
        # box of more than render.MAX_POINTS rows.
        ops.pop("render_2d", None)
    cold = {name: bits(op(mi.Basis(b.matrix))) for name, op in ops.items()}
    for order in (list(ops), list(ops)[::-1]):
        warm = mi.Basis(b.matrix)
        for _ in range(2):
            assert {name: bits(ops[name](warm)) for name in order} == cold


@pytest.mark.parametrize("n", (2, 3))
def test_the_kept_build_is_read_only(n):
    b = random_cond_basis(np.random.default_rng(7), n, 1e2)
    p = voronoi._prepare(b)
    assert voronoi._prepare(b) is p
    assert type(p.relevant) is tuple and all(type(r) is tuple for r in p.relevant)
    for a in (p.normals, p.vertices, p.tight, p.red.basis.inv, b.inv):
        with pytest.raises(ValueError):
            a[0, 0] = a[0, 0]


@pytest.mark.parametrize("n", (2, 3))
def test_outputs_own_their_arrays(n):
    """A caller's outputs share no memory with the build every later call
    reads, and two calls give two sets of arrays."""
    b = random_cond_basis(np.random.default_rng(7), n, 1e2)
    p = voronoi._prepare(b)
    outputs = []
    for _ in range(2):
        vc = voronoi.voronoi_cell(b)
        domains = cells.enumerate_ps(b)
        outputs += [vc.normals, vc.offsets, vc.vertices, voronoi.relevant_vectors(b).cartesians]
        outputs += [a for c in domains for a in (c.coeffs, c.basis.matrix)]
    kept = (p.normals, p.vertices, p.tight, p.red.basis.matrix, b.matrix)
    for k, a in enumerate(outputs):
        assert a.flags.owndata and not a.flags.writeable
        assert not any(np.shares_memory(a, other) for other in kept + tuple(outputs[k + 1:]))


def test_threads_racing_on_one_basis_read_whole_builds():
    """Threads that call the readers on fresh bases at once may each build;
    every output equals the cold one bit for bit."""
    rng = np.random.default_rng(11)
    matrices = [random_cond_basis(rng, n, 1e2).matrix for n in (2, 3, 3)]
    ops = build_readers(3, Path())
    cold = {(k, name): bits(op(mi.Basis(m)))
            for k, m in enumerate(matrices) for name, op in ops.items()}
    got = []

    def work(shared):
        for k, b in enumerate(shared):
            for name, op in ops.items():
                got.append(((k, name), bits(op(b))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = [mi.Basis(m) for m in matrices]
            threads = [threading.Thread(target=work, args=(shared,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 3 * 4 * len(cold)
    assert all(cold[key] == value for key, value in got)


# --- the array passes against the loops they replaced --------------------------
# Integer results and the bits of every float that the loops returned must
# match; only the facet measures, summed in another order, may differ in
# the last digits.


def loop_key(z) -> tuple:
    return tuple(sorted(canonical_sign(z[:, i]) for i in range(z.shape[1])))


def loop_domains(p) -> list:
    """(key, coefficient matrix, basis matrix) of every domain, as the
    enumeration loop over relevant-vector subsets found them."""
    out, seen = [], set()
    for combo in itertools.combinations(p.relevant, p.red.basis.dim):
        key = loop_key(np.array(combo).T)
        if key in seen:
            continue
        z = np.array(key, dtype=np.int64).T
        if abs(int_det(z)) != 1:
            continue
        cand = mi.validate_basis(p.red.basis.matrix @ z)
        if not np.all(voronoi.frac_extents(p, cand) <= 1.0 + copies.TOL_SNAP):
            continue
        seen.add(key)
        out.append((key, z, cand.matrix))
    return sorted(out, key=lambda c: c[0])


def loop_ranked_config(matrix, cols):
    k = len(cols)
    carts = [matrix @ z for z in cols]
    n2 = [float(c @ c) for c in carts]
    gram = [[float(carts[a] @ carts[b]) for b in range(k)] for a in range(k)]
    best_rank = best_cols = None
    for perm in itertools.permutations(range(k)):
        if any(n2[perm[a]] > n2[perm[a + 1]] for a in range(k - 1)):
            continue
        for signs in itertools.product((1, -1), repeat=k):
            cosines = [signs[a] * signs[b] * gram[perm[a]][perm[b]]
                       / (n2[perm[a]] * n2[perm[b]]) ** 0.5
                       for a, b in itertools.combinations(range(k), 2)]
            acute = [c for c in cosines if c > reduction.COS_SNAP]
            key = tuple(-float(signs[a] * x) for a in range(k) for x in carts[perm[a]])
            rank = (len(acute), max(acute, default=0.0), key)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_cols = [signs[a] * cols[perm[a]] for a in range(k)]
    return best_rank, best_cols


# The coset search: coefficient radius per L/2L class, and the relative norm
# window within which a class minimum is tied, so the class gives no facet.
COSET_BOX = 2
TIE_REL = 1e-9


def loop_coset_minima(rm) -> list:
    n = len(rm)
    zgrid = mi.core.int_box((COSET_BOX,) * n)
    found = []
    for cls in itertools.product((0, 1), repeat=n):
        if not any(cls):
            continue
        ys = 2 * zgrid + np.array(cls, dtype=np.int64)
        norms = np.linalg.norm(ys @ rm.T, axis=1)
        reps = {canonical_sign(row)
                for row in ys[norms <= norms.min() * (1.0 + TIE_REL)]}
        if len(reps) == 1:
            found.append(reps.pop())
    return found


def loop_by_norm(m, coeffs):
    found = sorted(coeffs, key=lambda t: (float(np.linalg.norm(m @ np.asarray(t, float))), t))
    return found, np.array([m @ np.asarray(t, float) for t in found])


def loop_facet_measure(tight, r) -> float:
    rh = r / np.linalg.norm(r)
    if tight.shape[1] == 2:
        proj = tight @ np.array([-rh[1], rh[0]])
        return float(proj.max() - proj.min())
    u = np.zeros(3)
    u[int(np.argmin(np.abs(rh)))] = 1.0
    u = u - (u @ rh) * rh
    u /= np.linalg.norm(u)
    v = np.cross(rh, u)
    q = tight - tight.mean(axis=0)
    x, y = q @ u, q @ v
    order = np.argsort(np.arctan2(y, x), kind="stable")
    x, y = x[order], y[order]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def equivalence_bases():
    rng = np.random.default_rng(2025)
    cases = [(f"{n}d-cond{cond:g}-{k}", random_cond_basis(rng, n, cond))
             for n in (2, 3) for cond in CONDS for k in range(2)]
    cases += [(f"skewed-fcc-{cond:g}", skewed_basis(rng, FCC, cond)) for cond in (1e2, 1e3)]
    cases += [("hexagonal", mi.validate_basis(HEX_2D)),
              ("skewed-hexagonal", skewed_basis(rng, HEX_2D, 1e2)),
              ("no-obtuse-shortest", mi.validate_basis(NO_OBTUSE_SHORTEST_3D)),
              ("reduced-but-h-above-1", mi.validate_basis(REDUCED_BUT_H_ABOVE_1))]
    return [pytest.param(b, id=name) for name, b in cases]


def tied_sets(b: mi.Basis):
    vecs, carts, n2 = reduction._gauss_columns(b.matrix)
    if b.dim == 2:
        return vecs, carts, n2, np.array([[0, 1]])
    return reduction._selling_shortest_triples(b.matrix, vecs)[1:]


@pytest.mark.parametrize("b", equivalence_bases())
def test_ranked_config_matches_the_loop(b):
    vecs, carts, n2, sets = tied_sets(b)
    _, cols = min((loop_ranked_config(b.matrix, list(vecs[s])) for s in sets),
                  key=lambda cfg: cfg[0])
    got = reduction._ranked_config(vecs, carts, n2, sets)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.column_stack(cols))


# --- the direct ranking of one untied set against the loop -----------------
# One tied set with strictly increasing norms is ranked over its 2^(n-1)
# signings with a positive first column; every other input takes the array
# pass.  Both must give the loop's columns.

RECTANGULAR = [np.diag([1.0, 1.5]), np.diag([1.0, 1.3, 2.0])]
ZERO_FIRST_ENTRY = [np.column_stack(cols) for cols in (
    [(0.0, 1.0, 0.0), (1.3, 0.0, 0.0), (0.0, 0.0, 2.0)],
    [(-0.0, 1.0, 0.0), (1.3, 0.0, 0.0), (0.0, 0.0, 2.0)],
    [(0.0, -1.0, 0.0), (1.3, 0.0, 0.0), (0.0, 0.0, 2.0)],
    [(0.0, 1.0), (1.3, 0.0)],
    [(-0.0, -1.0), (1.3, 0.2)],
)]


def ranking_corpus() -> dict:
    """Group name -> bases: every type of ``type_sweep`` in 40 random frames,
    the two frozen 3D lattices, a seeded conditioning corpus, rectangular
    cells (zero cosines, so the Cartesian tuples decide) in 20 rotations,
    and shortest vectors whose first Cartesian entry is zero."""
    rng = np.random.default_rng(22)
    frames = []
    for m in type_sweep.TYPES.values():
        for _ in range(40):
            q, _ = np.linalg.qr(rng.normal(size=(len(m), len(m))))
            frames.append(q @ m @ random_unimodular(rng, len(m)))
    rotations = []
    for m in RECTANGULAR:
        rotations.append(m)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(len(m), len(m))))
            rotations.append(q @ m)
    return {
        "types": [mi.validate_basis(m) for m in frames],
        "frozen": [mi.validate_basis(NO_OBTUSE_SHORTEST_3D),
                   mi.validate_basis(REDUCED_BUT_H_ABOVE_1)],
        "conditioning": [random_cond_basis(rng, 2 + k % 2, 10 ** rng.uniform(0.0, 4.0))
                         for k in range(200)],
        "rectangular": [mi.validate_basis(m) for m in rotations],
        "zero-first-entry": [mi.validate_basis(m) for m in ZERO_FIRST_ENTRY],
    }


@pytest.mark.parametrize("group", ranking_corpus())
def test_both_rankings_match_the_loop(group):
    for b in ranking_corpus()[group]:
        vecs, carts, n2, sets = tied_sets(b)
        _, cols = min((loop_ranked_config(b.matrix, list(vecs[s])) for s in sets),
                      key=lambda cfg: cfg[0])
        want = np.column_stack(cols)
        assert np.array_equal(reduction._ranked_config(vecs, carts, n2, sets), want)
        assert np.array_equal(reduction._ranked_array(vecs, carts, n2, sets), want)


@pytest.mark.parametrize("rows", [
    [(-0.0, 1.0, 0.0), (1.3, 0.0, 0.0), (0.0, 0.0, 2.0)],
    [(0.0, -0.0, -1.0), (1.3, 0.0, 0.0), (0.0, 2.0, 0.0)],
    [(-0.0, -1.0, 0.0), (-1.3, 0.1, 0.0), (0.0, -0.0, 2.0)],
    [(-0.0, 1.0), (-1.3, -0.0)],
])
def test_direct_ranking_skips_signed_zeros(rows):
    """Cartesian rows given as they are, -0.0 included: the first nonzero
    entry of the shortest row decides its sign, as in ``lexsort``."""
    carts = np.array(rows)
    n = carts.shape[1]
    vecs = np.eye(n, dtype=np.int64)
    n2 = mi.core.row_dots(carts, carts)
    sets = np.array([range(n)])
    want = reduction._ranked_array(vecs, carts, n2, sets)
    assert np.array_equal(reduction._ranked_config(vecs, carts, n2, sets), want)
    first = next(x for x in rows[0] if x)
    assert want[0, 0] == (1 if first > 0 else -1)


def ranking_paths(monkeypatch, bases) -> Counter:
    untied = counted(monkeypatch, reduction, "_ranked_untied")
    array = counted(monkeypatch, reduction, "_ranked_array")
    for b in bases:
        mi.reduce(b)
    return untied + array


def test_random_bases_take_the_direct_ranking(monkeypatch):
    bases = ranking_corpus()["conditioning"]
    assert ranking_paths(monkeypatch, bases) == Counter(_ranked_untied=len(bases))


@pytest.mark.parametrize("m", [np.eye(2), np.eye(3), FCC], ids=["square", "cubic", "fcc"])
def test_equal_norms_take_the_array_pass(monkeypatch, m):
    rng = np.random.default_rng(8)
    bases = [mi.validate_basis(m)] + [mi.validate_basis(m @ random_unimodular(rng, len(m)))
                                      for _ in range(10)]
    assert ranking_paths(monkeypatch, bases) == Counter(_ranked_array=len(bases))


@pytest.mark.parametrize("b", equivalence_bases())
def test_relevant_vectors_match_the_loops(b):
    red = mi.reduce(b)
    rm = red.basis.matrix
    want = loop_coset_minima(rm)
    sums, facets, _ = voronoi._relevant_sets(red)
    assert sorted(map(tuple, sums[facets].tolist())) == sorted(want)
    # In reduced coordinates, and restated in the caller's basis, where the
    # coefficients are large enough for a matrix product to round differently.
    u = red.transform
    for m, coeffs in ((rm, want), (b.matrix, [canonical_sign(u @ np.array(y)) for y in want])):
        t = np.array(coeffs)
        order, carts = voronoi._by_norm(m, t)
        want_found, want_carts = loop_by_norm(m, coeffs)
        assert [tuple(r) for r in t[order].tolist()] == want_found
        assert np.array_equal(carts, want_carts)


@pytest.mark.parametrize("b", equivalence_bases())
def test_domains_match_the_loop(b):
    p = voronoi._prepare(b)
    want = loop_domains(p)
    got = cells._domains(p)
    assert [c.canonical_key for c in got] == [key for key, _, _ in want]
    for c, (_, z, matrix) in zip(got, want):
        assert np.array_equal(c.coeffs, z)
        assert np.array_equal(c.basis.matrix, matrix)


@pytest.mark.parametrize("b", equivalence_bases())
def test_facet_measures_match_the_loop(b):
    p = voronoi._prepare(b)
    want = np.array([loop_facet_measure(p.vertices[p.tight[:, f]], r)
                     for f, r in enumerate(p.normals)])
    got = voronoi._facet_measures(p.vertices, p.tight, p.normals)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())
    volume = sum(a * (0.5 * np.linalg.norm(r)) / b.dim for a, r in zip(want, p.normals))
    assert voronoi.voronoi_cell(b).volume == pytest.approx(volume, rel=1e-12)


def counted(monkeypatch, module, name) -> Counter:
    calls: Counter = Counter()
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("b", equivalence_bases())
def test_reduce_ranks_all_tied_sets_in_one_call(monkeypatch, b):
    calls = counted(monkeypatch, reduction, "_ranked_config")
    mi.reduce(b)
    assert calls == Counter(_ranked_config=1)


def test_skewed_fcc_ties_sixteen_triples():
    """The case the single ranking call is for: every shortest triple ties."""
    b = skewed_basis(np.random.default_rng(3), FCC, 1e3)
    *_, sets = tied_sets(b)
    assert len(sets) == 16


@pytest.mark.parametrize("b", equivalence_bases())
def test_check_cell_enumerates_no_domains(monkeypatch, b):
    calls = counted(monkeypatch, cells, "_domains")
    red = mi.reduce(b).basis
    for cell in (b, red):
        cells.check_cell(cell, b)
    assert calls == Counter()
    cells.enumerate_ps(b)
    assert calls == Counter(_domains=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3),
       skewed=st.booleans())
def test_check_cell_membership_matches_the_enumeration(seed, n, skewed):
    rng = np.random.default_rng(seed)
    b = (skewed_basis(rng, FCC if n == 3 else HEX_2D, 1e2) if skewed
         else random_cond_basis(rng, n, 10 ** rng.uniform(0.0, 3.0)))
    p = voronoi._prepare(b)
    members = {key for key, _, _ in loop_domains(p)}
    for c in cells.enumerate_ps(b):
        assert cells.check_cell(c.basis, b).ps_member
    for k in range(8):
        u = random_unimodular(rng, n, steps=k % 4, kmax=1)
        cell = mi.validate_basis((p.red.basis.matrix if k % 2 else b.matrix) @ u)
        report = cells.check_cell(cell, b)
        assert report.ps_member == (report.coeffs_key in members)


# --- the superbase build and the Selling step against their references -------
# The tolerance build solved every nonsingular subset of facet planes, and
# the Selling step picked its pair from a masked upper triangle.  The
# copies below are those versions.  The table-driven step must give the
# same bits, and the superbase build too, except where the tolerances of
# the references cannot resolve a facet.

BCC = 0.5 * np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


# Geometric tolerance of the tolerance build, as a fraction of the diameter.
GEOM_REL = 1e-8


def all_subsets_vertices(carts, tol_len):
    """The vertex build that solves every nonsingular n-subset of planes,
    keeps the solutions that every halfspace admits within ``tol_len``, and
    merges those within ``tol_len`` of an earlier one."""
    n = carts.shape[1]
    normals = np.vstack([carts, -carts])
    nnorm = np.linalg.norm(normals, axis=1)
    offsets = 0.5 * nnorm ** 2
    combos = np.array(list(itertools.combinations(range(len(normals)), n)))
    mats = normals[combos]
    dets = np.linalg.det(mats)
    scale = np.prod(nnorm[combos], axis=1)
    ok = np.abs(dets) > 1e-10 * scale
    verts = np.linalg.solve(mats[ok], offsets[combos[ok]][..., None])[..., 0]
    feasible = np.all(verts @ normals.T <= offsets[None, :] + tol_len * nnorm[None, :], axis=1)
    pts = verts[feasible]
    pts = pts[np.lexsort(pts.T[::-1])]
    close = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1) <= tol_len
    dropped = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        if not dropped[i]:
            dropped[i + 1:] |= close[i, i + 1:]
    verts = pts[~dropped]
    if len(verts) < n + 1:
        raise mi.DegenerateCell(
            f"only {len(verts)} distinct vertices found (need at least {n + 1})")
    tight = np.abs(verts @ normals.T - offsets) <= tol_len * nnorm
    if np.any(tight.sum(axis=0) < n):
        raise mi.DegenerateCell("halfspace with too few tight vertices")
    return normals, verts, tight


def triu_selling(m, start):
    """The Selling iteration with its pair picked from a masked triangle."""
    s = np.column_stack(start + [-sum(start)])
    for _ in range(reduction.MAX_ITERATIONS):
        c = m @ s
        norms = np.linalg.norm(c, axis=0)
        d = np.triu(c.T @ c, 1)
        d[d <= reduction.COS_SNAP * np.outer(norms, norms)] = 0.0
        if not d.any():
            return s
        i, j = np.unravel_index(np.argmax(d), d.shape)
        s[:, [x for x in range(4) if x not in (i, j)]] += s[:, [i]]
        s[:, i] *= -1
    raise mi.ReductionNonConvergence("no convergence")


def elongated(rng, length: float) -> mi.Basis:
    """An obtuse lattice with one long cell edge: the long facet normals are
    nearly parallel, so plane triples reach a condition number of about
    length^2."""
    return mi.cell_params_to_basis(1.0, rng.uniform(1.0, 1.2), length,
                                   *rng.uniform(92.0, 100.0, 3))


def vertex_bases():
    rng = np.random.default_rng(2026)
    cases = [(p.id, p.values[0]) for p in equivalence_bases()]
    for name, m in (("square", np.eye(2)), ("hexagonal", HEX_2D), ("cubic", np.eye(3)),
                    ("fcc", FCC), ("bcc", BCC)):
        for k in range(4):
            q, _ = np.linalg.qr(rng.normal(size=(len(m), len(m))))
            cases.append((f"{name}-frame{k}", mi.validate_basis(
                q @ m @ random_unimodular(rng, len(m)))))
    for name, m in (("cubic", np.eye(3)), ("fcc", FCC)):
        for k in range(4):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            cases.append((f"{name}-perturbed{k}", mi.validate_basis(
                q @ (m + 1e-7 * rng.normal(size=(3, 3))) @ random_unimodular(rng, 3))))
    for length in (1e3, 1e4):
        cases += [(f"elongated-{length:g}-{k}", elongated(rng, length)) for k in range(3)]
    return [pytest.param(b, id=name) for name, b in cases]


def reference_build(b: mi.Basis):
    """The relevant vectors of the coset search, in norm order, and the
    tolerance build's (normals, vertices, tight) from them."""
    rm = mi.reduce(b).basis
    found, carts = loop_by_norm(rm.matrix, loop_coset_minima(rm.matrix))
    return found, all_subsets_vertices(carts, GEOM_REL * rm.diameter())


@pytest.mark.parametrize("b", vertex_bases())
def test_screened_vertices_match_all_subsets(request, b):
    """The superbase build gives the references' relevant vectors, normals,
    vertices and tight sets, bit for bit.  Where facets lie within the
    references' tolerances of vanishing, it passes the type sweep's checks
    instead: on cubic and FCC perturbed by 1e-7, distances against the
    oracle (which searches the reduced basis), volume |det|, at most one
    vertex per ordering of the superbase and every vertex inside every
    halfspace; on cells 1e4 long, where the references merge and invent
    vertices (44, with volumes off by 62-89%), the 24 vertices and the
    volume."""
    name = request.node.callspec.id
    if "-perturbed" in name:
        red = mi.reduce(b)
        frame = mi.core.unimodular_inverse(red.transform)
        rng = np.random.default_rng(5)
        assert type_sweep.outcome(red.basis.matrix, [frame], 1e-7, rng) == "ok"
    elif name.startswith("elongated-10000-"):
        cell = voronoi.voronoi_cell(b)
        assert len(cell.vertices) == 24
        assert cell.volume == pytest.approx(abs(b.det), rel=1e-8)
    else:
        found, want = reference_build(b)
        p = voronoi._prepare(b)
        assert p.relevant == tuple(found)
        for w, g in zip(want, (p.normals, p.vertices, p.tight)):
            assert w.shape == g.shape and np.array_equal(w, g)


def vertex_bases_3d():
    return [p for p in vertex_bases() if p.values[0].dim == 3]


@pytest.mark.parametrize("b", vertex_bases_3d())
def test_selling_step_matches_the_triangle_pick(b):
    vecs = reduction._gauss_columns(b.matrix)[0]
    s = triu_selling(b.matrix, [c.copy() for c in vecs])
    got, w, *_ = reduction._selling_shortest_triples(b.matrix, vecs)
    assert np.array_equal(got, s)
    assert w.dtype == np.int64
    assert np.array_equal(w, reduction._CANDIDATES @ s[:, :3].T)


@pytest.mark.parametrize("b", vertex_bases())
def test_basis_diameter_is_the_corner_maximum(b):
    corners = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=b.dim))).T
    assert b.diameter() == float(np.linalg.norm(b.matrix @ corners, axis=0).max())
