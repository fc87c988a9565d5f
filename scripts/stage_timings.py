"""Time the stages of ``reduce`` and the readers of the Voronoi build for
two source trees, side by side.

Loads the ``minimage`` package of each tree in one process, under its own
module name, and times on the same bases, per call:

- ``_gauss_columns``, ``_selling_shortest_triples`` (3D only: Selling and
  the choice of the shortest triples, by whichever pick or pass the tree
  has), ``_ranked_config`` and ``unimodular_inverse``, each on its own
  tree's inputs to that stage;
- ``reduce`` itself;
- ``min_image_distance`` on one seeded pair of points per basis;
- in the ``fcc`` and ``2d`` groups only: ``pairwise_distances:200`` and
  ``pairwise_distances:800``, the distance matrix of 200 and 800 seeded
  points per basis;
- in the ``fcc`` group only: ``neighbor_arrays:cli`` (100 seeded points,
  cutoff 0.5, as in the benchmark's cli workload), ``neighbor_arrays:bulk``
  (200 points, cutoff 1.06, as in its bulk workload) and
  ``neighbor_arrays:sparse`` (4000 points, cutoff 0.05), on the group's
  first basis scaled to unit covolume;
- in the ``geometry`` group only: ``geometry_pass``, the calls of the
  benchmark's geometry workload (``reduce``, ``relevant_vectors``,
  ``voronoi_cell``, ``copy_counts``, ``enumerate_ps``, ``check_cell``) on a
  new ``Basis`` per pass, and each public reader of the Voronoi build
  (``relevant_vectors``, ``voronoi_cell``, ``copy_counts``, ``domain_extents``, ``enumerate_ps``,
  ``check_cell``, ``pairwise_distances`` on 8 seeded points, and
  ``render_2d`` to the null device, 2D only) on a ``Basis`` that every
  reader has been called with once already;
- in the ``cli`` group only: ``run:KIND`` (``cli.run`` in process, output
  discarded) and ``_parse:KIND`` for each command kind of the benchmark's
  cli workload, and ``_matrix:json|csv`` and ``_neighbors:json|csv``,
  each command's output formatting alone: its kernel is replaced by the
  result it gives on the command's points (a 200 x 200 distance table,
  the hits of 100 points within 0.5), so the base tree's row-by-row "%"
  path and the change's table writer run on the same values.

Rounds interleave the two trees, and the tree that goes first alternates
from round to round, so drifts in machine speed reach both sides alike.
Each figure is the median over rounds of the mean time per call in ms,
and ``ratio`` is change over base.

The groups of bases, all seeded:

- ``2d``, ``3d``: the stream-like pool, 24 bases per dimension of
  condition number 10^U(0, 1), 1e2 and 1e3 (8 each), unit covolume; half
  of the 3D bases are rebuilt from their cell parameters, in the standard
  orientation;
- ``fcc``, ``cubic``: face-centred cubic and cubic lattices, and
  ``skewed_hexagonal``: the hexagonal lattice, each in 8 random unimodular
  frames.  Their shortest vectors have equal norms.
- ``geometry``: 8 bases of condition number 10^U(0, 2), unit covolume,
  three 3D to one 2D as in the geometry workload (which goes up to 1e3,
  where the lattice points of a 2D ``render_2d`` window run to millions).
- ``cli``: a 3D and a 2D ``dist``, ``cells`` and ``check-cell`` on bases
  of condition number 10^U(0, 2), and ``matrix`` (JSON and CSV, 200
  points) and ``neighbors`` (100 points, cutoff 0.5) on face-centred cubic
  lattices in random unimodular frames, like the cli workload's skewed
  ones; the point files go to a temporary directory.

Prints one JSON object: group -> stage -> {"base", "change", "ratio"}.

Usage: python scripts/stage_timings.py --base OLD/src --change src
           [--seed 1] [--rounds 9] [--repeats 20]

A tree is a directory that holds the ``minimage`` package, or a checkout
whose ``src`` does.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HEX_2D = np.array([[1.0, -0.5], [0.0, math.sqrt(3.0) / 2.0]])
FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
# The groups whose bases also time distance matrices, and their sizes.
MATRIX_GROUPS = ("fcc", "2d")
MATRIX_SIZES = (200, 800)
# The neighbor lists timed in the fcc group: name -> (points, cutoff).
NEIGHBOR_INPUTS = {"cli": (100, 0.5), "bulk": (200, 1.06), "sparse": (4000, 0.05)}
STAGES = ("_gauss_columns", "_selling_shortest_triples", "_ranked_config",
          "unimodular_inverse", "reduce", "min_image_distance",
          *(f"pairwise_distances:{npts}" for npts in MATRIX_SIZES),
          *(f"neighbor_arrays:{name}" for name in NEIGHBOR_INPUTS),
          "geometry_pass", "relevant_vectors", "voronoi_cell", "copy_counts", "domain_extents",
          "enumerate_ps", "check_cell", "pairwise_distances", "render_2d",
          *(f"{call}:{kind}" for call in ("run", "_parse")
            for kind in ("dist-3d", "dist-2d", "cells", "check-cell", "matrix-json",
                         "matrix-csv", "neighbors")),
          "_matrix:json", "_matrix:csv", "_neighbors:json", "_neighbors:csv")


def load(tree: Path, name: str):
    """Import the ``minimage`` package under ``tree`` as module ``name``."""
    pkg = tree / "minimage"
    if not pkg.is_dir():
        pkg = tree / "src" / "minimage"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"stage_timings: no minimage package under {tree}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cond_matrix(rng, n: int, cond: float) -> np.ndarray:
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2
    return m / abs(np.linalg.det(m)) ** (1.0 / n)


def unimodular(rng, n: int) -> np.ndarray:
    u = np.eye(n, dtype=np.int64)
    for _ in range(6):
        i, j = rng.choice(n, size=2, replace=False)
        u[:, j] += int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1) * u[:, i]
    return u


def groups(seed: int) -> dict:
    """Group name -> list of (kind, matrix or cell parameters, p1, p2); in
    ``geometry``, list of (matrix, points)."""
    rng = np.random.default_rng(seed)
    conds = [lambda: 10 ** rng.uniform(0.0, 1.0), lambda: 1e2, lambda: 1e3]
    out = {"2d": [], "3d": []}
    for cond in conds:
        for k in range(8):
            out["2d"].append(("matrix", cond_matrix(rng, 2, cond())))
            out["3d"].append(("params" if k % 2 else "matrix", cond_matrix(rng, 3, cond())))
    for name, m in (("fcc", FCC), ("cubic", np.eye(3)), ("skewed_hexagonal", HEX_2D)):
        out[name] = [("matrix", m @ unimodular(rng, len(m))) for _ in range(8)]
    pool = {name: [(kind, m, rng.random(len(m)), rng.random(len(m))) for kind, m in items]
            for name, items in out.items()}
    pool["geometry"] = [(m, rng.random((8, n))) for n in (3, 3, 3, 2) * 2
                        for m in [cond_matrix(rng, n, 10 ** rng.uniform(0.0, 2.0))]]
    return pool


def geometry_pass(mi, b) -> None:
    """The calls of the benchmark's geometry workload, on one lattice."""
    mi.reduce(b)
    mi.relevant_vectors(b)
    mi.voronoi_cell(b)
    mi.copy_counts(b, b)
    mi.enumerate_ps(b)
    mi.check_cell(b, b)


def geometry_calls(mi, items: list) -> dict:
    """The cold pass on a new ``Basis`` per call, and each reader of the
    Voronoi build on bases it has been called with once already."""
    bases = [(mi.validate_basis(m), points) for m, points in items]
    warm = {
        "relevant_vectors": (mi.relevant_vectors, [(b,) for b, _ in bases]),
        "voronoi_cell": (mi.voronoi_cell, [(b,) for b, _ in bases]),
        "copy_counts": (mi.copy_counts, [(b, b) for b, _ in bases]),
        "domain_extents": (mi.domain_extents, [(b, b) for b, _ in bases]),
        "enumerate_ps": (mi.enumerate_ps, [(b,) for b, _ in bases]),
        "check_cell": (mi.check_cell, [(b, b) for b, _ in bases]),
        "pairwise_distances": (mi.pairwise_distances,
                               [(mi.PeriodicPointSet(b, points),) for b, points in bases]),
        "render_2d": (mi.render_2d, [(b, None, os.devnull) for b, _ in bases if b.dim == 2]),
    }
    for fn, args in warm.values():
        for a in args:
            fn(*a)
    cold = (lambda m: geometry_pass(mi, mi.Basis(m)), [(m,) for m, _ in items])
    return {"geometry_pass": cold, **warm}


def cli_argvs(seed: int, tmp: Path) -> dict:
    """Command kind -> argv, with point files written under ``tmp``."""
    rng = np.random.default_rng((seed, 24))

    def inline(values) -> str:
        return " ".join(repr(float(x)) for x in np.asarray(values).ravel())

    def lattice(n):
        return inline(cond_matrix(rng, n, 10 ** rng.uniform(0.0, 2.0)).T)

    def points(n):
        path = tmp / f"points-{n}.json"
        path.write_text(json.dumps({"frac": rng.random((n, 3)).tolist()}))
        return str(path)

    fcc = [inline((FCC @ unimodular(rng, 3)).T / 2 ** (1 / 3)) for _ in range(2)]
    return {
        "dist-3d": ["dist", "--lattice", lattice(3), "--p1", inline(rng.random(3)),
                    "--p2", inline(rng.random(3))],
        "dist-2d": ["dist", "--lattice", lattice(2), "--p1", inline(rng.random(2)),
                    "--p2", inline(rng.random(2))],
        "cells": ["cells", "--lattice", lattice(3)],
        "check-cell": ["check-cell", "--lattice", (m := lattice(3)), "--cell", m],
        "matrix-json": ["matrix", "--lattice", fcc[0], "--points", points(200)],
        "matrix-csv": ["matrix", "--lattice", fcc[0], "--points", points(200),
                       "--format", "csv"],
        "neighbors": ["neighbors", "--lattice", fcc[1], "--points", points(100),
                      "--cutoff", "0.5"],
    }


def quiet_run(cli, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def formatted(cli, kernel: str, result, handler, args):
    """``handler(args)`` while ``cli.<kernel>`` returns ``result``: the
    command's output formatting without its kernel."""
    real = getattr(cli, kernel)
    setattr(cli, kernel, lambda *_: result)
    try:
        return handler(args)
    finally:
        setattr(cli, kernel, real)


def cli_calls(mi, argvs: dict) -> dict:
    """``run`` and ``_parse`` per command kind, and the formatting of the
    matrix and neighbor outputs on their kernels' results."""
    cli = importlib.import_module(f"{mi.__name__}.cli")
    calls = {}
    for kind, argv in argvs.items():
        calls[f"run:{kind}"] = (quiet_run, [(cli, argv)])
        calls[f"_parse:{kind}"] = (cli._parse, [(argv,)])
    for kind, kernel, handler in (("matrix-csv", "pairwise_distances", cli._matrix),
                                  ("neighbors", "neighbor_arrays", cli._neighbors)):
        name, args = cli._parse(argvs[kind])
        args = cli._resolve(args, cli.COMMANDS[name][1])
        result = (mi.pairwise_distances(args.points) if kernel == "pairwise_distances"
                  else mi.neighbor_arrays(args.points, args.cutoff))
        for fmt in ("json", "csv"):
            calls[f"{handler.__name__}:{fmt}"] = (formatted, [
                (cli, kernel, result, handler, SimpleNamespace(**{**vars(args), "format": fmt}))])
    return calls


class Side:
    """One tree's stage callables, each with its argument tuples per group."""

    def __init__(self, mi, pool: dict, seed: int):
        red = importlib.import_module(f"{mi.__name__}.reduction")
        core = importlib.import_module(f"{mi.__name__}.core")
        self.calls = {"geometry": geometry_calls(mi, pool["geometry"]),
                      "cli": cli_calls(mi, pool["cli"])}
        for name, items in pool.items():
            if name in ("geometry", "cli"):
                continue
            bases = []
            for kind, m, p1, p2 in items:
                b = mi.validate_basis(m)
                if kind == "params":
                    b = mi.cell_params_to_basis(*mi.basis_to_cell_params(b))
                bases.append((b, p1, p2))
            stages = {"_gauss_columns": [], "_selling_shortest_triples": [],
                      "_ranked_config": [], "unimodular_inverse": []}
            for b, _, _ in bases:
                m = b.matrix
                vecs, carts, n2 = red._gauss_columns(m)
                stages["_gauss_columns"].append((m,))
                if b.dim == 2:
                    sets = red._PAIR
                else:
                    stages["_selling_shortest_triples"].append((m, vecs))
                    _, vecs, carts, n2, sets = red._selling_shortest_triples(m, vecs)
                stages["_ranked_config"].append((vecs, carts, n2, sets))
                stages["unimodular_inverse"].append(
                    (red._ranked_config(vecs, carts, n2, sets),))
            stages["reduce"] = [(b,) for b, _, _ in bases]
            stages["min_image_distance"] = bases
            if name in MATRIX_GROUPS:
                for npts in MATRIX_SIZES:
                    rng = np.random.default_rng((seed, npts))
                    stages[f"pairwise_distances:{npts}"] = [
                        (mi.PeriodicPointSet(b, rng.random((npts, b.dim))),) for b, _, _ in bases]
            if name == "fcc":
                b = mi.validate_basis(bases[0][0].matrix / 2 ** (1 / 3))
                for kind, (npts, cutoff) in NEIGHBOR_INPUTS.items():
                    rng = np.random.default_rng((seed, npts))
                    stages[f"neighbor_arrays:{kind}"] = [
                        (mi.PeriodicPointSet(b, rng.random((npts, 3))), cutoff)]
            fns = {"unimodular_inverse": core.unimodular_inverse, "reduce": red.reduce,
                   "min_image_distance": mi.min_image_distance,
                   **{f"pairwise_distances:{npts}": mi.pairwise_distances for npts in MATRIX_SIZES},
                   **{f"neighbor_arrays:{kind}": mi.neighbor_arrays for kind in NEIGHBOR_INPUTS}}
            self.calls[name] = {
                stage: (fns.get(stage) or getattr(red, stage), args)
                for stage, args in stages.items() if args}


def per_call_ms(fn, args: list, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        for a in args:
            fn(*a)
    return 1e3 * (time.perf_counter() - t0) / (repeats * len(args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)

    tmp = tempfile.TemporaryDirectory()
    pool = {**groups(args.seed), "cli": cli_argvs(args.seed, Path(tmp.name))}
    sides = {"base": Side(load(args.base, "minimage_base"), pool, args.seed),
             "change": Side(load(args.change, "minimage_change"), pool, args.seed)}
    samples = {(g, s, side): [] for g in pool for s in STAGES for side in sides
               if s in sides[side].calls[g]}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for g in pool:
            for stage in STAGES:
                for side in order:
                    if stage in sides[side].calls[g]:
                        fn, a = sides[side].calls[g][stage]
                        samples[g, stage, side].append(per_call_ms(fn, a, args.repeats))

    report = {}
    for g in pool:
        for stage in STAGES:
            if (g, stage, "base") in samples and (g, stage, "change") in samples:
                base, change = (statistics.median(samples[g, stage, side])
                                for side in ("base", "change"))
                report.setdefault(g, {})[stage] = {
                    "base": round(base, 5), "change": round(change, 5),
                    "ratio": round(change / base, 3)}
    tmp.cleanup()
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
