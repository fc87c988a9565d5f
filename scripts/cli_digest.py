"""Print one SHA-256 per CLI command kind over seeded command lines.

Two checkouts that print the same digests write the same bytes for every
command below: each digest covers the exit code, stdout and stderr of its
commands, run in-process through ``minimage.cli.run``.  The kinds are
``dist``, ``cells``, ``check-cell``, and ``matrix`` and ``neighbors`` in
JSON and in CSV.

Each of the 40 cycles, built from ``--seed``, runs:

- three ``dist`` commands: a 2D and a 3D basis of condition number
  10^U(0, 3) and unit covolume, and ``--cell-params``;
- one ``cells`` and one ``check-cell`` command (the cell is the lattice in
  another unimodular frame);
- ``matrix`` and ``neighbors``, each in both formats, on one of four
  lattices: a skewed 3D basis (plain decimals), ``2 0 0 2`` with points
  on a quarter grid (integral distances and repeated points, labelled),
  and the square lattices of side 1e13 and 1e-6, where "%.12g" writes an
  exponent.  Points files alternate between JSON and plain text.

``--shrink K`` runs 1/K of the cycles (rounded up).  Only the command line
is used, so the script runs unchanged on older checkouts.

Usage: python scripts/cli_digest.py [--seed 0] [--shrink 1]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from minimage import cli

CYCLES = 40
MATRIX_POINTS = 120
NEIGHBOR_POINTS = 60
TABLE_LATTICES = ("skewed", "grid", "huge", "tiny")


def cond_matrix(rng, n: int, cond: float) -> np.ndarray:
    """Column matrix with 2-norm condition number ``cond`` and |det| = 1."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2
    return m / abs(np.linalg.det(m)) ** (1.0 / n)


def unimodular(rng, n: int) -> np.ndarray:
    u = np.eye(n, dtype=np.int64)
    for _ in range(4):
        i, j = rng.choice(n, size=2, replace=False)
        u[:, j] += int(rng.integers(-2, 3)) * u[:, i]
    return u


def inline(m: np.ndarray) -> str:
    """The CLI's inline form: each consecutive group of n values is one column."""
    return " ".join(repr(float(x)) for x in m.T.ravel())


def values(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def points_file(rng, name: str, pts: np.ndarray, labelled: bool) -> str:
    """Write ``pts`` as JSON (with labels when ``labelled``) or as text."""
    if labelled:
        text = json.dumps({"frac": pts.tolist(), "labels": [f"p{k}" for k in range(len(pts))]})
    elif rng.random() < 0.5:
        text = json.dumps({"frac": pts.tolist()})
    else:
        text = "".join(values(p) + "\n" for p in pts)
    with open(name, "w", encoding="utf-8") as f:
        f.write(text)
    return name


def table_input(rng):
    """(lattice argv, dimension, point sampler, cutoff, labelled) for one
    matrix or neighbors command."""
    kind = TABLE_LATTICES[int(rng.integers(len(TABLE_LATTICES)))]
    if kind == "skewed":
        m = cond_matrix(rng, 3, 10 ** rng.uniform(0.0, 2.0))
        return ["--lattice", inline(m)], 3, rng.random, 0.5, False
    if kind == "grid":
        return (["--lattice", "2 0 0 2"], 2, lambda shape: rng.integers(0, 4, shape) / 4.0,
                2.5, True)
    side = 1e13 if kind == "huge" else 1e-6
    return ["--lattice", inline(side * np.eye(2))], 2, rng.random, 0.4 * side, False


def commands(seed: int, cycle: int):
    """(kind, argv) for every command of one cycle; writes its points files."""
    rng = np.random.default_rng([seed, cycle])
    for n in (2, 3):
        m = cond_matrix(rng, n, 10 ** rng.uniform(0.0, 3.0))
        yield "dist", ["dist", "--lattice", inline(m), "--p1", values(rng.random(n)),
                       "--p2", values(rng.random(n))]
    params = [*rng.uniform(1.0, 2.0, 3), *rng.uniform(75.0, 105.0, 3)]
    yield "dist", ["dist", "--cell-params", values(params), "--p1", values(rng.random(3)),
                   "--p2", values(rng.random(3))]
    yield "cells", ["cells", "--cell-params", values(params)]
    m = cond_matrix(rng, 3, 10 ** rng.uniform(0.0, 2.0))
    yield "check-cell", ["check-cell", "--lattice", inline(m),
                         "--cell", inline(m @ unimodular(rng, 3))]
    for cmd, size in (("matrix", MATRIX_POINTS), ("neighbors", NEIGHBOR_POINTS)):
        lattice, dim, draw, cutoff, labelled = table_input(rng)
        name = points_file(rng, f"{cmd}-{cycle}.pts", draw((size, dim)), labelled)
        extra = ["--cutoff", repr(cutoff)] if cmd == "neighbors" else []
        for fmt in ("json", "csv"):
            yield f"{cmd}-{fmt}", [cmd, *lattice, "--points", name, *extra, "--format", fmt]


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shrink", type=int, default=1)
    args = parser.parse_args()
    if args.shrink < 1:
        parser.error("--shrink must be at least 1")

    cycles = -(-CYCLES // args.shrink)
    digests = {}
    count = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Relative points paths keep the temporary directory out of the output.
        os.chdir(tmp)
        try:
            for cycle in range(cycles):
                for kind, argv in commands(args.seed, cycle):
                    digests.setdefault(kind, hashlib.sha256()).update(
                        f"{count}:{run(argv)}".encode())
                    count += 1
        finally:
            os.chdir(cwd)
    print(f"{count} commands, seed {args.seed}, {cycles} cycles")
    for kind, h in digests.items():
        print(f"{kind:15s} {h.hexdigest()}")


if __name__ == "__main__":
    main()
