"""Print one SHA-256 per public operation over a fixed corpus of lattices.

Two checkouts that print the same digests give the same output bits on
every basis of the corpus: reduced bases and transforms, relevant
vectors, Voronoi cells (normals, vertices, volume), copy counts and
extents, domains, cell checks, and distances, distance matrices and
neighbor lists.  Neighbor lists are digested at two cutoffs, 1 and 2.5
times |det B|^(1/n): the larger one gives pairs several hits each and
search blocks of several layers.  Domain errors count as outputs, by type.  Only the
public API is used, so the script runs unchanged on older checkouts.

The corpus has 1,501 bases, built from ``--seed``:

- 300 2D and 300 3D bases of condition number 10^U(0, 5), unit covolume;
- 100 2D and 100 3D obtuse tie-free lattices in random unimodular frames;
- 60 each of square, hexagonal, cubic, face-centred cubic and a lattice
  with no all-obtuse shortest basis, in random unimodular frames;
- 200 rotated face-centred cubic bases sheared up to condition number
  1e2 and 200 up to 1e3;
- one reduced lattice whose reach extent exceeds 1 on one axis.

``--shrink K`` builds every group with 1/K of its bases (rounded up).
``--only OP[,OP...]`` computes only the named operations.  It draws the
same random numbers as the full run, so each digest it prints equals the
full run's wherever no basis raises a domain error.

Usage: python scripts/output_digest.py [--seed 0] [--shrink 1] [--only OP[,OP...]]
"""

import argparse
import functools
import hashlib
import math

import numpy as np

import minimage as mi

HEX_2D = np.array([[1.0, -0.5], [0.0, math.sqrt(3.0) / 2.0]])
FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
NO_OBTUSE_SHORTEST_3D = np.array([
    [0.77965451, 0.57399889, -0.74925534],
    [0.21052717, 0.18402582, -0.16739624],
    [-0.02412731, -0.00314152, 0.04661637],
])
REDUCED_BUT_H_ABOVE_1 = np.array([
    [0.13125135, -0.35959709, -0.04705178],
    [0.09806472, -0.24771099, -0.06635602],
    [-0.17092042, 0.46656115, 0.07239761],
])
PAIRS_PER_BASIS = 3
MATRIX_POINTS = 4
CUTOFFS = (1.0, 2.5)


def cond_matrix(rng, n: int, cond: float) -> np.ndarray:
    """Column matrix with 2-norm condition number ``cond`` and |det| = 1."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2
    return m / abs(np.linalg.det(m)) ** (1.0 / n)


def unimodular(rng, n: int, steps: int = 6, kmax: int = 3) -> np.ndarray:
    u = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        u[:, j] += int(rng.integers(1, kmax + 1)) * (1 if rng.random() < 0.5 else -1) * u[:, i]
    return u[:, rng.permutation(n)] if rng.random() < 0.5 else u


def obtuse(rng, n: int) -> np.ndarray:
    """A strictly obtuse lattice with 2^n - 1 relevant vector pairs, given
    through its reduced basis."""
    while True:
        if n == 2:
            blen, theta = rng.uniform(1.0, 1.22), math.radians(rng.uniform(93.0, 109.0))
            m = np.array([[1.0, blen * math.cos(theta)], [0.0, blen * math.sin(theta)]])
        else:
            try:
                m = mi.cell_params_to_basis(*rng.uniform((1.0, 1.1, 1.2), (1.08, 1.18, 1.3)),
                                            *rng.uniform(93.0, 106.0, 3)).matrix
            except mi.InvalidCellParameters:
                continue
        b = mi.validate_basis(m)
        g = m.T @ m
        cos = [g[i, j] / math.sqrt(g[i, i] * g[j, j]) for i in range(n) for j in range(i)]
        if (mi.is_reduced(b) and len(mi.relevant_vectors(b).vectors) == 2 ** n - 1
                and max(cos) <= -0.02):
            return m


def skewed(rng, matrix: np.ndarray, cond: float) -> np.ndarray:
    """The lattice of ``matrix``, rotated, with random column shears until
    the basis condition number reaches ``cond``."""
    n = len(matrix)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q @ matrix
    while np.linalg.cond(m) < cond:
        i, j = rng.choice(n, size=2, replace=False)
        m[:, j] += (1.0 if rng.random() < 0.5 else -1.0) * m[:, i]
    return m


def corpus(seed: int, shrink: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    size = lambda count: -(-count // shrink)
    out = [cond_matrix(rng, n, 10 ** rng.uniform(0.0, 5.0))
           for n in (2, 3) for _ in range(size(300))]
    out += [obtuse(rng, n) @ unimodular(rng, n) for n in (2, 3) for _ in range(size(100))]
    for m in (np.eye(2), HEX_2D, np.eye(3), FCC, NO_OBTUSE_SHORTEST_3D):
        out += [m @ unimodular(rng, len(m)) for _ in range(size(60))]
    out += [skewed(rng, FCC, cond) for cond in (1e2, 1e3) for _ in range(size(200))]
    return out + [REDUCED_BUT_H_ABOVE_1]


def floats(a) -> str:
    return ",".join(float(x).hex() for x in np.ravel(a))


def ints(a) -> str:
    return ",".join(str(int(x)) for x in np.ravel(a))


def records(m: np.ndarray, rng):
    """(operation, text) for every public operation on the basis ``m``, the
    text as a thunk.  Every random number is drawn in order whether or not
    a thunk runs, so any subset of the thunks gives the full run's texts."""
    b = mi.validate_basis(m)
    n = b.dim
    red = functools.cache(lambda: mi.reduce(b))
    cell = functools.cache(lambda: mi.voronoi_cell(b))
    domains = functools.cache(lambda: mi.enumerate_ps(b))
    yield "reduce", lambda: floats(red().basis.matrix) + ints(red().transform)
    yield "is_reduced", lambda: str(mi.is_reduced(red().basis))

    def relevant():
        rel = mi.relevant_vectors(b)
        return ints([v.coeffs for v in rel.vectors]) + floats(rel.cartesians)

    yield "relevant_vectors", relevant
    yield "voronoi_cell", lambda: (floats(cell().normals) + floats(cell().offsets)
                                   + floats(cell().vertices) + float(cell().volume).hex())
    yield "frac_extents", lambda: floats(mi.frac_extents(cell(), b))
    yield "domain_extents", lambda: floats(mi.domain_extents(red().basis, b))

    def copy_counts():
        counts = mi.copy_counts(b, b)
        return ints(counts.layers) + floats(counts.h)

    yield "copy_counts", copy_counts
    yield "enumerate_ps", lambda: ";".join(ints(d.coeffs) + floats(d.basis.matrix)
                                           for d in domains())

    def check_cell():
        checks = []
        for c in [b, red().basis] + [d.basis for d in domains()[:2]]:
            r = mi.check_cell(c, b)
            checks.append(f"{r.sufficient}{r.ps_member}{r.cell_reduced}{r.coeffs_key}"
                          f"{r.counts.layers}")
        return ";".join(checks)

    yield "check_cell", check_cell
    pairs = [(rng.random(n), rng.random(n)) for _ in range(PAIRS_PER_BASIS)]

    def distances():
        dists = [mi.min_image_distance(b, p1, p2) for p1, p2 in pairs]
        return ";".join(f"{d.distance.hex()}{d.image.coeffs}" for d in dists)

    yield "min_image_distance", distances
    points = mi.PeriodicPointSet(b, rng.random((MATRIX_POINTS, n)))
    yield "pairwise_distances", lambda: floats(mi.pairwise_distances(points))
    for cutoff in CUTOFFS:
        yield f"neighbors_within@{cutoff:g}", lambda cutoff=cutoff: ";".join(
            f"{h!r}" for h in mi.neighbors_within(points, cutoff * abs(b.det) ** (1.0 / n)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shrink", type=int, default=1)
    parser.add_argument("--only", metavar="OP[,OP...]",
                        help="digest only these operations, e.g. min_image_distance")
    args = parser.parse_args()
    if args.shrink < 1:
        parser.error("--shrink must be at least 1")

    bases = corpus(args.seed, args.shrink)
    only = None if args.only is None else set(args.only.split(","))
    if only is not None:
        # Listing the names runs no thunk.
        unknown = only - {op for op, _ in records(bases[0], np.random.default_rng(0))}
        if unknown:
            parser.error(f"--only: unknown operation(s) {', '.join(sorted(unknown))}")
    digests = {}
    errors = 0
    for k, m in enumerate(bases):
        rng = np.random.default_rng([args.seed, k])
        try:
            for op, text in records(m, rng):
                if only is None or op in only:
                    digests.setdefault(op, hashlib.sha256()).update(f"{k}:{text()}\n".encode())
        except mi.LatticeError as exc:
            errors += 1
            digests.setdefault("errors", hashlib.sha256()).update(
                f"{k}:{type(exc).__name__}\n".encode())
    print(f"{len(bases)} bases, seed {args.seed}, neighbor cutoffs "
          f"{'/'.join(f'{c:g}' for c in CUTOFFS)} x |det|^(1/n), "
          f"{errors} raised a domain error")
    for op, h in digests.items():
        print(f"{op:20s} {h.hexdigest()}")


if __name__ == "__main__":
    main()
