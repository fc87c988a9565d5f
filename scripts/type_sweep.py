"""Outcome counts of every public operation near the boundaries between
the Voronoi types of 2D and 3D lattices.

A draw is the lattice q (M + eps N), with q a random rotation, N Gaussian
and M one of square and hexagonal in 2D, or cube, face-centred cubic,
body-centred cubic, body-centred tetragonal (c = 2a) and hexagonal prism
in 3D, given in three random unimodular frames L U.  Each U is four
random column shears of up to 2, so the frames reach condition numbers of
about 1e3, where the 1e-12 bar holds.  Every public operation runs on
each frame.  A draw is ``ok`` when, in every frame:

- each distance agrees to 1e-12, relative, with the certified
  ``oracle.brute_distance`` in the frame L, and the distance matrix holds
  the same distances;
- the Voronoi volume is within 1e-9 of |det|, relative;
- the cell has at most (n + 1)! vertices, and each lies inside every
  halfspace to rounding and the snap: 4 COS_SNAP |x| |r|, since a conorm
  below the snap counts as zero and can leave a vertex that far outside;
- the three frames give distances that agree to 1e-12, relative.

At eps outside {1e-9, 1e-8}, where a perturbation sits on the 1e-9 snaps
of the package and of the oracle alike, the three frames must also give
equal relevant-vector, domain and sorted layer counts (layers of the
reduced cell), and ``relevant_vectors`` of the reduced basis must equal
``oracle.brute_relevant`` of it.  Any other draw is counted under the
first check it fails, or under the name of the domain error it raised.
The exit status is 1 if any draw is not ``ok``.  Only the public API is
used, so the script runs unchanged on older checkouts.

Usage: python scripts/type_sweep.py [--seed 0] [--per-case 20]
"""

import argparse
import math
from collections import Counter

import numpy as np

import minimage as mi
from output_digest import FCC, HEX_2D, unimodular

BCC = 0.5 * np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
TYPES = {
    "square": np.eye(2),
    "hexagonal": HEX_2D,
    "cube": np.eye(3),
    "fcc": FCC,
    "bcc": BCC,
    "bct": np.diag([1.0, 1.0, 2.0]) @ BCC,
    "hex-prism": np.block([[HEX_2D, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]]),
}
EPS = (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4)
ON_THRESHOLD = (1e-9, 1e-8)
FRAMES = 3
PAIRS = 3
# Draws at eps 1e-10 to 5e-9 put vertices outside by up to 1.8 COS_SNAP |x| |r|.
HALFSPACE_SLACK = 4 * mi.reduction.COS_SNAP


def draw(rng, m: np.ndarray, eps: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """One lattice L = q (M + eps N) and FRAMES random unimodular U."""
    n = len(m)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lattice = q @ (m + eps * rng.normal(size=(n, n)))
    return lattice, [unimodular(rng, n, steps=4, kmax=2) for _ in range(FRAMES)]


def cell_failure(b: mi.Basis, cell: mi.VoronoiCell) -> str | None:
    """The first check the Voronoi cell of ``b`` fails, or None."""
    if abs(cell.volume - abs(b.det)) > 1e-9 * abs(b.det):
        return "volume"
    if len(cell.vertices) > math.factorial(b.dim + 1):
        return "vertex-count"
    scale = np.linalg.norm(cell.vertices, axis=1)[:, None] * np.sqrt(2.0 * cell.offsets)
    if np.any(cell.vertices @ cell.normals.T - cell.offsets > HALFSPACE_SLACK * scale):
        return "halfspace"
    return None


def _frame_facts(b: mi.Basis, fracs: np.ndarray, refs: list[float]):
    """Run every public operation on ``b`` with the point pairs ``fracs``;
    return the first failed check (or None) and the facts compared across
    frames."""
    n = b.dim
    red = mi.reduce(b)
    mi.is_reduced(red.basis)
    rel = mi.relevant_vectors(b)
    cell = mi.voronoi_cell(b)
    mi.frac_extents(cell, b)
    mi.domain_extents(red.basis, b)
    layers = mi.copy_counts(red.basis, b).layers
    domains = mi.enumerate_ps(b)
    mi.check_cell(b, b)
    dists = np.array([mi.min_image_distance(b, p1, p2).distance for p1, p2 in fracs])
    if np.any(np.abs(dists - refs) > 1e-12 * np.array(refs)):
        return "distance", None
    ps = mi.PeriodicPointSet(b, fracs.reshape(-1, n))
    if np.any(np.abs(mi.pairwise_distances(ps)[0::2, 1::2].diagonal() - dists) > 1e-12 * dists):
        return "distance-matrix", None
    mi.neighbors_within(ps, abs(b.det) ** (1.0 / n))
    failed = cell_failure(b, cell)
    if failed:
        return failed, None
    counts = (rel.count, len(domains), tuple(sorted(layers)))
    brute = mi.relevant_vectors(red.basis).coeff_set() == \
        mi.oracle.brute_relevant(red.basis).coeff_set()
    return None, (dists, counts, brute)


def outcome(lattice: np.ndarray, frames: list[np.ndarray], eps: float, rng) -> str:
    """``ok``, the first check the draw fails, or the domain error raised."""
    n = len(lattice)
    points = rng.random((PAIRS, 2, n))
    try:
        base = mi.validate_basis(lattice)
        refs = []
        for p1, p2 in points:
            d = np.linalg.norm(lattice @ (p2 - p1))
            layers = mi.oracle.certified_layers(base, d, p2 - p1)
            refs.append(mi.oracle.brute_distance(base, p1, p2, layers).distance)
        facts = []
        for u in frames:
            fracs = points @ np.rint(np.linalg.inv(u)).T
            failed, got = _frame_facts(mi.validate_basis(lattice @ u), fracs, refs)
            if failed:
                return failed
            facts.append(got)
    except mi.LatticeError as exc:
        return type(exc).__name__
    dists, counts, brute = zip(*facts)
    if any(np.any(np.abs(d - dists[0]) > 1e-12 * dists[0]) for d in dists):
        return "frames-distance"
    if eps not in ON_THRESHOLD:
        if len(set(counts)) > 1:
            return "frames-counts"
        if not all(brute):
            return "relevant"
    return "ok"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-case", type=int, default=20)
    args = parser.parse_args()
    if args.per_case < 1:
        parser.error("--per-case must be at least 1")

    rng = np.random.default_rng(args.seed)
    failed = 0
    print(f"seed {args.seed}, {args.per_case} draws per type and eps, {FRAMES} frames each")
    print(f"{'type':10s} {'eps':>6s}  outcomes")
    for name, m in TYPES.items():
        for eps in EPS:
            tally = Counter(outcome(*draw(rng, m, eps), eps, rng) for _ in range(args.per_case))
            failed += args.per_case - tally["ok"]
            counts = ", ".join(f"{k} {v}" for k, v in sorted(tally.items()))
            print(f"{name:10s} {eps:6g}  {counts}")
    print(f"{failed} of {len(TYPES) * len(EPS) * args.per_case} draws not ok")
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
