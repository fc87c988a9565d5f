"""Oracle gate: re-checks sampled outputs after the timed phase.

Distances go to ``minimage.oracle.brute_distance`` on the caller's own
basis, with the coefficient box sized by the certified bound
``|t_k| <= d0 * ||row_k(B^-1)|| + 1`` (Agrell et al., "Closest point search
in lattices", IEEE Trans. IT 48, 2002), where d0 is the distance of the
reported image recomputed directly.  Both points lie in [0, 1)^n, so every
image at least as close as d0 lies in that box whatever the conditioning.

Checks that need many distances (whole matrices, neighbor sets, relevant
vectors) run in a second basis of the same lattice: the output of
``reduce``, accepted only after its transform is verified to be unimodular
and to map the input basis onto it.  Exactness then rests on the certified
box alone, not on reduction being optimal.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from minimage import core, oracle, reduction

TOL = 1e-12
VOLUME_TOL = 1e-9


class Gate:
    """Counts oracle comparisons and keeps the first few mismatch notes."""

    def __init__(self):
        self.checked = 0
        self.mismatches = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, note: str) -> bool:
        self.checked += 1
        if not ok:
            self.mismatches += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


def block(layers) -> np.ndarray:
    """All integer vectors t with |t_k| <= layers[k]."""
    return np.array(list(itertools.product(*[range(-m, m + 1) for m in layers])),
                    dtype=np.int64).reshape(-1, len(layers))


def row_norms_inv(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.linalg.inv(m), axis=1)


def certified_layers(b: core.Basis, d0: float) -> int:
    """Box half-width holding every image within d0 of a pair in [0, 1)^n."""
    return max(1, math.ceil(float(np.max(d0 * row_norms_inv(b.matrix) + 1.0))))


def rel_close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_distance(gate: Gate, b: core.Basis, p1, p2, res, note: str) -> bool:
    """Reported image consistent with the reported distance, and that
    distance equal to the brute-force minimum in the certified box."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    img = np.asarray(res.image.coeffs, dtype=float)
    d0 = float(np.linalg.norm(b.matrix @ (p2 + img - p1)))
    ok = gate.expect(rel_close(d0, res.distance), f"{note}: image gives {d0!r}, "
                     f"reported {res.distance!r}")
    ref = oracle.brute_distance(b, p1, p2, certified_layers(b, max(d0, res.distance)))
    return gate.expect(rel_close(ref.distance, res.distance),
                       f"{note}: brute force {ref.distance!r}, reported {res.distance!r}") and ok


class Reduced:
    """A verified second basis of the lattice of ``b``."""

    def __init__(self, b: core.Basis):
        red = reduction.reduce(b)
        u = np.asarray(red.transform)
        if abs(core.int_det(u)) != 1:
            raise ValueError("reduction transform is not unimodular")
        scale = float(np.abs(b.matrix).sum(axis=0).max()) * float(np.abs(u).max())
        if float(np.abs(b.matrix @ u - red.basis.matrix).max()) > 1e-12 * scale:
            raise ValueError("reduced basis is not the input basis times its transform")
        self.matrix = red.basis.matrix
        self.transform = u
        self.uinv = core.unimodular_inverse(u)
        self.rows = row_norms_inv(self.matrix)
        self.basis = red.basis

    def frac(self, pts) -> np.ndarray:
        """Reduced fractional coordinates wrapped into [0, 1)."""
        return core.wrap_frac(np.asarray(pts, dtype=float) @ self.uinv.T)


def exact_matrix(b: core.Basis, pts, bound: float) -> np.ndarray:
    """All pairwise quotient distances by exhaustive search over a box
    holding every image within ``bound`` of each pair.

    Reduced fractional differences lie in (-1, 1)^n, so an image within
    ``bound`` has |t_k| < 1 + bound * ||row_k(R^-1)||.  ``bound`` may be the
    largest reported distance: where a report is too large the box still
    holds the true minimum, and where it is too small every image in the box
    is farther than the report, so either way the two disagree.
    """
    red = Reduced(b)
    cart = red.frac(pts) @ red.matrix.T
    iu, ju = np.triu_indices(len(cart), k=1)
    g = cart[ju] - cart[iu]
    gg = np.einsum("ij,ij->i", g, g)
    shifts = block([int(math.floor(1.0 + bound * r)) for r in red.rows]) @ red.matrix.T
    # Rank images by the expanded square, then measure the winner directly.
    best = np.full(len(g), np.inf)
    arg = np.zeros(len(g), dtype=np.int64)
    for k, s in enumerate(shifts):
        cand = gg + 2.0 * (g @ s) + float(s @ s)
        better = cand < best
        best[better] = cand[better]
        arg[better] = k
    v = g + shifts[arg]
    out = np.zeros((len(cart), len(cart)))
    out[iu, ju] = np.sqrt(np.einsum("ij,ij->i", v, v))
    out[ju, iu] = out[iu, ju]
    return out


def check_matrix(gate: Gate, b: core.Basis, pts, mat, rng, entries: int,
                 note: str) -> bool:
    """Symmetry, zero diagonal, ``entries`` sampled entries against
    ``brute_distance`` and every entry against :func:`exact_matrix`."""
    mat = np.asarray(mat, dtype=float)
    pts = np.asarray(pts, dtype=float)
    ok = gate.expect(bool(np.all(np.isfinite(mat))) and bool(np.array_equal(mat, mat.T))
                     and not np.diag(mat).any(),
                     f"{note}: matrix not finite and symmetric with zero diagonal")
    if not ok:
        return False
    n = len(pts)
    for _ in range(entries):
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d0 = float(mat[i, j])
        ref = oracle.brute_distance(b, pts[i], pts[j], certified_layers(b, d0))
        ok = gate.expect(rel_close(ref.distance, d0),
                         f"{note}: entry ({i}, {j}) {d0!r} vs brute force "
                         f"{ref.distance!r}") and ok
    exact = exact_matrix(b, pts, float(mat.max()))
    bad = np.argwhere(np.abs(exact - mat) > TOL * np.maximum(exact, 1e-300))
    return gate.expect(len(bad) == 0, f"{note}: {len(bad)} entries differ from the "
                       "exhaustive matrix") and ok


def check_neighbors(gate: Gate, b: core.Basis, pts, cutoff: float, hits, rng,
                    pairs: int, note: str) -> bool:
    """Every hit is a lattice image within the cutoff at its stated
    distance; for sampled pairs the hit set equals the exhaustive set in a
    certified box and the nearest hit equals ``brute_distance``."""
    pts = np.asarray(pts, dtype=float)
    ok = True
    if hits:
        ii = np.array([h[0] for h in hits])
        jj = np.array([h[1] for h in hits])
        img = np.array([h[2].coeffs for h in hits], dtype=float)
        dd = np.array([h[3] for h in hits])
        direct = np.linalg.norm((pts[jj] + img - pts[ii]) @ b.matrix.T, axis=1)
        good = ((np.abs(direct - dd) <= TOL * np.maximum(direct, 1e-300))
                & (dd <= cutoff) & (ii <= jj) & ~((ii == jj) & ~img.any(axis=1)))
        ok = gate.expect(bool(good.all()), f"{note}: {int((~good).sum())} hits are not "
                         "images within the cutoff at their stated distance")
    red = Reduced(b)
    f = red.frac(pts)
    by_pair: dict[tuple[int, int], list[float]] = {}
    for i, j, _, d in hits:
        by_pair.setdefault((i, j), []).append(d)
    n = len(pts)
    margin = 1e-9 * cutoff
    for _ in range(pairs):
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        delta = f[j] - f[i]
        ranges = [range(math.ceil(-delta[k] - cutoff * red.rows[k]),
                        math.floor(-delta[k] + cutoff * red.rows[k]) + 1)
                  for k in range(len(delta))]
        ts = np.array(list(itertools.product(*ranges)), dtype=float).reshape(-1, len(delta))
        want = np.sort(np.linalg.norm((delta + ts) @ red.matrix.T, axis=1))
        got = np.sort(np.array(by_pair.get((i, j), [])))
        want_in = want[want <= cutoff - margin]
        got_in = got[got <= cutoff - margin]
        ok = gate.expect(len(want_in) == len(got_in)
                         and bool(np.all(np.abs(want_in - got_in) <= TOL * want_in + 1e-300)),
                         f"{note}: pair ({i}, {j}) has {len(got_in)} hits, exhaustive "
                         f"search finds {len(want_in)}") and ok
        if len(got):
            ref = oracle.brute_distance(b, pts[i], pts[j], certified_layers(b, float(got[0])))
            ok = gate.expect(rel_close(ref.distance, float(got[0])),
                             f"{note}: pair ({i}, {j}) nearest hit {got[0]!r} vs brute "
                             f"force {ref.distance!r}") and ok
    return ok


def relevant_box(red: Reduced) -> int:
    """Coefficient box in which ``brute_relevant`` is exact for the lattice.

    Relevant vectors, and every lattice point that could contest their
    facet, lie within 2 mu of the origin, mu the covering radius, and
    2 mu <= sqrt(sum |r*_i|^2) over the Gram-Schmidt vectors of any basis R;
    in R's coordinates that is the half-width
    ceil(sqrt(sum |r*_i|^2) * max_k ||row_k(R^-1)||).
    """
    gs = np.abs(np.diag(np.linalg.qr(red.matrix)[1]))
    return max(2, math.ceil(float(np.sqrt((gs ** 2).sum())) * float(red.rows.max())))


def check_relevant(gate: Gate, red: Reduced, rel, note: str) -> bool:
    """Relevant vectors equal ``brute_relevant`` in :func:`relevant_box`."""
    box = relevant_box(red)
    ref = oracle.brute_relevant(red.basis, box)
    want = {core.canonical_sign(red.transform @ np.asarray(v.coeffs)) for v in ref.vectors}
    return gate.expect(want == set(rel.coeff_set()),
                       f"{note}: relevant vectors differ from brute_relevant (box {box})")


def check_volume(gate: Gate, b: core.Basis, vc, note: str) -> bool:
    return gate.expect(abs(vc.volume - abs(b.det)) <= VOLUME_TOL * abs(b.det),
                       f"{note}: Voronoi volume {vc.volume!r} vs |det B| {abs(b.det)!r}")


def check_block(gate: Gate, cell: core.Basis, lattice: core.Basis, layers, rng,
                pairs: int, note: str) -> bool:
    """Minimum over the cell's (2 m_k + 1)-per-axis block equals
    ``brute_distance`` for sampled point pairs of the cell."""
    red = Reduced(lattice)
    shifts = block(layers) @ cell.matrix.T
    ok = True
    for _ in range(pairs):
        c1, c2 = rng.random(cell.dim), rng.random(cell.dim)
        d_block = float(np.linalg.norm(cell.matrix @ (c2 - c1) + shifts, axis=1).min())
        q1, q2 = red.frac(np.linalg.solve(lattice.matrix,
                                          cell.matrix @ np.column_stack([c1, c2])).T)
        ref = oracle.brute_distance(red.basis, q1, q2, certified_layers(red.basis, d_block))
        ok = gate.expect(rel_close(ref.distance, d_block, 1e-9),
                         f"{note}: block of layers {tuple(layers)} gives {d_block!r}, "
                         f"brute force {ref.distance!r}") and ok
    return ok
