"""2D SVG diagrams: cell, Voronoi cell, relevant vectors, reach domain.

Fixed-viewport affine mapping, no text beyond a small legend; the figures
are test artifacts, not publication graphics.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .core import Basis, canonical_rows, int_box, matvecs
from .errors import UnsupportedDimension
from . import copies, voronoi

WIDTH = 720.0
MARGIN = 0.05
# The most cell copies a figure draws.  Each copy is one SVG polygon: a
# block far past this is unreadable, and its time and size grow with it.
MAX_COPIES = 10_000


def render_2d(lattice: Basis, cell: Basis | None, out) -> Path:
    """Write an SVG showing the cell, its copies, V, relevant vectors, and
    the reach domain (cell + V Minkowski sum).  2D only; a block of more
    than ``MAX_COPIES`` copies raises ValueError."""
    if lattice.dim != 2:
        raise UnsupportedDimension("rendering is implemented for 2D only")
    cell = lattice if cell is None else cell
    copies.primitive_coeffs(cell, lattice)
    p = voronoi._prepare(lattice)
    counts = copies.counts_from_extents(voronoi.frac_extents(p, cell))
    if counts.total > MAX_COPIES:
        raise ValueError(f"the block of {counts.total:,} copies is over the "
                         f"render limit of {MAX_COPIES:,}")

    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ cell.matrix.T
    vverts = p.vertices[np.argsort(np.arctan2(p.vertices[:, 1], p.vertices[:, 0]), kind="stable")]
    domain = _hull(np.array([c + v for c in corners for v in vverts]))

    block = [corners + shift for shift in matvecs(cell.matrix, int_box(counts.layers))]

    pts = np.vstack([domain] + block)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    lo, hi = lo - MARGIN * (hi - lo), hi + MARGIN * (hi - lo)
    scale = WIDTH / (hi[0] - lo[0])
    height = (hi[1] - lo[1]) * scale

    def xy(p):
        return f"{(p[0] - lo[0]) * scale:.2f},{(height - (p[1] - lo[1]) * scale):.2f}"

    def poly(points, style):
        return f'<polygon points="{" ".join(xy(p) for p in points)}" style="{style}"/>'

    relevant = voronoi._in_basis(lattice, p.red, p.relevant).coeff_set()
    coeffs, latpts = _lattice_points(lattice, lo, hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {WIDTH:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        poly(domain, "fill:#9ecae1;fill-opacity:0.45;stroke:#3182bd;stroke-width:1.5"),
    ]
    for copy_corners in block:
        parts.append(poly(copy_corners, "fill:none;stroke:#999999;stroke-width:0.8"))
    parts.append(poly(corners, "fill:#08519c;fill-opacity:0.35;stroke:#08519c;stroke-width:1.5"))
    parts.append(poly(vverts, "fill:none;stroke:#d62728;stroke-width:1.5"))
    for z, q in zip(canonical_rows(coeffs).tolist(), latpts):
        parts.append(f'<circle cx="{xy(q).split(",")[0]}" cy="{xy(q).split(",")[1]}" '
                     'r="3" fill="#2ca02c"/>')
        if tuple(z) in relevant:
            parts.append(f'<circle cx="{xy(q).split(",")[0]}" cy="{xy(q).split(",")[1]}" '
                         'r="7" fill="none" stroke="#d62728" stroke-width="1.5"/>')
    parts.append(
        '<text x="10" y="16" font-size="12" fill="#333">'
        'cell (dark blue), copies (gray), Voronoi cell (red), '
        'reach domain (light blue), lattice (green, relevant circled)</text>'
    )
    parts.append("</svg>")

    path = Path(out)
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


def _hull(points: np.ndarray) -> np.ndarray:
    """Convex hull in 2D by the monotone chain, counterclockwise."""
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _lattice_points(lattice: Basis, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and points of the lattice points in the window [lo, hi]:
    the symmetric box one layer beyond every window corner's fractional
    coordinates holds them all."""
    fr = np.array(list(itertools.product(*zip(lo, hi)))) @ lattice.inv.T
    z = int_box(np.ceil(np.abs(fr).max(axis=0)).astype(np.int64) + 1)
    p = matvecs(lattice.matrix, z)
    inside = np.all((p >= lo) & (p <= hi), axis=1)
    return z[inside], p[inside]
