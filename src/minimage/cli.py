"""Command line front end.

Matrices are passed inline as whitespace-separated numbers; every
consecutive group of n numbers is one cell vector, with n inferred from the
count (4 values -> 2D, 9 -> 3D).  The tokens identity2 and identity3 name
the unit bases.  JSON files ({"dim": n, "columns": [...]} or
{"cell": [a, b, c, alpha, beta, gamma]}) override inline values.

Exit codes: 0 success, 1 domain errors (singular basis, non-primitive
cell, verification mismatch), 2 usage or parse errors.  Diagnostics go to
stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import Basis, cell_params_to_basis, int_box, validate_basis
from .distance import PeriodicPointSet, min_image_distance, neighbors_within, pairwise_distances
from .errors import LatticeError
from . import cells, copies, oracle, reduction, render, voronoi


class UsageError(Exception):
    pass


def _sig12(x: float) -> float:
    """Round to 12 significant digits for printing."""
    return float(f"{float(x):.12g}")


def _parse_inline_matrix(text: str) -> Basis:
    tok = text.strip()
    if tok == "identity2":
        return validate_basis(np.eye(2))
    if tok == "identity3":
        return validate_basis(np.eye(3))
    try:
        vals = [float(v) for v in tok.split()]
    except ValueError as exc:
        raise UsageError(f"cannot parse matrix values: {exc}") from None
    if len(vals) == 4:
        n = 2
    elif len(vals) == 9:
        n = 3
    else:
        raise UsageError(
            f"expected 4 or 9 matrix values (got {len(vals)}); "
            "each group of n values is one cell vector"
        )
    cols = np.array(vals).reshape(n, n).T
    return validate_basis(cols)


def _parse_params(text: str) -> Basis:
    try:
        vals = [float(v) for v in text.strip().split()]
    except ValueError as exc:
        raise UsageError(f"cannot parse cell parameters: {exc}") from None
    if len(vals) != 6:
        raise UsageError("cell parameters need exactly six values: a b c alpha beta gamma")
    return cell_params_to_basis(*vals)


def _load_matrix_file(path: str) -> Basis:
    try:
        data = json.loads(open(path, encoding="utf-8").read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not ("columns" in data or "cell" in data):
        raise UsageError(f"{path} must contain a 'columns' or 'cell' key")
    key = "columns" if "columns" in data else "cell"
    try:
        vals = np.array(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse '{key}' in {path}: {exc}") from None
    if key == "columns":
        if vals.ndim != 2:
            raise UsageError(f"'columns' in {path} must be a list of cell vectors")
        return validate_basis(vals.T)
    if vals.shape != (6,):
        raise UsageError(f"'cell' in {path} needs six values: a b c alpha beta gamma")
    return cell_params_to_basis(*vals.tolist())


def _resolve_basis(args, prefix: str, required: bool = True) -> Basis | None:
    file_arg = getattr(args, f"{prefix}_file", None)
    inline = getattr(args, prefix, None)
    params = getattr(args, "cell_params", None) if prefix == "lattice" else None
    if file_arg:
        return _load_matrix_file(file_arg)
    if params:
        return _parse_params(params)
    if inline:
        return _parse_inline_matrix(inline)
    if required:
        raise UsageError(f"missing --{prefix.replace('_', '-')} input")
    return None


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.strip().split()]
    except ValueError as exc:
        raise UsageError(f"cannot parse point: {exc}") from None
    if len(vals) != dim:
        raise UsageError(f"point needs {dim} coordinates, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError("point coordinates must be finite")
    return np.array(vals)


def _load_points(path: str, basis: Basis) -> PeriodicPointSet:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    labels = None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            pts = np.array([[float(v) for v in line.split()]
                            for line in text.splitlines() if line.strip()])
        except ValueError as exc:
            raise UsageError(f"cannot parse points in {path}: {exc}") from None
    else:
        if not isinstance(data, dict) or "frac" not in data:
            raise UsageError(f"{path} must contain a 'frac' key")
        try:
            pts = np.array(data["frac"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"cannot parse points in {path}: {exc}") from None
        if "labels" in data and data["labels"] is not None:
            labels = tuple(str(x) for x in data["labels"])
    if pts.ndim != 2 or pts.shape[1] != basis.dim:
        raise UsageError(
            f"points in {path} must be {basis.dim}-dimensional rows"
        )
    if not np.all(np.isfinite(pts)):
        raise UsageError(f"points in {path} must be finite")
    return PeriodicPointSet(basis=basis, points=pts, labels=labels)


def _matrix_columns(m: np.ndarray) -> list:
    return [list(m[:, i]) for i in range(m.shape[1])]


def _int_columns(m: np.ndarray) -> list:
    return [[int(x) for x in m[:, i]] for i in range(m.shape[1])]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimage",
        description="Periodic lattice geometry: reduced bases, Voronoi cells, "
                    "copy counts, and exact minimum-image distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lattice(p, with_params=True):
        p.add_argument("--lattice", help="inline column values or identity2/identity3")
        p.add_argument("--lattice-file", help="JSON lattice file")
        if with_params:
            p.add_argument("--cell-params",
                           help='cell parameters "a b c alpha beta gamma" (degrees)')

    def add_cell(p):
        p.add_argument("--cell", help="inline cell column values")
        p.add_argument("--cell-file", help="JSON cell file")

    def add_verify(p):
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the brute-force oracle")

    p = sub.add_parser("reduce", help="shortest obtuse basis and transform")
    add_lattice(p)
    add_verify(p)

    p = sub.add_parser("relevant", help="Voronoi-relevant vectors")
    add_lattice(p)
    add_verify(p)

    p = sub.add_parser("voronoi", help="Voronoi cell halfspaces, vertices, volume")
    add_lattice(p)
    add_verify(p)

    p = sub.add_parser("copies", help="minimal copy counts for a primitive cell")
    add_lattice(p)
    add_cell(p)
    add_verify(p)

    p = sub.add_parser("cells", help="fundamental domains needing only 3^n copies")
    add_lattice(p)
    add_verify(p)

    p = sub.add_parser("check-cell", help="diagnose a primitive cell")
    add_lattice(p)
    add_cell(p)
    add_verify(p)

    p = sub.add_parser("dist", help="minimum-image distance between two points")
    add_lattice(p)
    p.add_argument("--p1", required=True, help="fractional coordinates")
    p.add_argument("--p2", required=True, help="fractional coordinates")
    add_verify(p)

    p = sub.add_parser("matrix", help="pairwise distance matrix for a point file")
    add_lattice(p)
    p.add_argument("--points", required=True, help="points file (JSON or text)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_verify(p)

    p = sub.add_parser("neighbors", help="pairs and images within a cutoff")
    add_lattice(p)
    p.add_argument("--points", required=True, help="points file (JSON or text)")
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_verify(p)

    p = sub.add_parser("render", help="SVG diagram of a 2D lattice and cell")
    add_lattice(p)
    add_cell(p)
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _verify_fail(message: str) -> int:
    print(f"verify: MISMATCH: {message}", file=sys.stderr)
    return 1


def _verify_ok(message: str) -> None:
    print(f"verify: ok: {message}", file=sys.stderr)


def _oracle_layers(b: Basis) -> int:
    return max(copies.copy_counts(b, b).layers) + 3


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "reduce":
        b = _resolve_basis(args, "lattice")
        red = reduction.reduce(b)
        out = {
            "dim": b.dim,
            "columns": _matrix_columns(red.basis.matrix),
            "transform": _int_columns(red.transform),
            "norms": [float(x) for x in red.norms],
        }
        print(json.dumps(out))
        if args.verify:
            if not reduction.is_reduced(red.basis, box=10):
                return _verify_fail("reduced basis fails the bounded-enumeration check")
            _verify_ok("reduced basis confirmed by bounded enumeration (box 10)")
        return 0

    if cmd == "relevant":
        b = _resolve_basis(args, "lattice")
        rel = voronoi.relevant_vectors(b)
        out = {
            "dim": b.dim,
            "count": rel.count,
            "coeffs": [list(v.coeffs) for v in rel.vectors],
            "cartesians": [list(row) for row in rel.cartesians],
        }
        print(json.dumps(out))
        if args.verify:
            ref = oracle.brute_relevant(b, box=3)
            if ref.coeff_set() != rel.coeff_set():
                return _verify_fail("relevant vectors differ from the facet oracle")
            _verify_ok(f"{rel.count} relevant vectors match the facet oracle")
        return 0

    if cmd == "voronoi":
        b = _resolve_basis(args, "lattice")
        vc = voronoi.voronoi_cell(b)
        out = {
            "dim": b.dim,
            "volume": vc.volume,
            "vertices": [list(row) for row in vc.vertices],
            "normals": [list(row) for row in vc.normals],
            "offsets": [float(x) for x in vc.offsets],
        }
        print(json.dumps(out))
        if args.verify:
            ref = oracle.brute_relevant(b, box=3)
            if ref.count != len(vc.normals):
                return _verify_fail("facet count differs from the facet oracle")
            if abs(vc.volume - abs(b.det)) > 1e-9 * abs(b.det):
                return _verify_fail("cell volume does not match |det B|")
            _verify_ok("facet count and volume confirmed")
        return 0

    if cmd == "copies":
        lattice = _resolve_basis(args, "lattice")
        cell = _resolve_basis(args, "cell")
        counts = copies.copy_counts(cell, lattice)
        out = {
            "h": [float(x) for x in counts.h],
            "layers": list(counts.layers),
            "per_axis": list(counts.per_axis),
            "total": counts.total,
        }
        print(json.dumps(out))
        if args.verify:
            bad = _check_block_sufficiency(cell, lattice, counts.layers)
            if bad is not None:
                return _verify_fail(f"block misses a shorter image for pair {bad}")
            _verify_ok("block distances match a larger brute-force block on sampled pairs")
        return 0

    if cmd == "cells":
        lattice = _resolve_basis(args, "lattice")
        found = cells.enumerate_ps(lattice)
        out = [
            {"coeffs": _int_columns(c.coeffs), "columns": _matrix_columns(c.basis.matrix)}
            for c in found
        ]
        print(json.dumps(out))
        if args.verify:
            for c in found:
                bad = _check_block_sufficiency(c.basis, lattice, (1,) * lattice.dim)
                if bad is not None:
                    return _verify_fail(
                        f"candidate {c.canonical_key} misses an image for pair {bad}")
            _verify_ok(f"all {len(found)} domains pass sampled 3^n sufficiency")
        return 0

    if cmd == "check-cell":
        lattice = _resolve_basis(args, "lattice")
        cell = _resolve_basis(args, "cell")
        report = cells.check_cell(cell, lattice)
        out = {
            "sufficient": report.sufficient,
            "ps_member": report.ps_member,
            "cell_reduced": report.cell_reduced,
            "copies": {
                "h": [float(x) for x in report.counts.h],
                "layers": list(report.counts.layers),
                "per_axis": list(report.counts.per_axis),
                "total": report.counts.total,
            },
        }
        print(json.dumps(out))
        if args.verify:
            bad = _check_block_sufficiency(cell, lattice, report.counts.layers)
            if bad is not None:
                return _verify_fail(f"block misses a shorter image for pair {bad}")
            _verify_ok("copy counts confirmed on sampled pairs")
        return 0

    if cmd == "dist":
        b = _resolve_basis(args, "lattice")
        p1 = _parse_point(args.p1, b.dim)
        p2 = _parse_point(args.p2, b.dim)
        res = min_image_distance(b, p1, p2)
        out = {"distance": _sig12(res.distance), "image": list(res.image.coeffs)}
        print(json.dumps(out))
        if args.verify:
            ref = oracle.brute_distance(b, p1, p2, _oracle_layers(b))
            if abs(ref.distance - res.distance) > 1e-12 * max(1e-300, ref.distance):
                return _verify_fail(
                    f"distance {res.distance!r} vs brute force {ref.distance!r}")
            _verify_ok(f"distance matches brute force ({ref.distance:.12g})")
        return 0

    if cmd == "matrix":
        b = _resolve_basis(args, "lattice")
        ps = _load_points(args.points, b)
        mat = pairwise_distances(ps)
        if args.format == "csv":
            for row in mat:
                print(",".join(f"{v:.12g}" for v in row))
        else:
            out = {
                "labels": list(ps.labels) if ps.labels else None,
                "distances": [[_sig12(v) for v in row] for row in mat],
            }
            print(json.dumps(out))
        if args.verify:
            k = _oracle_layers(b)
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    ref = oracle.brute_distance(b, ps.points[i], ps.points[j], k)
                    if abs(ref.distance - mat[i, j]) > 1e-12 * max(1e-300, ref.distance):
                        return _verify_fail(f"entry ({i}, {j}) differs from brute force")
            _verify_ok("all entries match brute force")
        return 0

    if cmd == "neighbors":
        b = _resolve_basis(args, "lattice")
        if not (args.cutoff > 0 and math.isfinite(args.cutoff)):
            raise UsageError("--cutoff must be positive and finite")
        ps = _load_points(args.points, b)
        hits = neighbors_within(ps, args.cutoff)
        if args.format == "csv":
            coords = ",".join(f"t{k+1}" for k in range(b.dim))
            print(f"i,j,{coords},distance")
            for i, j, img, d in hits:
                print(f"{i},{j}," + ",".join(str(c) for c in img.coeffs)
                      + f",{d:.12g}")
        else:
            out = {
                "cutoff": _sig12(args.cutoff),
                "count": len(hits),
                "neighbors": [
                    {"i": i, "j": j, "image": list(img.coeffs), "distance": _sig12(d)}
                    for i, j, img, d in hits
                ],
            }
            print(json.dumps(out))
        if args.verify:
            k = _oracle_layers(b)
            for i, j, img, d in hits:
                shift = np.asarray(img.coeffs, dtype=float)
                direct = float(np.linalg.norm(
                    b.matrix @ (ps.points[j] + shift - ps.points[i])))
                if abs(direct - d) > 1e-12 * max(1e-300, direct):
                    return _verify_fail(f"pair ({i}, {j}) distance is inconsistent")
                ref = oracle.brute_distance(b, ps.points[i], ps.points[j], k)
                if d < ref.distance * (1.0 - 1e-12):
                    return _verify_fail(f"pair ({i}, {j}) beats the true minimum")
            _verify_ok(f"{len(hits)} neighbor records consistent with brute force")
        return 0

    if cmd == "render":
        lattice = _resolve_basis(args, "lattice")
        cell = _resolve_basis(args, "cell", required=False)
        path = render.render_2d(lattice, cell, args.out)
        print(json.dumps({"out": str(path)}))
        return 0

    raise UsageError(f"unknown command {cmd!r}")


def _check_block_sufficiency(cell: Basis, lattice: Basis, layers, samples: int = 200):
    """Sampled check that the block minimum equals a larger block's minimum.

    Returns an offending (p1, p2) pair or None.  Points are sampled in the
    cell's fractional coordinates with a fixed seed.
    """
    rng = np.random.default_rng(171717)
    n = cell.dim
    big = [m + 3 for m in layers]
    t_small = int_box(layers) @ cell.matrix.T
    t_big = int_box(big) @ cell.matrix.T
    for _ in range(samples):
        p1 = rng.random(n)
        p2 = rng.random(n)
        delta = cell.matrix @ (p2 - p1)
        d_small = float(np.linalg.norm(delta + t_small, axis=1).min())
        d_big = float(np.linalg.norm(delta + t_big, axis=1).min())
        if d_small - d_big > 1e-12 * max(1.0, d_big):
            return (list(p1), list(p2))
    return None


if __name__ == "__main__":
    main()
