"""Command line front end.

Matrices are passed inline as whitespace-separated numbers; every
consecutive group of n numbers is one cell vector, with n inferred from the
count (4 values -> 2D, 9 -> 3D).  The tokens identity2 and identity3 name
the unit bases.  JSON files ({"dim": n, "columns": [...]} or
{"cell": [a, b, c, alpha, beta, gamma]}) override inline values.

Exit codes: 0 success, 1 domain errors (singular basis, non-primitive
cell, verification mismatch or skipped), 2 usage or parse errors: an
unreadable or non-UTF-8 file, and any value the library rejects with
ValueError.  Diagnostics go to stderr, results to stdout.  When the
reader of stdout closes it early (``minimage ... | head``), ``main``
exits quietly with 141, the status a shell reports for a process ended
by SIGPIPE.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import Basis, cell_params_to_basis, validate_basis
from .distance import PeriodicPointSet, min_image_distance, neighbor_arrays, pairwise_distances
from .errors import LatticeError, OracleBudgetExceeded
from . import cells, copies, oracle, reduction, render, voronoi


class UsageError(ValueError):
    """A bad input; ``run`` reports it, like any ValueError, with exit 2."""


# Every printed distance has 12 significant digits; a JSON number is that
# decimal read back as a float.
_SIG12 = "%.12g"


def _sig12(x: float) -> float:
    """Round to 12 significant digits for printing."""
    return float(_SIG12 % x)


def _json_safe(values: np.ndarray) -> np.ndarray:
    """True only where the text ``"%.12g" % v`` is already the JSON number
    ``json.dumps`` writes for ``_sig12(v)``, which is ``repr(_sig12(v))``.

    Let t be ``"%.12g" % v`` and x = float(t), the double nearest to t.
    ``repr(x)`` is the shortest decimal that reads back to x.  Two decimals
    of at most 15 significant digits never read back to the same normal
    double, and t has at most 12, so when x is normal no shorter decimal
    reads back to x: ``repr(x)`` has the digits of t.  The two texts then
    differ only in layout.  Both write an exponent below 1e-4, and write it
    alike ("1.5e-07"); but "%.12g" writes one from 1e12 up and repr only
    from 1e16 up, and "%g" drops the ".0" of an integral value.  So t is
    the JSON text unless v is not finite, x is subnormal or t is an
    integer.  The test is False on a superset of those: |v| < 1e-307, and
    v within 1e-11 |v| of an integer.  When t is an integer n, v lies
    within half a unit of t's 12th digit of n, at most 5e-12 |v|; every
    |v| from 5e10 up falls in the test, those written with an exponent
    among them.  ``v - rint(v)`` is exact.
    """
    v = np.where(np.isfinite(values), values, 0.0)
    a = np.abs(v)
    return (a >= 1e-307) & (np.abs(v - np.rint(v)) > 1e-11 * a)


def _json_rows(table: np.ndarray) -> list[str]:
    """The JSON text of each row of ``table`` rounded by ``_sig12``, as
    ``json.dumps`` writes it, with one format call per row.  A row of
    ``_json_safe`` values is its "%.12g" text; an exact +0.0 on the
    diagonal, as every distance matrix has, is the literal 0.0 and keeps
    its row there.  Any other row is read back as floats and written by
    ``json.dumps``."""
    n = table.shape[1]
    fmt = ", ".join([_SIG12] * n)
    d = np.arange(min(table.shape))
    zero = (table[d, d] == 0.0) & ~np.signbit(table[d, d])
    safe = _json_safe(table)
    safe[d[zero], d[zero]] = True
    zero = zero.tolist()
    out = []
    for i, (row, ok) in enumerate(zip(table.tolist(), safe.all(axis=1).tolist())):
        if not ok:
            out.append(json.dumps([float(t) for t in (fmt % tuple(row)).split(", ")]))
        elif i < len(zero) and zero[i]:
            cells = [_SIG12] * n
            cells[i] = "0.0"
            del row[i]
            out.append("[" + ", ".join(cells) % tuple(row) + "]")
        else:
            out.append("[" + fmt % tuple(row) + "]")
    return out


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what}: {exc}") from None


def _params_basis(vals, where: str) -> Basis:
    if np.shape(vals) != (6,):
        raise UsageError(f"{where} needs six values: a b c alpha beta gamma")
    return cell_params_to_basis(*np.asarray(vals, dtype=float).tolist())


def _parse_inline_matrix(text: str) -> Basis:
    tok = text.strip()
    if tok in ("identity2", "identity3"):
        return validate_basis(np.eye(int(tok[-1])))
    vals = _floats(tok, "matrix values")
    n = {4: 2, 9: 3}.get(len(vals))
    if n is None:
        raise UsageError(f"expected 4 or 9 matrix values (got {len(vals)}); "
                         "each group of n values is one cell vector")
    return validate_basis(np.array(vals).reshape(n, n).T)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_matrix_file(path: str) -> Basis:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not ("columns" in data or "cell" in data):
        raise UsageError(f"{path} must contain a 'columns' or 'cell' key")
    key = "columns" if "columns" in data else "cell"
    try:
        vals = np.array(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse '{key}' in {path}: {exc}") from None
    if key == "cell":
        return _params_basis(vals, f"'cell' in {path}")
    if vals.ndim != 2:
        raise UsageError(f"'columns' in {path} must be a list of cell vectors")
    return validate_basis(vals.T)


def _resolve_basis(args, prefix: str, required: bool = True) -> Basis | None:
    file_arg = getattr(args, f"{prefix}_file", None)
    inline = getattr(args, prefix, None)
    params = getattr(args, "cell_params", None) if prefix == "lattice" else None
    if file_arg:
        return _load_matrix_file(file_arg)
    if params:
        return _params_basis(_floats(params, "cell parameters"), "--cell-params")
    if inline:
        return _parse_inline_matrix(inline)
    if required:
        raise UsageError(f"missing --{prefix} input")
    return None


def _load_points(path: str, basis: Basis) -> PeriodicPointSet:
    """Points from JSON {"frac": [...], "labels": [...]} or from plain text,
    one point per line."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = {"frac": [line.split() for line in text.splitlines() if line.strip()]}
    if not isinstance(data, dict) or "frac" not in data:
        raise UsageError(f"{path} must contain a 'frac' key")
    labels = data.get("labels")
    if not isinstance(labels, (list, type(None))):
        raise UsageError(f"'labels' in {path} must be a list or null")
    if labels is not None and not all(isinstance(x, str) for x in labels):
        raise UsageError(f"'labels' in {path} must be strings")
    try:
        return PeriodicPointSet(basis=basis, points=data["frac"], labels=labels)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid points in {path}: {exc}") from None


def _counts_out(counts) -> dict:
    return {
        "h": list(counts.h),
        "layers": list(counts.layers),
        "per_axis": list(counts.per_axis),
        "total": counts.total,
    }


def _check_distances(b: Basis, points, triples) -> str | None:
    """Each reported minimum distance d of a pair (i, j) of ``points``
    against brute force in the pair's certified box."""
    for i, j, d in triples:
        p1, p2 = points[i], points[j]
        ref = oracle.brute_distance(b, p1, p2, oracle.certified_layers(b, d, p2 - p1))
        if abs(ref.distance - d) > 1e-12 * max(1e-300, ref.distance):
            return f"pair ({i}, {j}): distance {d!r} vs brute force {ref.distance!r}"
    return None


def _check_hit_sets(b: Basis, points, cutoff: float, hits) -> str | None:
    """Each pair i <= j of ``points`` reports exactly the images that brute
    force finds within the cutoff in the pair's certified box, each at its
    brute-force distance; ``hits`` maps (i, j) to {image: distance}.  An
    image within 1e-12 (relative) of the cutoff may go either way."""
    zero = (0,) * b.dim
    for i, j in itertools.combinations_with_replacement(range(len(points)), 2):
        p1, p2 = points[i], points[j]
        want = oracle.brute_within(b, p1, p2, cutoff * (1.0 + 1e-12),
                                   oracle.certified_layers(b, cutoff, p2 - p1))
        if i == j:
            del want[zero]
        got = hits.get((i, j), {})
        for t in sorted(got.keys() | want.keys()):
            d, ref = got.get(t), want.get(t)
            if ref is None:
                return f"pair ({i}, {j}) reports image {t}, which brute force does not find"
            if d is None and ref <= cutoff * (1.0 - 1e-12):
                return f"pair ({i}, {j}) misses image {t} at {ref!r}"
            if d is not None and abs(d - ref) > 1e-12 * max(1e-300, ref):
                return f"pair ({i}, {j}) image {t}: distance {d!r} vs brute force {ref!r}"
    return None


def _check_block(cell: Basis, layers, what: str) -> str | None:
    bad = oracle.block_counterexample(cell, layers)
    return None if bad is None else f"{what} misses a shorter image for pair {bad}"


# Handlers: resolved arguments in, (output, verifier) out.  The output is a
# JSON value or CSV text; the verifier returns a mismatch message or None.
def _reduce(a):
    red = reduction.reduce(a.lattice)
    out = {
        "dim": a.lattice.dim,
        "columns": red.basis.matrix.T.tolist(),
        "transform": red.transform.T.tolist(),
        "norms": red.norms.tolist(),
    }
    return out, lambda: (None if oracle.brute_reduced(red.basis)
                         else "reduced basis fails the bounded-enumeration check")


def _relevant(a):
    rel = voronoi.relevant_vectors(a.lattice)
    out = {
        "dim": a.lattice.dim,
        "count": rel.count,
        "coeffs": [list(v.coeffs) for v in rel.vectors],
        "cartesians": rel.cartesians.tolist(),
    }
    return out, lambda: (None if oracle.brute_relevant(a.lattice).coeff_set()
                         == rel.coeff_set() else "relevant vectors differ from the oracle")


def _voronoi(a):
    b = a.lattice
    vc = voronoi.voronoi_cell(b)
    out = {
        "dim": b.dim,
        "volume": vc.volume,
        "vertices": vc.vertices.tolist(),
        "normals": vc.normals.tolist(),
        "offsets": vc.offsets.tolist(),
    }

    def verify():
        # The volume check is cheap and needs no budget, so it runs first.
        if abs(vc.volume - abs(b.det)) > 1e-9 * abs(b.det):
            return "cell volume does not match |det B|"
        if oracle.brute_relevant(b).count != len(vc.normals):
            return "facet count differs from the facet oracle"
        return None
    return out, verify


def _copies(a):
    counts = copies.copy_counts(a.cell, a.lattice)
    return _counts_out(counts), lambda: _check_block(a.cell, counts.layers, "block")


def _cells(a):
    found = cells.enumerate_ps(a.lattice)
    out = [{"coeffs": c.coeffs.T.tolist(), "columns": c.basis.matrix.T.tolist()}
           for c in found]
    return out, lambda: next(filter(None, (
        _check_block(c.basis, (1,) * c.basis.dim, f"3^n block of {c.canonical_key}")
        for c in found)), None)


def _check_cell(a):
    report = cells.check_cell(a.cell, a.lattice)
    out = {
        "sufficient": report.sufficient,
        "ps_member": report.ps_member,
        "cell_reduced": report.cell_reduced,
        "copies": _counts_out(report.counts),
    }
    return out, lambda: _check_block(a.cell, report.counts.layers, "block")


def _dist(a):
    res = min_image_distance(a.lattice, a.p1, a.p2)
    out = {"distance": _sig12(res.distance), "image": list(res.image.coeffs)}
    return out, lambda: _check_distances(a.lattice, [a.p1, a.p2], [(0, 1, res.distance)])


def _matrix(a):
    ps = a.points
    mat = pairwise_distances(ps)
    if a.format == "csv":
        fmt = ",".join([_SIG12] * mat.shape[1])  # one format call per row
        out = "\n".join([fmt % tuple(row) for row in mat.tolist()])
    else:
        out = '{"labels": %s, "distances": [%s]}' % (
            json.dumps(list(ps.labels) if ps.labels else None), ", ".join(_json_rows(mat)))
    return out, lambda: _check_distances(ps.basis, ps.points, [
        (i, j, mat[i, j]) for i in range(len(ps)) for j in range(i + 1, len(ps))])


def _neighbors(a):
    ps, n = a.points, a.lattice.dim
    i, j, images, d = neighbor_arrays(ps, a.cutoff)
    # The columns i, j, t1..tn of the hits, then one format call per hit.
    cols = [i.tolist(), j.tolist(), *images.T.tolist()]
    if a.format == "csv":
        fmt = ",".join(["%d"] * (n + 2) + [_SIG12])
        head = ",".join(["i", "j", *(f"t{k}" for k in range(1, n + 1)), "distance"])
        out = "\n".join([head] + [fmt % row for row in zip(*cols, d.tolist())])
    else:
        fmt = '{"i": %d, "j": %d, "image": [' + ", ".join(["%d"] * n) + '], "distance": %s}'
        dists = _json_rows(d[None, :])[0][1:-1].split(", ")
        out = '{"cutoff": %s, "count": %d, "neighbors": [%s]}' % (
            json.dumps(_sig12(a.cutoff)), len(d),
            ", ".join([fmt % row for row in zip(*cols, dists)]))

    def verify():
        found = {}
        for i, j, *img, dist in zip(*cols, d.tolist()):
            found.setdefault((i, j), {})[tuple(img)] = dist
        return _check_hit_sets(a.lattice, ps.points, a.cutoff, found)
    return out, verify


def _render(a):
    try:
        path = render.render_2d(a.lattice, a.cell, a.out)
    except OSError as exc:
        raise UsageError(f"cannot write {a.out}: {exc}") from None
    return {"out": str(path)}, None


# The options of each input, in --help order.
_OPTIONS = {
    "lattice": (("--lattice", {"help": "inline column values or identity2/identity3"}),
                ("--lattice-file", {"help": "JSON lattice file"}),
                ("--cell-params",
                 {"help": 'cell parameters "a b c alpha beta gamma" (degrees)'})),
    "cell": (("--cell", {"help": "inline cell column values"}),
             ("--cell-file", {"help": "JSON cell file"})),
    "p1/p2": (("--p1", {"required": True, "help": "fractional coordinates"}),
              ("--p2", {"required": True, "help": "fractional coordinates"})),
    "points": (("--points", {"required": True, "help": "points file (JSON or text)"}),),
    "cutoff": (("--cutoff", {"type": float, "required": True}),),
    "format": (("--format", {"choices": ("json", "csv"), "default": "json"}),),
    "out": (("--out", {"required": True, "help": "output SVG path"}),),
    "verify": (("--verify", {"action": "store_true",
                             "help": "cross-check against the brute-force oracle"}),),
}

# Subcommand -> (help, inputs, handler); "cell?" is an optional cell.
COMMANDS = {
    "reduce": ("shortest obtuse basis and transform", "lattice verify", _reduce),
    "relevant": ("Voronoi-relevant vectors", "lattice verify", _relevant),
    "voronoi": ("Voronoi cell halfspaces, vertices, volume", "lattice verify", _voronoi),
    "copies": ("minimal copy counts for a primitive cell", "lattice cell verify", _copies),
    "cells": ("fundamental domains needing only 3^n copies", "lattice verify", _cells),
    "check-cell": ("diagnose a primitive cell", "lattice cell verify", _check_cell),
    "dist": ("minimum-image distance between two points", "lattice p1/p2 verify", _dist),
    "matrix": ("pairwise distance matrix for a point file", "lattice points format verify",
               _matrix),
    "neighbors": ("pairs and images within a cutoff", "lattice points cutoff format verify",
                  _neighbors),
    "render": ("SVG diagram of a 2D lattice and cell", "lattice cell? out", _render),
}


def _add_options(parser: argparse.ArgumentParser, inputs: str) -> argparse.ArgumentParser:
    for key in inputs.split():
        for flag, kwargs in _OPTIONS[key.rstrip("?")]:
            parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimage",
        description="Periodic lattice geometry: reduced bases, Voronoi cells, "
                    "copy counts, and exact minimum-image distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, inputs, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), inputs)
    return parser


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command named by ``argv`` and its arguments.

    When ``argv[0]`` names a command, only that command's parser is built:
    the same parser ``build_parser`` makes for it, so help, usage and errors
    read the same.  Left-over arguments are reported by the full parser, as
    argparse reports them from the top level.  Any other ``argv`` (no
    arguments, an unknown command, a top-level option) goes to the full
    parser."""
    name = argv[0] if argv else None
    if name not in COMMANDS:
        args = build_parser().parse_args(argv)
        return args.command, args
    parser = _add_options(argparse.ArgumentParser(prog=f"minimage {name}"), COMMANDS[name][1])
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return name, args


def _resolve(args, inputs):
    """Replace the raw inputs in ``args`` by parsed values; the library
    checks them."""
    inputs = inputs.split()
    args.lattice = _resolve_basis(args, "lattice")
    if "cell" in inputs or "cell?" in inputs:
        args.cell = _resolve_basis(args, "cell", required="cell" in inputs)
    if "p1/p2" in inputs:
        args.p1, args.p2 = (np.array(_floats(p, "point")) for p in (args.p1, args.p2))
    if "points" in inputs:
        args.points = _load_points(args.points, args.lattice)
    return args


def _print(out) -> None:
    print(out if isinstance(out, str) else json.dumps(out))


def _report(verifier) -> int:
    """Run a verifier and report its verdict on stderr; 0 only when it agrees."""
    try:
        mismatch = verifier()
    except OracleBudgetExceeded as exc:
        print(f"verify: skipped: {exc}", file=sys.stderr)
        return 1
    print("verify: ok" if mismatch is None else f"verify: MISMATCH: {mismatch}",
          file=sys.stderr)
    return 0 if mismatch is None else 1


def run(argv=None) -> int:
    try:
        name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    _, inputs, handler = COMMANDS[name]
    try:
        out, verifier = handler(_resolve(args, inputs))
        _print(out)
        return _report(verifier) if getattr(args, "verify", False) else 0
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader has gone.  Python flushes stdout again at exit, so
        # point it at devnull to keep that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
