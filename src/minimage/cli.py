"""Command line front end.

Matrices are passed inline as whitespace-separated numbers; every
consecutive group of n numbers is one cell vector, with n inferred from the
count (4 values -> 2D, 9 -> 3D).  The tokens identity2 and identity3 name
the unit bases.  JSON files ({"dim": n, "columns": [...]} or
{"cell": [a, b, c, alpha, beta, gamma]}) override inline values.  Of the
lattice sources given, the first of --lattice-file, --cell-params and
--lattice is read and the others are ignored.

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
import functools
import itertools
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

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


# The table writer.  For a finite v in [1e-4, 1e11) with decimal exponent e
# (10^e <= v < 10^(e+1)), "%.12g" writes the 12 digits of the integer N
# nearest v * 10^(11 - e), with the point placed by e and trailing zeros
# dropped.  10^(11 - e) is exact and the product, below 2^40, is rounded
# once, so it is within 2^-13 of v * 10^(11 - e): unless its fraction lies
# within 2.5e-4 of 1/2, rounding it picks the same N as Python's correctly
# rounded "%.12g".  A product that rounds up to 10^12 is N = 10^11 at e + 1.
_BLOCK = 1 << 13  # values per block, which bounds the writer's own memory
_WIDTH = 24       # bytes per value in a block: text (at most 19), separator (at most 4)
_EXPONENTS = range(-4, 12)


def _layout(e: int) -> tuple[int, int, int, int]:
    """(keep, shift, fill, bits) for exponent e: with A the 12 digits and
    then "0000" as a 16-byte little-endian integer, the text is
    (A & keep) | ((A << bits) & shift) | fill, one byte a character."""
    ones = (1 << 128) - 1
    if e < 0:  # "0." and -e - 1 zeros before the digits
        bits = 8 - 8 * e
        return 0, ones ^ ((1 << bits) - 1), int.from_bytes(b"0." + b"0" * (-e - 1), "little"), bits
    # e + 1 digits, the point, the rest shifted by one byte
    return (1 << 8 * e + 8) - 1, ones ^ ((1 << 8 * e + 16) - 1), 46 << 8 * e + 8, 8


@functools.cache
def _sig12_tables() -> SimpleNamespace:
    """The writer's lookup tables, built on first use."""
    d = np.arange(48, 58, dtype=np.uint64)  # ASCII "0" to "9"
    nz = np.arange(10) != 0
    e = np.array(_EXPONENTS)[:, None]
    nd = np.arange(13)
    text = np.where(e < 0, 1 - e + nd, np.where(nd > e + 1, nd + 1, e + 1))
    layouts = [_layout(x) for x in _EXPONENTS]
    words = [np.array([[x[k] & (2**64 - 1), x[k] >> 64] for x in layouts], np.uint64).T
             for k in range(3)]
    tables = SimpleNamespace(
        # q in [0, 10^4) -> its four digits, the first in the lowest byte
        digits=(d[:, None, None, None] | d[:, None, None] << 8 | d[:, None] << 16
                | d << 24).ravel(),
        # q -> how many of its four digits are left when trailing zeros go
        sig=np.select([nz, nz[:, None], nz[:, None, None], nz[:, None, None, None]],
                      [4, 3, 2, 1], 0).ravel(),
        scale=np.array([float(10 ** (11 - x)) for x in _EXPONENTS]),
        keep=words[0], shift=words[1], fill=words[2],
        bits=np.array([x[3] for x in layouts], np.uint64),
        # (as_json, 13 (e + 4) + significant digits) -> text length; an
        # integral JSON number ends in ".0"
        length=np.stack([text, text + 2 * (e >= 0) * (nd <= e + 1)]).reshape(2, -1),
        prefix=np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None],
    )
    # x + 9999 for x in [-9999, 9999] -> the text of x as "%d" writes it,
    # the first character in the lowest byte, and its length
    x = np.arange(-9999, 10000)
    size = 1 + (abs(x) >= 10) + (abs(x) >= 100) + (abs(x) >= 1000)
    text = tables.digits[abs(x)] >> (8 * (4 - size)).astype(np.uint64)
    tables.small = np.where(x < 0, (text << 8) | ord("-"), text)[:, None]
    tables.small_length = size + (x < 0)
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _sig12_rule(values: list[float], as_json: bool) -> list[str]:
    """The text of each value: "%.12g", or for JSON that decimal read back
    as a float and written by ``json.dumps``."""
    texts = [_SIG12 % x for x in values]
    return json.dumps([float(x) for x in texts])[1:-1].split(", ") if as_json else texts


def _sig12_cells(v: np.ndarray, as_json: bool) -> tuple[np.ndarray, np.ndarray]:
    """The text of each value of ``v`` as ``_sig12_rule`` writes it, left
    aligned in a row of ``_WIDTH`` bytes, and its length."""
    t = _sig12_tables()
    m = len(v)
    fast = (v >= 1e-4) & (v < 1e11)
    w = np.where(fast, v, 1.0)
    k = np.clip(np.floor(np.log10(w)).astype(np.int64) + 4, 0, 15)  # e + 4
    s = w * t.scale[k]
    n = np.rint(s)
    # log10 may miss e at a power of ten; s then leaves [1e11, 1e12).
    fast &= (np.abs(s - n) < 0.49975) & (s >= 1e11) & (s < 1e12)
    np.clip(n, 1e11, 1e12, out=n)  # keeps the digits of every other value in the tables
    carry = n == 1e12
    n[carry] = 1e11
    k[carry] += 1
    big = n.astype(np.int64)
    q = big // 10_000
    lo = big - q * 10_000
    hi = q // 10_000
    mid = q - hi * 10_000
    nd = 8 + t.sig[lo]
    z = np.flatnonzero(lo == 0)
    nd[z] = np.where(mid[z] != 0, 4 + t.sig[mid[z]], t.sig[hi[z]])
    length = t.length[int(as_json)][13 * k + nd]
    a0 = t.digits[hi] | (t.digits[mid] << 32)
    a1 = t.digits[lo] | np.uint64(0x30303030 << 32)  # "0000"
    bits = t.bits[k]
    grid = np.empty((m, 3), "<u8")  # little-endian: the first character in the lowest byte
    grid[:, 0] = (a0 & t.keep[0][k]) | ((a0 << bits) & t.shift[0][k]) | t.fill[0][k]
    grid[:, 1] = ((a1 & t.keep[1][k]) | (((a1 << bits) | (a0 >> (64 - bits))) & t.shift[1][k])
                  | t.fill[1][k])
    grid[:, 2] = a1 >> (64 - bits)
    chars = grid.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):  # one text per distinct bit pattern
        patterns, which = np.unique(v[slow].view(np.int64), return_inverse=True)
        texts = _sig12_rule(patterns.view(np.float64).tolist(), as_json)
        length[slow] = np.array([len(x) for x in texts])[which]
        padded = np.frombuffer("".join([x.ljust(19) for x in texts]).encode(), np.uint8)
        chars[slow, :19] = padded.reshape(-1, 19)[which]
    return chars, length


def _sig12_block(v: np.ndarray, start: int, total: int, sep: str, row_len: int,
                 row_sep: str, as_json: bool) -> str:
    """``_sig12_text`` of the values ``v``, which start at index ``start`` of
    ``total``, each followed by its separator but the last of all."""
    chars, length = _sig12_cells(v, as_json)
    m = len(v)
    flat = chars.reshape(-1)
    at = np.arange(0, m * _WIDTH, _WIDTH) + length
    for j, c in enumerate(sep.encode()):
        flat[at + j] = c
    ends = np.arange((row_len - 1 - start) % row_len, m, row_len)
    for j, c in enumerate(row_sep.encode()):
        flat[at[ends] + j] = c
    length += len(sep)
    length[ends] += len(row_sep) - len(sep)
    if start + m == total:
        length[-1] -= len(row_sep) if total % row_len == 0 else len(sep)
    return chars[_sig12_tables().prefix[length]].tobytes().decode("ascii")


def _sig12_text(values: np.ndarray, sep: str, row_len: int, row_sep: str,
                as_json: bool) -> str:
    """The values of ``values`` in order, each as ``_sig12_rule`` writes it:
    ``sep`` between values of a row of ``row_len``, ``row_sep`` between
    rows.  Separators are at most 4 characters.

    Values in [1e-4, 1e11) are written from their digits as above; every
    other value (zero, negative, subnormal, huge or not finite) and every
    product near a tie goes through ``_sig12_rule``.  In that range JSON
    and "%.12g" write the same text, but for the ".0" of an integral
    number: the double nearest a decimal of at most 12 digits has that
    decimal as its shortest repr, and both switch to an exponent only
    outside the range."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    return "".join([_sig12_block(v[i:i + _BLOCK], i, len(v), sep, row_len, row_sep, as_json)
                    for i in range(0, len(v), _BLOCK)])


def _sig12_rows(ints: np.ndarray, last: np.ndarray, joins: list[str], row_sep: str,
                as_json: bool) -> str:
    """Rows of the integer columns ``ints`` as "%d" writes them, then of
    the values ``last`` as ``_sig12_text`` writes them: ``joins[0]``, the
    first value, ``joins[1]``, the second, and so on, ``joins[-1]`` last;
    ``row_sep`` between rows.

    A block of rows is one grid of 8-byte words, with a mask of the bytes
    to keep: each join right-aligned in whole words, and each column in
    the words its longest text in the block needs.  An integer below 10^4
    in magnitude takes its text from a table; "%.12g" writes the others
    below 10^12 as "%d" does, and the rest take a "%d" call each."""
    t = _sig12_tables()
    words = t.prefix.view("<u8")  # length -> the mask of its first bytes, as words
    fixed = []
    for text in [*joins[:-1], joins[-1] + row_sep]:
        pad = b"\0" * (-len(text) % 8)
        fixed.append((np.frombuffer(pad + text.encode(), "<u8"),
                      np.frombuffer(pad + b"\1" * len(text), "<u8")))
    out = []
    for r0 in range(0, len(ints), _BLOCK):
        block = ints[r0:r0 + _BLOCK]
        cells = []
        for column in block.T:
            if abs(column).max() < 10**4:
                cells.append((t.small[column + 9999], t.small_length[column + 9999]))
            else:
                chars, length = _sig12_cells(column.astype(np.float64), False)
                big = np.flatnonzero(abs(column) >= 10**12)
                if len(big):  # "%.12g" would write these with an exponent
                    texts = ["%d" % x for x in column[big].tolist()]
                    length[big] = [len(x) for x in texts]
                    chars[big] = np.frombuffer("".join([x.ljust(_WIDTH) for x in texts]).encode(),
                                               np.uint8).reshape(-1, _WIDTH)
                cells.append((chars.view("<u8"), length))
        chars, length = _sig12_cells(last[r0:r0 + _BLOCK], as_json)
        cells.append((chars.view("<u8"), length))
        columns = []  # per word of a row: its texts and masks
        for (text, mask), cell in zip(fixed, cells + [None]):
            columns += zip(text, mask)
            if cell:
                chars, length = cell
                size = -(-int(length.max()) // 8)
                columns += zip(chars[:, :size].T, words[length, :size].T)
        grid = np.empty((2, len(block), len(columns)), "<u8")
        for k, (text, mask) in enumerate(columns):
            grid[0, :, k], grid[1, :, k] = text, mask
        out.append(grid[0].view(np.uint8)[grid[1].view(bool)].tobytes())
    return b"".join(out)[:-len(row_sep) or None].decode("ascii")


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
    if key == "columns" and vals.ndim != 2:
        raise UsageError(f"'columns' in {path} must be a list of cell vectors")
    n = 3 if key == "cell" else len(vals)
    if data.get("dim", n) != n:
        raise UsageError(f"'dim' in {path} is {data['dim']!r}, but '{key}' gives {n} "
                         "cell vectors")
    if key == "cell":
        return _params_basis(vals, f"'cell' in {path}")
    return validate_basis(vals.T)


def _resolve_basis(args, prefix: str, required: bool = True) -> Basis | None:
    """The basis ``--PREFIX-file``, ``--cell-params`` (for the lattice) or
    inline ``--PREFIX`` gives, the first of them given, in that order."""
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
        out = _sig12_text(mat, ",", mat.shape[1], "\n", False)
    else:
        out = '{"labels": %s, "distances": [[%s]]}' % (
            json.dumps(list(ps.labels) if ps.labels else None),
            _sig12_text(mat, ", ", mat.shape[1], "], [", True))
    return out, lambda: _check_distances(ps.basis, ps.points, [
        (i, j, mat[i, j]) for i in range(len(ps)) for j in range(i + 1, len(ps))])


def _neighbors(a):
    ps, n = a.points, a.lattice.dim
    i, j, images, d = neighbor_arrays(ps, a.cutoff)
    # One row per hit: i, j and t1..tn as "%d" writes them, then the distance.
    ints = np.column_stack((i, j, images))
    as_json = a.format != "csv"
    if as_json:
        joins = ['{"i": ', ', "j": ', ', "image": [', *[", "] * (n - 1), '], "distance": ', "}"]
        row_sep = ", "
    else:
        joins, row_sep = ["", *[","] * (n + 2), ""], "\n"
    rows = _sig12_rows(ints, d, joins, row_sep, as_json)
    if as_json:
        out = '{"cutoff": %s, "count": %d, "neighbors": [%s]}' % (
            json.dumps(_sig12(a.cutoff)), len(d), rows)
    else:
        head = ",".join(["i", "j", *(f"t{k}" for k in range(1, n + 1)), "distance"])
        out = head + "\n" + rows if len(d) else head

    def verify():
        found = {}
        for i, j, *img, dist in zip(*ints.T.tolist(), d.tolist()):
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


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, the same one ``build_parser`` makes for it,
    built once per process.  argparse keeps no state between parses, and
    it reads the terminal width for help and usage each time it writes
    them."""
    return _add_options(argparse.ArgumentParser(prog=f"minimage {name}"), COMMANDS[name][1])


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command named by ``argv`` and its arguments.

    When ``argv[0]`` names a command, only that command's parser is used,
    so help, usage and errors read as from the full parser.  Left-over
    arguments are reported by the full parser, as argparse reports them
    from the top level.  Any other ``argv`` (no arguments, an unknown
    command, a top-level option) goes to the full parser."""
    name = argv[0] if argv else None
    if name not in COMMANDS:
        args = build_parser().parse_args(argv)
        return args.command, args
    args, extras = _command_parser(name).parse_known_args(argv[1:])
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
