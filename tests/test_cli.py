import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from minimage import cli
from minimage.cli import run
from minimage.errors import LatticeError

from conftest import NO_OBTUSE_SHORTEST_3D


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


def test_copies_sheared_example(capsys):
    data = run_json(capsys, ["copies", "--cell", "1 0 -5 1", "--lattice", "identity2"])
    assert data == {"h": [3.0, 0.5], "layers": [3, 1], "per_axis": [7, 3], "total": 21}


def test_dist_example(capsys):
    data = run_json(capsys, ["dist", "--lattice", "identity2",
                             "--p1", "0.1 0.1", "--p2", "0.9 0.1"])
    assert data["distance"] == pytest.approx(0.2, abs=1e-12)
    assert data["image"] == [-1, 0]


def test_cells_enumeration_count(capsys):
    data = run_json(capsys, ["cells", "--cell-params", "1 1.1 1.2 100 95 98"])
    assert isinstance(data, list)
    assert len(data) == 16
    for item in data:
        assert set(item) == {"coeffs", "columns"}


def test_reduce_identity(capsys):
    data = run_json(capsys, ["reduce", "--lattice", "identity3"])
    assert data["transform"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert data["norms"] == [1.0, 1.0, 1.0]


def test_relevant_hexagonal(capsys):
    hexa = "1 0 -0.5 0.8660254037844386"
    data = run_json(capsys, ["relevant", "--lattice", hexa])
    assert data["count"] == 6
    assert sorted(map(tuple, data["coeffs"])) == [(0, 1), (1, 0), (1, 1)]


def test_voronoi_identity(capsys):
    data = run_json(capsys, ["voronoi", "--lattice", "identity2"])
    assert data["volume"] == pytest.approx(1.0)
    assert len(data["vertices"]) == 4
    assert len(data["normals"]) == 4


def test_check_cell_sheared(capsys):
    data = run_json(capsys, ["check-cell", "--cell", "1 0 -5 1",
                             "--lattice", "identity2"])
    assert data["sufficient"] is False
    assert data["ps_member"] is False
    assert data["copies"]["total"] == 21


def test_neighbors_json_and_csv(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n")
    data = run_json(capsys, ["neighbors", "--lattice", "identity2",
                             "--points", str(pts), "--cutoff", "1.0"])
    assert data["count"] == 4
    assert all(n["distance"] == 1.0 for n in data["neighbors"])

    code = run(["neighbors", "--lattice", "identity2", "--points", str(pts),
                "--cutoff", "1.0", "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0
    lines = out.out.strip().splitlines()
    assert lines[0] == "i,j,t1,t2,distance"
    assert len(lines) == 5


def test_matrix_json_with_labels(capsys, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"frac": [[0.0, 0.0], [0.5, 0.5]],
                               "labels": ["a", "b"]}))
    data = run_json(capsys, ["matrix", "--lattice", "identity2",
                             "--points", str(pts)])
    assert data["labels"] == ["a", "b"]
    assert data["distances"][0][1] == pytest.approx(np.sqrt(2) / 2, rel=1e-9)
    assert data["distances"][0][0] == 0.0


def test_matrix_csv(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0.5 0\n")
    code = run(["matrix", "--lattice", "identity2", "--points", str(pts),
                "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.out.strip().splitlines()]
    assert rows[0][1] == "0.5"


def test_lattice_file_input(capsys, tmp_path):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps({"dim": 2, "columns": [[1.0, 0.0], [-5.0, 1.0]]}))
    data = run_json(capsys, ["copies", "--cell-file", str(lat),
                             "--lattice", "identity2"])
    assert data["total"] == 21

    cell = tmp_path / "cell.json"
    cell.write_text(json.dumps({"cell": [1, 1, 1, 90, 90, 90]}))
    data = run_json(capsys, ["copies", "--cell-file", str(cell),
                             "--lattice", "identity3"])
    assert data["total"] == 27


@pytest.mark.parametrize("content", [
    "5",
    '{"columns": [[1, "x"], [0, 1]]}',
    '{"columns": [[1, 0, 0], [0, 1]]}',
    '{"columns": 5}',
    '{"cell": [1, 2]}',
])
def test_malformed_lattice_file_is_usage_error(capsys, tmp_path, content):
    lat = tmp_path / "lat.json"
    lat.write_text(content)
    code = run(["reduce", "--lattice-file", str(lat)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:")


def test_output_is_byte_identical(capsys):
    argv = ["voronoi", "--lattice", "1 0 -0.5 0.8660254037844386"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_render_writes_svg(capsys, tmp_path):
    out = tmp_path / "fig.svg"
    data = run_json(capsys, ["render", "--lattice", "identity2",
                             "--cell", "1 0 -5 1", "--out", str(out)])
    assert data == {"out": str(out)}
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<polygon" in text and "<circle" in text


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_render_to_an_unwritable_path_is_usage_error(capsys, tmp_path, where):
    out = {"missing-directory": tmp_path / "none" / "x.svg", "a-directory": tmp_path}[where]
    code = run(["render", "--lattice", "identity2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_render_refuses_a_block_over_its_copy_limit(capsys, tmp_path):
    out = tmp_path / "x.svg"
    code = run(["render", "--lattice", "identity2", "--cell", "1 0 3e5 1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("usage error: the block of 900,009 copies is over the "
                            "render limit of 10,000\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["copies", "check-cell"])
def test_block_check_over_budget_is_skipped_before_allocating(capsys, cmd):
    """The 1e9 shear needs a block of 3e9 copies; the check is budgeted
    before the block is built."""
    code = run([cmd, "--lattice", "identity2", "--cell", "1 0 1e9 1", "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert '"total": 3000000009' in captured.out
    assert captured.err.startswith(
        "verify: skipped: the block check needs 600,000,001,800 lattice points")


def test_render_rejects_3d(capsys, tmp_path):
    code = run(["render", "--lattice", "identity3",
                "--out", str(tmp_path / "x.svg")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_exit_code_domain_error(capsys):
    code = run(["reduce", "--lattice", "1 0 2 0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_exit_code_usage_errors(capsys):
    assert run(["dist", "--lattice", "identity2", "--p1", "0 0"]) == 2  # missing --p2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["copies", "--lattice", "identity2"]) == 2  # missing --cell
    capsys.readouterr()
    assert run(["dist", "--lattice", "identity2", "--p1", "0 0 0", "--p2", "0 0"]) == 2
    capsys.readouterr()
    assert run(["neighbors", "--lattice", "identity2", "--points", "/nonexistent",
                "--cutoff", "1.0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("case", ["inline-value", "missing-lattice-file",
                                  "lattice-file-not-json", "points-without-frac",
                                  "points-of-the-wrong-dimension", "lattice-file-not-utf8",
                                  "cell-file-not-utf8", "points-not-utf8"])
def test_input_errors_are_usage_errors(capsys, tmp_path, case):
    (tmp_path / "lat.json").write_text('{"columns": [[1, 0], [0, 1]]')
    (tmp_path / "nofrac.json").write_text('{"points": [[0.1, 0.2]]}')
    (tmp_path / "pts3.txt").write_text("0.1 0.2 0.3\n")
    bad = tmp_path / "utf16.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    argv = {
        "inline-value": ["reduce", "--lattice", "1 x 0 1"],
        "missing-lattice-file": ["reduce", "--lattice-file", str(tmp_path / "none.json")],
        "lattice-file-not-json": ["reduce", "--lattice-file", str(tmp_path / "lat.json")],
        "points-without-frac": ["matrix", "--lattice", "identity2",
                                "--points", str(tmp_path / "nofrac.json")],
        "points-of-the-wrong-dimension": ["matrix", "--lattice", "identity2",
                                          "--points", str(tmp_path / "pts3.txt")],
        "lattice-file-not-utf8": ["reduce", "--lattice-file", str(bad)],
        "cell-file-not-utf8": ["copies", "--lattice", "identity2", "--cell-file", str(bad)],
        "points-not-utf8": ["matrix", "--lattice", "identity2", "--points", str(bad)],
    }[case]
    code = run(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("usage error:")
    if case.endswith("utf8"):
        assert out.err.startswith(f"usage error: cannot read {bad}: ")
        assert "Traceback" not in out.err


def test_neighbors_below_every_distance_print_no_hits(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0.5 0.5\n")
    argv = ["neighbors", "--lattice", "identity2", "--points", str(pts), "--cutoff", "0.1"]
    assert run_json(capsys, argv)["count"] == 0
    assert run(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["i,j,t1,t2,distance"]


@pytest.mark.parametrize("argv", [
    ["dist", "--lattice", "identity2", "--p1", "0.1 0.1", "--p2", "0.9 0.1"],
    ["relevant", "--lattice", "1 0 -0.5 0.8660254037844386"],
    ["voronoi", "--lattice", "identity3"],
    ["copies", "--cell", "1 0 -5 1", "--lattice", "identity2"],
    ["reduce", "--lattice", "1 0 10.3 1"],
    # no all-obtuse shortest basis: the acute pair is right
    ["reduce", "--cell-params", "1 1.1 1.2 80 80 80"],
    ["reduce", "--lattice", " ".join(map(repr, NO_OBTUSE_SHORTEST_3D.T.ravel().tolist()))],
])
def test_verify_passes(capsys, argv):
    code = run(argv + ["--verify"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "verify: ok" in captured.err


def test_verify_never_alters_primary_output(capsys):
    argv = ["dist", "--lattice", "1 0 -5 1", "--p1", "0 0", "--p2", "0.5 0.5"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + ["--verify"]) == 0
    verified = capsys.readouterr()
    assert verified.out == plain
    assert "verify: ok" in verified.err


def test_verify_mismatch_flips_exit_code(capsys, monkeypatch):
    import minimage.oracle
    from minimage.core import LatticeVector
    from minimage.distance import DistanceResult

    monkeypatch.setattr(
        minimage.oracle, "brute_distance",
        lambda b, p1, p2, layers: DistanceResult(999.0, LatticeVector((0, 0))),
    )
    code = run(["dist", "--lattice", "identity2",
                "--p1", "0.1 0.1", "--p2", "0.9 0.1", "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert "verify: MISMATCH" in captured.err
    assert '"distance": 0.2' in captured.out  # primary output still emitted


def test_verify_matrix_and_neighbors(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.1 0.1\n0.7 0.3\n")
    assert run(["matrix", "--lattice", "1 0 -5 1", "--points", str(pts),
                "--verify"]) == 0
    assert "verify: ok" in capsys.readouterr().err
    assert run(["neighbors", "--lattice", "identity2", "--points", str(pts),
                "--cutoff", "1.0", "--verify"]) == 0
    assert "verify: ok" in capsys.readouterr().err


def test_non_finite_points_and_cutoff_are_usage_errors(capsys, tmp_path):
    assert run(["dist", "--lattice", "identity2", "--p1", "nan 0.1",
                "--p2", "0.9 0.1"]) == 2
    assert "finite" in capsys.readouterr().err
    assert run(["dist", "--lattice", "identity2", "--p1", "0.1 0.1",
                "--p2", "inf 0.1"]) == 2
    assert "finite" in capsys.readouterr().err
    pts = tmp_path / "pts.txt"
    pts.write_text("0.1 0.1\n0.7 0.3\n")
    assert run(["neighbors", "--lattice", "identity2", "--points", str(pts),
                "--cutoff", "inf"]) == 2
    assert "cutoff" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frac": [[0.1, 0.1], ["NaN", 0.3]]}))
    assert run(["matrix", "--lattice", "identity2", "--points", str(bad)]) == 2
    assert "finite" in capsys.readouterr().err
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("0.1 0.1\n0.7\n")
    assert run(["matrix", "--lattice", "identity2", "--points", str(ragged)]) == 2
    assert "usage error" in capsys.readouterr().err


def python_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_python(*args):
    return subprocess.run([sys.executable, *args], env=python_env(),
                          capture_output=True, text=True, timeout=60)


def run_module(module, *args):
    return run_python("-m", module, *args)


def test_importing_the_package_loads_no_cli_modules():
    # Every library caller pays for `import minimage`; the argument parser
    # and the JSON encoder serve the CLI alone.
    proc = run_python("-c", "import sys, minimage; "
                            "print(sorted({'minimage.cli', 'argparse', 'json'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["minimage.cli", "minimage"])
def test_python_dash_m_runs_the_cli(module):
    proc = run_module(module, "dist", "--lattice", "identity2",
                      "--p1", "0.1 0.1", "--p2", "0.9 0.1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"distance": 0.2, "image": [-1, 0]}


def test_a_closed_pipe_exits_quietly(tmp_path):
    """``minimage ... | head -c 300``: the reader leaves early.  The output
    (about 1 MB) is far larger than a pipe's buffer, so the write fails."""
    pts = tmp_path / "pts.txt"
    points = np.random.default_rng(0).random((80, 2)).tolist()
    pts.write_text("".join(f"{x!r} {y!r}\n" for x, y in points))
    proc = subprocess.Popen([sys.executable, "-m", "minimage.cli", "neighbors", "--lattice",
                             "2 0 0 2", "--points", str(pts), "--cutoff", "2.5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env())
    try:
        head = proc.stdout.read(300)
        proc.stdout.close()
        proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert head.startswith(b'{"cutoff": 2.5, "count": ')
    assert "Traceback" not in err
    assert err == ""
    assert proc.returncode == 141


def test_python_dash_m_bad_arguments_exit_2():
    proc = run_module("minimage.cli", "dist", "--lattice", "identity2", "--p1", "0 0")
    assert proc.returncode == 2
    assert proc.stdout == ""


# --- verification: certified boxes, perturbed fast paths, budget ------------

SKEW = "1 0 -5 1"
TILTED = "1 0 10.3 1"  # relevant vectors (10, -1) and (11, -1) lie outside box 3


@pytest.mark.parametrize("cmd", ["relevant", "voronoi"])
def test_verify_relevant_vectors_beyond_a_small_box(capsys, cmd):
    code = run([cmd, "--lattice", TILTED, "--verify"])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "verify: ok" in err


def test_distance_verifiers_do_not_read_copy_counts(capsys, monkeypatch, tmp_path):
    import minimage.copies

    def refuse(*args):
        raise AssertionError("the oracle box must not come from copy_counts")

    monkeypatch.setattr(minimage.copies, "copy_counts", refuse)
    pts = tmp_path / "pts.txt"
    pts.write_text("0.1 0.1\n0.7 0.3\n0.45 0.9\n")
    for argv in (["dist", "--lattice", SKEW, "--p1", "0 0", "--p2", "0.5 0.5"],
                 ["matrix", "--lattice", SKEW, "--points", str(pts)],
                 ["neighbors", "--lattice", SKEW, "--points", str(pts), "--cutoff", "1.2"]):
        code = run(argv + ["--verify"])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "verify: ok" in err


# Perturbations of the neighbor arrays (i, j, image, d).
def _stretched(arrays):
    return arrays[:3] + (arrays[3] * (1 + 1e-9),)


def _drop_nearest_hit(arrays):
    i, j = arrays[:2]
    return tuple(x[np.arange(len(i)) != np.flatnonzero(i != j)[0]] for x in arrays)


def _drop_far_hit(arrays):
    """Drop the second hit of pair (0, 1), which is not its nearest."""
    i, j = arrays[:2]
    return tuple(x[np.arange(len(i)) != np.flatnonzero((i == 0) & (j == 1))[1]]
                 for x in arrays)


def _drop_pair(arrays):
    i, j = arrays[:2]
    return tuple(x[(i != 0) | (j != 1)] for x in arrays)


def _extra_hit(arrays):
    """Append an image of pair (0, 1) far outside the cutoff."""
    i, j, image, d = arrays
    return (np.append(i, 0), np.append(j, 1), np.vstack([image, [[5, 5]]]), np.append(d, 0.5))


def _drop_facet_pair(cell):
    """Drop the first facet normal and its opposite."""
    from dataclasses import replace

    n = cell.normals
    keep = ~(np.all(n == n[0], axis=1) | np.all(n == -n[0], axis=1))
    return replace(cell, normals=n[keep], offsets=cell.offsets[keep])


def _perturbations():
    """(argv, module, attribute, wrapper of the original) per verifier."""
    from dataclasses import replace

    import minimage.cells
    import minimage.cli
    import minimage.copies
    import minimage.reduction
    import minimage.voronoi
    from minimage.cells import CellBasisCandidate
    from minimage.core import validate_basis
    from minimage.distance import DistanceResult
    from minimage.reduction import ReducedBasis
    from minimage.voronoi import RelevantVectorSet

    def one_layer(counts):
        return minimage.copies.counts_from_extents([min(h, 1.0) for h in counts.h])

    def shrunk(res):
        return DistanceResult(res.distance * (1 - 1e-9), res.image)

    def scaled_matrix(mat):
        mat = mat.copy()
        mat[0, 1] = mat[1, 0] = mat[0, 1] * (1 + 1e-9)
        return mat

    skew_cell = CellBasisCandidate(coeffs=np.array([[1, -5], [0, 1]]),
                                   basis=validate_basis(np.array([[1.0, -5.0], [0.0, 1.0]])),
                                   canonical_key=((1, 0), (-5, 1)))
    return {
        "dist": (["dist", "--lattice", SKEW, "--p1", "0 0", "--p2", "0.5 0.5"],
                 minimage.cli, "min_image_distance", lambda f: lambda *a: shrunk(f(*a))),
        "matrix": (["matrix", "--lattice", SKEW, "--points", "{pts}"], minimage.cli,
                   "pairwise_distances", lambda f: lambda ps: scaled_matrix(f(ps))),
        "neighbors-distance": (
            ["neighbors", "--lattice", "identity2", "--points", "{pts}", "--cutoff", "1.0"],
            minimage.cli, "neighbor_arrays",
            lambda f: lambda ps, c: _stretched(f(ps, c))),
        "neighbors-missing": (
            ["neighbors", "--lattice", "identity2", "--points", "{pts}", "--cutoff", "1.0"],
            minimage.cli, "neighbor_arrays",
            lambda f: lambda ps, c: _drop_nearest_hit(f(ps, c))),
        "neighbors-far-hit-dropped": (
            ["neighbors", "--lattice", "identity2", "--points", "{pts}", "--cutoff", "1.0"],
            minimage.cli, "neighbor_arrays",
            lambda f: lambda ps, c: _drop_far_hit(f(ps, c))),
        "neighbors-pair-dropped": (
            ["neighbors", "--lattice", "identity2", "--points", "{pts}", "--cutoff", "1.0"],
            minimage.cli, "neighbor_arrays",
            lambda f: lambda ps, c: _drop_pair(f(ps, c))),
        "neighbors-extra-hit": (
            ["neighbors", "--lattice", "identity2", "--points", "{pts}", "--cutoff", "1.0"],
            minimage.cli, "neighbor_arrays",
            lambda f: lambda ps, c: _extra_hit(f(ps, c))),
        "relevant": (["relevant", "--lattice", TILTED], minimage.voronoi, "relevant_vectors",
                     lambda f: lambda b: RelevantVectorSet(vectors=f(b).vectors[:-1],
                                                           cartesians=f(b).cartesians[:-1])),
        "voronoi": (["voronoi", "--lattice", TILTED], minimage.voronoi, "voronoi_cell",
                    lambda f: lambda b: replace(f(b), volume=f(b).volume * 1.001)),
        "voronoi-facets": (["voronoi", "--lattice", TILTED], minimage.voronoi, "voronoi_cell",
                           lambda f: lambda b: _drop_facet_pair(f(b))),
        "copies": (["copies", "--cell", SKEW, "--lattice", "identity2"], minimage.copies,
                   "copy_counts", lambda f: lambda c, b: one_layer(f(c, b))),
        "check-cell": (["check-cell", "--cell", SKEW, "--lattice", "identity2"],
                       minimage.cells, "check_cell",
                       lambda f: lambda c, b: replace(f(c, b),
                                                      counts=one_layer(f(c, b).counts))),
        "cells": (["cells", "--lattice", "identity2"], minimage.cells, "enumerate_ps",
                  lambda f: lambda b: f(b) + [skew_cell]),
        "reduce": (["reduce", "--lattice", TILTED], minimage.reduction, "reduce",
                   lambda f: lambda b: ReducedBasis(
                       basis=b, transform=np.eye(b.dim),
                       superbase=np.hstack([np.eye(b.dim), -np.ones((b.dim, 1))]))),
    }


@pytest.mark.parametrize("case", sorted(_perturbations()))
def test_verify_reports_a_perturbed_fast_path(capsys, monkeypatch, tmp_path, case):
    argv, module, name, wrap = _perturbations()[case]
    pts = tmp_path / "pts.txt"
    pts.write_text("0.1 0.1\n0.7 0.3\n")
    argv = [a.replace("{pts}", str(pts)) for a in argv]
    assert run(argv + ["--verify"]) == 0
    assert "verify: ok" in capsys.readouterr().err
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code = run(argv + ["--verify"])
    err = capsys.readouterr().err
    assert code == 1
    assert "verify: MISMATCH" in err


def test_verify_over_budget_is_skipped_promptly(capsys):
    import time

    from conftest import random_cond_basis

    b = random_cond_basis(np.random.default_rng(7), 3, 1e6)
    argv = ["dist", "--lattice", " ".join(repr(float(x)) for x in b.matrix.T.ravel()),
            "--p1", "0.1 0.2 0.3", "--p2", "0.7 0.1 0.9"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    start = time.perf_counter()
    code = run(argv + ["--verify"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == plain
    assert "verify: skipped:" in captured.err and "budget" in captured.err
    assert elapsed < 10.0


def test_voronoi_verify_checks_the_volume_before_the_budgeted_oracle(capsys, monkeypatch):
    """A wrong volume is reported even where the facet oracle is over budget."""
    from dataclasses import replace

    import minimage.voronoi
    from conftest import random_cond_basis

    b = random_cond_basis(np.random.default_rng(7), 3, 1e6)
    argv = ["voronoi", "--lattice", " ".join(repr(float(x)) for x in b.matrix.T.ravel()),
            "--verify"]
    assert run(argv) == 1
    assert "verify: skipped:" in capsys.readouterr().err
    f = minimage.voronoi.voronoi_cell
    monkeypatch.setattr(minimage.voronoi, "voronoi_cell",
                        lambda b: replace(f(b), volume=f(b).volume * 1.001))
    assert run(argv) == 1
    assert "verify: MISMATCH: cell volume does not match |det B|" in capsys.readouterr().err


# --- typed errors -------------------------------------------------------------


@pytest.mark.parametrize("cmd", ["copies", "check-cell", "render"])
def test_cell_and_lattice_dimensions_must_match(capsys, tmp_path, cmd):
    out = ["--out", str(tmp_path / "x.svg")] if cmd == "render" else []
    assert run([cmd, "--cell", "identity3", "--lattice", "identity2", *out]) == 1
    assert "error:" in capsys.readouterr().err


def test_points_file_with_wrong_label_count_is_usage_error(capsys, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"frac": [[0.1, 0.2], [0.5, 0.5]], "labels": ["a"]}))
    assert run(["matrix", "--lattice", "identity2", "--points", str(pts)]) == 2
    assert "labels" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["abc", {"a": 1, "b": 2, "c": 3}, 3],
                         ids=["string", "object", "number"])
def test_points_file_labels_must_be_a_list(capsys, tmp_path, labels):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"frac": [[0.1, 0.2], [0.5, 0.5], [0.7, 0.1]],
                               "labels": labels}))
    assert run(["matrix", "--lattice", "identity2", "--points", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: 'labels' in {pts} must be a list or null\n"


@pytest.mark.parametrize("labels", [[None, "b", "c"], ["a", True, "c"], ["a", "b", {"a": 1}],
                                    ["a", "b", 3], ["a", "b", ["c"]]],
                         ids=["null", "bool", "object", "number", "list"])
def test_points_file_label_items_must_be_strings(capsys, tmp_path, labels):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"frac": [[0.1, 0.2], [0.5, 0.5], [0.7, 0.1]],
                               "labels": labels}))
    assert run(["matrix", "--lattice", "identity2", "--points", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: 'labels' in {pts} must be strings\n"


def test_points_file_labels_may_be_null(capsys, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"frac": [[0.1, 0.2], [0.5, 0.5]], "labels": None}))
    data = run_json(capsys, ["matrix", "--lattice", "identity2", "--points", str(pts)])
    assert data["labels"] is None


def test_envelope_edge_is_a_domain_error(capsys):
    from test_core import unit_covolume_basis

    lattice = " ".join(repr(float(x)) for x in unit_covolume_basis(0, 3, 1e8).T.ravel())
    assert run(["reduce", "--lattice", lattice]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: columns are numerically dependent" in captured.err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["reduce", "--lattice", "1e150 0 0 0 1e150 0 0 0 1e150"],
                 "error: |det| is about 1e450, outside float64's normal range", id="det-1e450"),
    # Each of these was accepted and then ended in a traceback: IndexError from
    # the vertex build, ZeroDivisionError once squared lengths underflowed to 0,
    # and OverflowError from the squared cutoff.
    pytest.param(["dist", "--lattice", "1e200 0 0 1e-50", "--p1", "0 0", "--p2", "0.5 0"],
                 "error: column 1 has largest |entry| 1e+200, outside the supported scale",
                 id="column-1e200"),
    pytest.param(["reduce", "--lattice", "1e-200 0 0 0 1e-200 0 0 0 1e250"],
                 "error: column 3 has largest |entry| 1e+250, outside the supported scale",
                 id="column-1e250"),
    pytest.param(["neighbors", "--lattice", "0.5e154 0 0 0.5e154", "--points", "{pts}",
                  "--cutoff", "1e155"],
                 "error: column 1 has largest |entry| 5e+153, outside the supported scale",
                 id="half-square-1e154"),
])
def test_determinant_out_of_range_is_a_domain_error(capsys, tmp_path, argv, message):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0.5 0.5\n")
    assert run([a.replace("{pts}", str(pts)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cmd", ["reduce", "voronoi", "dist", "neighbors"])
def test_elongated_cell_past_exact_rounding_is_a_domain_error(capsys, tmp_path, cmd):
    """A valid cell whose reduction needs a rounding coefficient past 2**53
    exits 1; it once ended in an OverflowError traceback."""
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0 0\n0.5 0.5 0.5\n")
    extra = {"dist": ["--p1", "0 0 0", "--p2", "0.5 0.5 0.5"],
             "neighbors": ["--points", str(pts), "--cutoff", "1"]}.get(cmd, [])
    assert run([cmd, "--cell-params", "1 1.1 1e30 95 95 95", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("lattice, points, cutoff", [
    # About 8e12 images, 175 TiB of integer coordinates.
    pytest.param("identity3", "0 0 0\n0.5 0.5 0.5\n", "1e4", id="identity3-1e4"),
    # The layer count overflows float64; it once raised OverflowError.
    pytest.param("0.5 0 0 0.5", "0 0\n0.5 0.5\n", "1e308", id="half-square-1e308"),
])
def test_neighbors_cutoff_over_the_image_limit_is_usage_error(capsys, tmp_path, lattice,
                                                              points, cutoff):
    pts = tmp_path / "pts.txt"
    pts.write_text(points)
    argv = ["neighbors", "--lattice", lattice, "--points", str(pts), "--cutoff", cutoff]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "lattice images" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("p1", ["1e19 1e19", "1e300 0"])
def test_huge_coordinates_are_usage_errors(capsys, p1):
    assert run(["dist", "--lattice", "identity2", "--p1", p1, "--p2", "0 0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2**53" in captured.err


# --- parsing: a command builds only its own parser ---------------------------

HEX = "1 0 -0.5 0.8660254037844386"


def full_parser_run(argv):
    """``run`` as it was when every argv went through ``build_parser()``;
    the reference the per-command parser must match byte for byte."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    _, inputs, handler = cli.COMMANDS[args.command]
    try:
        out, verifier = handler(cli._resolve(args, inputs))
        cli._print(out)
        return cli._report(verifier) if getattr(args, "verify", False) else 0
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


VALID = [
    ["reduce", "--lattice", "identity2", "--verify"],
    ["relevant", "--lattice", HEX],
    ["voronoi", "--cell-params", "2 3 4 80 95 100"],
    ["copies", "--cell", SKEW, "--lattice", "identity2", "--verify"],
    ["cells", "--lattice", HEX],
    ["check-cell", "--cell", SKEW, "--lattice", "identity2"],
    ["dist", "--lattice", "identity2", "--p1", "0.1 0.1", "--p2", "0.9 0.1"],
    ["matrix", "--lattice", SKEW, "--points", "pts.txt", "--format", "csv"],
    ["neighbors", "--lattice", "identity2", "--points", "pts.txt", "--cutoff", "0.8"],
    ["render", "--lattice", "identity2", "--cell", SKEW, "--out", "fig.svg"],
]

# Every argv that starts with a command name, argparse's own exits included.
KNOWN_COMMAND = [
    *VALID,
    *[[cmd, "--help"] for cmd in cli.COMMANDS],
    ["dist", "--lattice", "identity2", "--p1", "0 0"],
    ["copies", "--lattice", "identity2"],
    ["matrix", "--lattice", "identity2", "--points", "pts.txt", "--format", "xml"],
    ["neighbors", "--lattice", "identity2", "--points", "pts.txt", "--cutoff", "x"],
    ["reduce", "--lat", "identity2"],
    ["reduce", "--lattice=identity2", "-h"],
    ["reduce", "extra", "--help"],
    ["reduce", "--lattice", "1 2 3"],
]

# Every argv the full parser reads: its only parse, or the report of
# arguments the command's parser left over.
FULL_PARSER = [
    [],
    ["no-such-command"],
    ["Reduce", "--lattice", "identity2"],
    ["--help"],
    ["-h"],
    ["--help", "dist"],
    ["--", "reduce", "--lattice", "identity2"],
    ["reduce", "--lattice", "identity2", "extra"],
    ["dist", "dist", "--lattice", "identity2", "--p1", "0 0", "--p2", "0.5 0"],
    ["reduce", "--lattice", "identity2", "--bogus", "1", "more"],
    ["reduce", "--lattice", "identity2", "--", "x"],
]


@pytest.fixture
def cli_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "pts.txt").write_text("0.1 0.1\n0.7 0.3\n0.45 0.9\n")
    return tmp_path


@pytest.mark.parametrize("argv", KNOWN_COMMAND + FULL_PARSER, ids=" ".join)
def test_per_command_parser_matches_the_full_parser(capsys, cli_dir, argv):
    want = (full_parser_run(list(argv)), capsys.readouterr())
    got = (run(list(argv)), capsys.readouterr())
    assert got == want


def test_a_known_command_never_builds_the_full_parser(capsys, cli_dir, monkeypatch):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or full())
    for argv in KNOWN_COMMAND:
        run(list(argv))
        assert built == [], argv
    for argv in FULL_PARSER:
        run(list(argv))
        assert built == [1], argv
        built.clear()
    capsys.readouterr()


# --- number tables: 12 significant digits, one format call per row ---------

def _edge_values():
    below = lambda x: np.nextafter(x, 0.0)  # noqa: E731
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e12, below(1e12), 999999999999.5,
             999999999999.4, 1e-5, below(1e-5), 9.9999999999995e-6, 1e-4, below(1e-4),
             1e16, below(1e16), np.inf, -np.inf, np.nan, -np.nan]
    return np.array(edges + [-x for x in edges])


def _planted_values():
    """The edge values and three that "%.12g" rounds to an integer."""
    return np.concatenate([_edge_values(), [1 + 4e-12, 2 - 4e-12, 1e10 + 0.04]])


def first_difference(got: str, want: str):
    """None when the texts are equal, else where they first differ; keeps
    a failure's report short."""
    k = len(os.path.commonprefix([got, want]))
    return None if got == want else (k, got[k:k + 80], want[k:k + 80])


def test_table_rows_print_twelve_significant_digits(monkeypatch):
    """The table writers against the per-value rule on a million seeded
    float64 bit patterns (NaN and inf among them) and the values where the
    notation or the rounding switches."""
    rng = np.random.default_rng(18)
    width = 1000
    edges = _edge_values()
    bits = np.frombuffer(rng.bytes(8 * (width * 1001 - len(edges))), dtype=np.float64)
    mat = np.concatenate([edges, bits]).reshape(-1, width)
    assert mat.size - len(edges) >= 10**6
    # A distance matrix: an exact +0.0 diagonal and plain decimals, with one
    # planted value off the diagonal in each of the first rows.  Every row
    # of random bit patterns holds a value that takes the per-value path;
    # here the last rows take the direct one.  With a -0.0 diagonal, no
    # row does.
    planted = _planted_values()
    n = len(planted) + 12
    square = rng.uniform(0.01, 100.0, (n, n))
    np.fill_diagonal(square, 0.0)
    k = np.arange(len(planted))
    square[k, (k + rng.integers(1, n, len(k))) % n] = planted
    negative_zero = square.copy()
    np.fill_diagonal(negative_zero, -0.0)

    def matrix(fmt, table):
        monkeypatch.setattr(cli, "pairwise_distances", lambda ps: table)
        return cli._matrix(SimpleNamespace(points=SimpleNamespace(labels=None), format=fmt))[0]

    for table in (mat, square, negative_zero):
        rows = table.tolist()
        assert first_difference(matrix("csv", table), "\n".join(
            ",".join(f"{v:.12g}" for v in row) for row in rows)) is None
        assert first_difference(matrix("json", table), json.dumps({
            "labels": None,
            "distances": [[float(f"{v:.12g}") for v in row] for row in rows]})) is None
    assert matrix("csv", edges.reshape(-1, 1)).split("\n") == [f"{v:.12g}" for v in edges]
    assert json.dumps([cli._sig12(v) for v in edges]) == json.dumps(
        [float(f"{v:.12g}") for v in edges.tolist()])


def test_neighbor_rows_print_twelve_significant_digits(monkeypatch):
    """The neighbor list's JSON against the per-value rule: plain decimals
    alone, with one value planted among them as in the table test above,
    and with the edge values and 100,000 seeded bit patterns."""
    rng = np.random.default_rng(19)
    plain = rng.uniform(0.01, 100.0, 200)
    planted = _planted_values()
    lists = [plain, *[np.insert(plain, rng.integers(201), v) for v in planted],
             np.concatenate([planted, plain,
                             np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64)])]
    for d in lists:
        i = rng.integers(0, 50, len(d))
        j = i + rng.integers(0, 50, len(d))
        images = rng.integers(-3, 4, (len(d), 3))
        monkeypatch.setattr(cli, "neighbor_arrays", lambda ps, cutoff: (i, j, images, d))
        out = cli._neighbors(SimpleNamespace(points=None, lattice=SimpleNamespace(dim=3),
                                             cutoff=0.75, format="json"))[0]
        assert first_difference(out, json.dumps({
            "cutoff": 0.75,
            "count": len(d),
            "neighbors": [{"i": a, "j": b, "image": img, "distance": float(f"{v:.12g}")}
                          for a, b, img, v in zip(i.tolist(), j.tolist(), images.tolist(),
                                                  d.tolist())]})) is None
