"""Stdout bytes and exit codes of every subcommand, against a recording.

``cli_golden.json`` holds, for each case below, the exit code, the stdout
text and the SHA-256 of every file the command wrote.  The cases run in a
temporary directory holding ``FILES``, with relative paths, so the output
does not depend on where the tests run.  Help output is formatted for an
80-column terminal.

To record the file again (only when an output change is intended), run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cli_golden.json")

HEX = "1 0 -0.5 0.8660254037844386"
SKEW = "1 0 -5 1"
TILTED = "1 0 10.3 1"
TRICLINIC = "2 3 4 80 95 100"
SKEW_3D = "1 0 0 0.4 1.1 0 -0.3 0.2 0.9"

FILES = {
    "lat2.json": json.dumps({"dim": 2, "columns": [[1.0, 0.0], [-5.0, 1.0]]}),
    "cell3.json": json.dumps({"cell": [1, 1.1, 1.2, 100, 95, 98]}),
    "pts2.txt": "0.1 0.1\n0.7 0.3\n0.45 0.9\n",
    "pts2.json": json.dumps({"frac": [[0.0, 0.0], [0.5, 0.5], [0.25, 0.8]],
                             "labels": ["a", "b", "c"]}),
    "pts3.json": json.dumps({"frac": [[0.1, 0.2, 0.3], [0.9, 0.8, 0.1],
                                      [0.5, 0.05, 0.6], [0.33, 0.66, 0.99]]}),
    "bad.json": json.dumps({"frac": [[0.1, 0.1], ["NaN", 0.3]]}),
    # On the lattice 2 I: a repeated point and points at integer distances
    # (0, 1 and, across a cell, 2) beside rows of plain decimals.
    "ints2.json": json.dumps({"frac": [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5],
                                       [0.25, 0.25], [0.1, 0.3], [0.9, 0.65]],
                              "labels": ["o", "x", "x again", "y", "q", "r", "s"]}),
}

CASES = [
    ["--help"],
    *[[cmd, "--help"] for cmd in ("reduce", "relevant", "voronoi", "copies", "cells",
                                  "check-cell", "dist", "matrix", "neighbors", "render")],
    ["reduce", "--lattice", TILTED],
    ["reduce", "--lattice", "identity3", "--verify"],
    ["reduce", "--lattice-file", "lat2.json"],
    ["reduce", "--cell-params", TRICLINIC],
    ["relevant", "--lattice", HEX, "--verify"],
    ["relevant", "--lattice", TILTED],
    ["relevant", "--cell-params", TRICLINIC],
    ["voronoi", "--lattice", "identity2", "--verify"],
    ["voronoi", "--lattice", HEX],
    ["voronoi", "--lattice-file", "cell3.json"],
    ["copies", "--cell", SKEW, "--lattice", "identity2", "--verify"],
    ["copies", "--cell-file", "lat2.json", "--lattice", "identity2"],
    ["copies", "--cell", SKEW, "--lattice-file", "lat2.json"],
    ["cells", "--cell-params", "1 1.1 1.2 100 95 98"],
    ["cells", "--lattice", HEX, "--verify"],
    ["check-cell", "--cell", SKEW, "--lattice", "identity2", "--verify"],
    ["check-cell", "--cell-file", "lat2.json", "--lattice", SKEW],
    ["dist", "--lattice", "identity2", "--p1", "0.1 0.1", "--p2", "0.9 0.1"],
    ["dist", "--lattice", SKEW, "--p1", "0 0", "--p2", "0.5 0.5", "--verify"],
    ["dist", "--cell-params", TRICLINIC, "--p1", "0.1 0.2 0.3", "--p2", "0.9 0.8 0.7"],
    ["dist", "--lattice", SKEW_3D, "--p1", "-1.25 3.5 0", "--p2", "0.5 0.5 0.5"],
    ["dist", "--lattice-file", "cell3.json", "--p1", "0 0 0", "--p2", "0.5 0.5 0.5"],
    ["matrix", "--lattice", SKEW, "--points", "pts2.txt"],
    ["matrix", "--lattice", SKEW, "--points", "pts2.txt", "--format", "csv"],
    ["matrix", "--lattice", HEX, "--points", "pts2.json", "--verify"],
    ["matrix", "--cell-params", TRICLINIC, "--points", "pts3.json", "--format", "csv"],
    ["neighbors", "--lattice", "identity2", "--points", "pts2.txt", "--cutoff", "0.8"],
    ["neighbors", "--lattice", "identity2", "--points", "pts2.txt", "--cutoff", "0.8",
     "--format", "csv"],
    ["neighbors", "--lattice", SKEW_3D, "--points", "pts3.json", "--cutoff", "0.7",
     "--verify"],
    ["neighbors", "--lattice-file", "lat2.json", "--points", "pts2.json", "--cutoff",
     "0.6", "--format", "csv"],
    ["render", "--lattice", "identity2", "--cell", SKEW, "--out", "fig.svg"],
    ["render", "--lattice", HEX, "--out", "hex.svg"],
    # Domain errors: exit 1.
    ["reduce", "--lattice", "1 0 2 0"],
    ["render", "--lattice", "identity3", "--out", "x.svg"],
    ["copies", "--cell", "2 0 0 1", "--lattice", "identity2"],
    # Usage errors: exit 2.
    ["dist", "--lattice", "identity2", "--p1", "0 0"],
    ["no-such-command"],
    ["reduce", "--lattice", "1 2 3"],
    ["matrix", "--lattice", "identity2", "--points", "bad.json"],
    ["neighbors", "--lattice", "identity2", "--points", "pts2.txt", "--cutoff", "-1"],
    ["copies", "--lattice", "identity2"],
    # Number tables on both sides of the notation switch: %.12g writes an
    # exponent from 1e12 up, repr (which JSON uses) only from 1e16 up; both
    # write one below 1e-4.
    *[[cmd, "--lattice", lat, "--points", "pts2.txt", *cut, "--format", fmt]
      for lat, cutoff in (("1e13 0 0 1e13", "8e12"), ("1e-6 0 0 1e-6", "8e-7"))
      for cmd, cut in (("matrix", ()), ("neighbors", ("--cutoff", cutoff)))
      for fmt in ("json", "csv")],
    # JSON rows where "%.12g" drops the ".0" of an integral distance.
    ["matrix", "--lattice", "2 0 0 2", "--points", "ints2.json"],
    ["neighbors", "--lattice", "2 0 0 2", "--points", "ints2.json", "--cutoff", "2.5"],
]


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one case in ``workdir`` and return its code, stdout and written files."""
    from minimage.cli import run

    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    before = set(os.listdir(workdir))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    written = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
               for name in sorted(set(os.listdir(workdir)) - before)}
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "files": written}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


def test_golden_covers_every_case():
    assert [c["argv"] for c in json.loads(GOLDEN.read_text())] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_stdout_and_exit_code_match_recording(workdir, index):
    want = json.loads(GOLDEN.read_text())[index]
    assert run_case(CASES[index], workdir) == want


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    records = []
    for argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                records.append(run_case(argv, Path(tmp)))
            finally:
                os.chdir(cwd)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
