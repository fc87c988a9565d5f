"""Smoke runs of the example scripts, which use only the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("copy_count_sweep.py", ["--max-shear", "2"]),
    ("domain_census.py", ["--samples", "5"]),
    ("render_gallery.py", ["--out-dir", None]),
    ("output_digest.py", ["--shrink", "100"]),
    ("type_sweep.py", ["--per-case", "1"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [str(tmp_path) if a is None else a for a in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script == "render_gallery.py":
        assert all(p.stat().st_size > 0 for p in tmp_path.glob("*.svg"))
        assert len(list(tmp_path.glob("*.svg"))) == 3
    if script == "output_digest.py":
        head, *digests = proc.stdout.splitlines()
        assert head.startswith("18 bases, seed 0, neighbor cutoffs 1/2.5 x |det|^(1/n)")
        assert len(digests) >= 13 and all(len(line.split()[1]) == 64 for line in digests)
        assert {"neighbors_within@1", "neighbors_within@2.5"} <= {
            line.split()[0] for line in digests}
    if script == "type_sweep.py":
        assert proc.stdout.splitlines()[-1] == "0 of 49 draws not ok"
