"""Smoke runs of the scripts.  All but `stage_timings.py`, which also times
the private stages of `reduce` and of the CLI, use only the public API."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# The digests `output_digest.py --shrink 100` prints, frozen: any change to
# an output bit of a public operation on its 18 bases changes one of them.
SHRINK_100_DIGESTS = {
    "reduce": "8a93518973ca1962c0956281d9d29de6d7e7273a391f7e459d813e8c7da73a0b",
    "is_reduced": "9ff33dee74f2b88cd41f5343ba769fd201a343515c808ccb12fe2c480a991d72",
    "relevant_vectors": "7fe26f8d54f193d38512d823fdc43cc218871c5ba18673dcb8044e023f52134e",
    "voronoi_cell": "4e2b45d7caf14d7d07002deb428915d0538047203b48d762e924612593fa7f46",
    "frac_extents": "50082181bfdad93adb37201d8778f6031b902bbd7988031dd8df13efee2d5091",
    "domain_extents": "9a4d4c872f196f86841a10b25f8ed7c0e833223caaf494e7ac3a11ac59adbdfa",
    "copy_counts": "aa73ac6be3a8a45bdace08f1a63a0afadc40e45929848af5367ba24d242dff33",
    "enumerate_ps": "5399d9d8fb1abe51894e0b2764fd9045e1ad25f760a23efaef209656420ac95b",
    "check_cell": "168c88a11ade2942444d742b4e46aab0b6c93bc4966acfc93862b7882b96f3a4",
    "min_image_distance": "5fa010cc44b402381dad2e873fdebfbec59f79d18f0a83451d7108ac0407d07a",
    "pairwise_distances": "7ae8ea8eb098cf84fe5a53ad40a504ed03e58eba62013f3d1b51859337ff3018",
    "neighbors_within@1": "dbc76e248b7c1e951c0f544a15acf4b1393684771dd94e4d2fa38ad98b583c74",
    "neighbors_within@2.5": "e6cd4a277192903c1adcfd6683ed650b382dc879c038254d975d1541eaef1196",
}

# The digests `output_digest.py --seed 0` prints on the full corpus of
# 1,501 bases, frozen: every public operation keeps every output bit on
# every basis.
FULL_CORPUS_DIGESTS = {
    "reduce": "d1241c0143f4d136741058fe091cd0be31afc8508701b903cdf5ca9cdc1e585f",
    "is_reduced": "1c9f993dbda51d65c37cb67f1d11a6df24fecd519f1aa4f4171a2c11259ce3e5",
    "relevant_vectors": "8902b2dd9505f491dade5b61f37be50ed59160feb7bdf64db2c1242797631ce0",
    "voronoi_cell": "2472f56056668671c7c5960dadf007139a60c19bb1c144a106bfd3495e262ef4",
    "frac_extents": "cd9541713a464aa53d847c4d2ddb944f34a3dc688b2aad5dea798eab2f783dc3",
    "domain_extents": "1d31911aa5c1f981d1f8b36054de46499dcd360779b19abf9d395b4af18a40e1",
    "copy_counts": "344ac2056ea39f88a23b5335dab5b43448a1f4adf4b89c83db329c92200d587d",
    "enumerate_ps": "87bc8b56e1c65af9e197bb78a0e8ddf02f24290b4ac189759ddac174e3fe4d3b",
    "check_cell": "638e450139fd5048283bc3bf881cb90a6a30c254c42ce341f01857c6bbe015b1",
    "min_image_distance": "f3f720bddd614eb7fa8865bee7787191c78a028e2a89bb00ad1cf6a8e3588877",
    "pairwise_distances": "2e1c4a7218bf279dd37bb2dd14b499aa45d7726d3dfd47bed9ad66bdc3762178",
    "neighbors_within@1": "94998e80c83435bfb002595f08942c60e50db0f6510dd2075f00385483abc625",
    "neighbors_within@2.5": "67208ee74fba022cd3d5b9bbe50a520d215374eb2c3959a8b9dca3928ef94982",
}

# The digests `cli_digest.py --shrink 10` prints, frozen: any change to the
# exit code, stdout or stderr of one of its 36 commands changes one of them.
CLI_SHRINK_10_DIGESTS = {
    "dist": "c00301407873f52155584e8110fec21829aa487f49376961ecbc8e028be6ce18",
    "cells": "7d2b743159d7d225ea36183f469f0b0e39576756e4cd086cdf6bbf780ae778fa",
    "check-cell": "4a42c93ffb12b24b8645d8fa0c3cf4ed788e9006416789c3476a6be2efa4fc11",
    "matrix-json": "0a9fc28560e816c83e8f2c56d46069fd289a1fdb9c50b4cb8db8e908f1747ccc",
    "matrix-csv": "e557911a9573e74909db79ce10ba077c8e6cc295a36351c5b18cd148d935b94a",
    "neighbors-json": "7c2d873eeafffed119b0d1385b6da6f2137d8deded5e9fc1ddbfb3e427accf14",
    "neighbors-csv": "c8b7b1f7cf0c257b5025a21ab5c7151a2faeedf1f18db833e13f81bb7fe8b52d",
}


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("copy_count_sweep.py", ["--max-shear", "2"]),
    ("domain_census.py", ["--samples", "5"]),
    ("render_gallery.py", ["--out-dir", None]),
    ("output_digest.py", ["--shrink", "100"]),
    ("type_sweep.py", ["--per-case", "1"]),
])
def test_script_runs(tmp_path, script, args):
    proc = run_script(script, *[str(tmp_path) if a is None else a for a in args])
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
        assert dict(line.split() for line in digests) == SHRINK_100_DIGESTS
    if script == "type_sweep.py":
        assert proc.stdout.splitlines()[-1] == "0 of 49 draws not ok"


def test_output_digest_only_prints_the_full_runs_digest():
    proc = run_script("output_digest.py", "--shrink", "100", "--only", "min_image_distance")
    assert proc.returncode == 0, proc.stderr
    head, *digests = proc.stdout.splitlines()
    assert head.startswith("18 bases, seed 0")
    assert digests == [f"{'min_image_distance':20s} {SHRINK_100_DIGESTS['min_image_distance']}"]


def test_full_corpus_digests_are_frozen():
    proc = run_script("output_digest.py", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    head, *digests = proc.stdout.splitlines()
    assert head.startswith("1501 bases, seed 0, ")
    assert dict(line.split() for line in digests) == FULL_CORPUS_DIGESTS


def test_cli_digest_is_frozen():
    proc = run_script("cli_digest.py", "--shrink", "10")
    assert proc.returncode == 0, proc.stderr
    head, *digests = proc.stdout.splitlines()
    assert head == "36 commands, seed 0, 4 cycles"
    assert dict(line.split() for line in digests) == CLI_SHRINK_10_DIGESTS


def test_stage_timings_reports_every_stage_of_both_trees():
    src = str(ROOT / "src")
    proc = run_script("stage_timings.py", "--base", src, "--change", src,
                      "--rounds", "1", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    stages = ["_gauss_columns", "_ranked_config", "unimodular_inverse", "reduce",
              "min_image_distance"]
    geometry = ["geometry_pass", "relevant_vectors", "voronoi_cell", "copy_counts",
                "domain_extents", "enumerate_ps", "check_cell", "pairwise_distances", "render_2d"]
    kinds = ["dist-3d", "dist-2d", "cells", "check-cell", "matrix-json", "matrix-csv",
             "neighbors"]
    cli = ([f"{call}:{kind}" for call in ("run", "_parse") for kind in kinds]
           + ["_matrix:json", "_matrix:csv", "_neighbors:json", "_neighbors:csv"])
    assert sorted(report) == ["2d", "3d", "cli", "cubic", "fcc", "geometry", "skewed_hexagonal"]
    for group, timings in report.items():
        want = stages + (["_selling_shortest_triples"] if group in ("3d", "cubic", "fcc") else [])
        want += ["pairwise_distances:200", "pairwise_distances:800"] if group in ("2d", "fcc") else []
        want += (["neighbor_arrays:cli", "neighbor_arrays:bulk", "neighbor_arrays:sparse"]
                 if group == "fcc" else [])
        want = {"geometry": geometry, "cli": cli}.get(group, want)
        assert sorted(timings) == sorted(want)
        assert all(sorted(t) == ["base", "change", "ratio"] for t in timings.values())
