"""Checks of the benchmark itself: its metric tables, its tracer and its
oracle gate.  Run with ``python -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minimage
from minimage import cells, cli, distance

import gate as oracle_gate
import inputs
import reference
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def bench(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return last_json(capsys.readouterr().out)


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()}


def test_tail_is_the_eleventh_largest_sample_per_block():
    assert run.tail(list(range(200))) == (189, 95.0, 1)
    assert run.tail([3.0, 1.0, 2.0] * 5) == (3.0, 100.0, 1)
    # Five blocks of 400; a slow burst in one block does not set the tail.
    lat = [1.0] * 2000
    lat[:30] = [50.0] * 30
    assert run.tail(lat) == (1.0, 100.0 * 390 / 400, 5)


def test_reference_runs_follow_each_operation():
    ref = reference.Reference()
    ref.follow(0.0)
    assert ref.runs == 0
    ref.follow(0.05)
    assert ref.seconds >= reference.SHARE * 0.05
    assert ref.take() > 0.0
    assert (ref.runs, ref.seconds) == (0, 0.0)
    # A phase's latencies in reference runs divide by its own cycle's run.
    phase = run.Phase()
    phase.seconds.extend([0.2, 0.3])
    phase.cycle_of.extend([0, 1])
    phase.ref.extend([0.1, 0.3])
    assert phase.in_ref() == pytest.approx([2.0, 1.0])


def test_nested_call_counts_at_the_seed():
    """The seed's repeated per-lattice work, as the traced run reports it."""
    rng = np.random.default_rng(0)
    b = minimage.validate_basis(inputs.cond_matrix(rng, 3, 10.0))
    tracer = spans.Tracer()
    with tracer.installed():
        distance.min_image_distance(b, rng.random(3), rng.random(3))
        cells.check_cell(b, b)
    got = tracer.summary(ops=2)
    assert got["distance.min_image_distance.reduce_calls"] == 2
    assert got["distance.min_image_distance.voronoi_cell_calls"] == 1
    assert got["cells.check_cell.reduce_calls"] == 5
    assert got["cells.check_cell.voronoi_cell_calls"] == 2
    assert got["cells.check_cell.relevant_vectors_calls"] == 3
    # Self times partition the time of the outermost spans.
    roots = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent == -1)
    selfs = sum(got[f"{q}.self_ms"] for q in spans.TRACED) * 2 / 1e3
    assert selfs == pytest.approx(roots, rel=1e-9)
    # The wrappers are gone again.
    assert distance.min_image_distance is spans.resolve("distance.min_image_distance")
    assert cli.min_image_distance is distance.min_image_distance


def test_exact_matrix_agrees_with_brute_force():
    rng = np.random.default_rng(1)
    b = minimage.validate_basis(inputs.skewed_matrix(rng, 3, 1e2))
    pts = rng.random((12, 3))
    exact = oracle_gate.exact_matrix(b, pts, bound=5.0)
    for i in range(12):
        for j in range(i + 1, 12):
            d = exact[i, j]
            ref = minimage.oracle.brute_distance(b, pts[i], pts[j],
                                                  oracle_gate.certified_layers(b, d))
            assert d == pytest.approx(ref.distance, rel=1e-12)


@pytest.mark.parametrize("workload", ["stream", "bulk", "cli"])
def test_a_wrong_kernel_is_reported_as_failures(capsys, workload):
    """Perturb one value of every result; the gate must count failures."""
    pairwise = distance.pairwise_distances
    single = distance.min_image_distance

    def wrong_pairwise(ps):
        out = pairwise(ps)
        out[0, 1] = out[1, 0] = out[0, 1] * (1.0 + 1e-9)
        return out

    def wrong_single(b, p1, p2):
        res = single(b, p1, p2)
        return distance.DistanceResult(res.distance * (1.0 + 1e-9), res.image)

    with spans.rebound({pairwise: wrong_pairwise, single: wrong_single}):
        result = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.1")
    assert result["failed"] > 0
    assert not result["correct"]


def test_clean_runs_pass_the_gate(capsys):
    result = bench(capsys, "--workload", "geometry", "--seed", "3", "--seconds", "0.1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    result = bench(capsys, "--workload", "stream", "--seed", "3", "--seconds", "0.1",
                   "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
