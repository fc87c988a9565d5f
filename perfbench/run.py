"""minimage benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``stream`` single-pair queries over a pool of
prepared lattices, ``bulk`` pairwise matrices and neighbor lists, ``geometry``
every per-lattice stage on fresh lattices, ``cli`` in-process CLI commands.
All run closed-loop with one caller, on one thread: BLAS thread counts are
pinned to 1 before numpy loads.

The run imports the package from ``src/``, builds its inputs from the seed
and warms up, runs whole cycles of operations until their summed latency
reaches ``--seconds``, reads peak RSS, and re-checks a seeded subsample of
outputs against ``minimage.oracle``.  A failed operation raised, disagreed
with the oracle, or (cli) exited non-zero or printed nothing.  After each
operation, untimed, the run times a few runs of a fixed reference kernel
(reference.py) worth a tenth of the operation's time, so every cycle of
operations has a measure of the host's speed while it ran.

End-to-end metrics:

- ``setup_s``: median wall time of a fresh interpreter importing minimage,
  plus the median of SETUP_ROUNDS in-process rounds of input generation and
  warm-up.
- ``units_per_kref``: units completed (pairs for stream and bulk, lattices
  for geometry, commands for cli) per thousand reference-kernel runs of
  operation time.  Each cycle's operation time is divided by the time one
  reference run took during that cycle.  This is throughput with the shared
  host's speed drift taken out: a faster library raises it, a faster or
  slower host moves operations and reference alike.
- ``peak_rss_mb``: peak resident memory, read before the oracle gate.

The run details also give the plain wall-clock ``units_per_s``,
``op_p50_ms``, the median latency of one operation (one library call, one
geometry pass over a lattice, or one CLI command), and ``op_tail_ms`` (see
``tail``), with their sample counts, and the same two latencies in
reference runs (``op_p50_ref``, ``op_tail_ref``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead times
half the budget untraced, replays the same operations with every traced
public function rebound to a span recorder (spans.py), checks that both
passes give identical outputs and reports the per-layer metrics; the spans
go to ``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
details: environment, sample counts, tail percentile, output digests and
oracle notes.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_ROUNDS = 3
IMPORT_PROBES = 5
# The tail is the highest percentile with at least this many samples beyond
# it, taken per block of consecutive samples and reported as the median over
# up to TAIL_BLOCKS blocks, so one slow second of a shared machine does not
# set it.  Blocks hold at least TAIL_BLOCK_MIN samples, which keeps each
# block's tail at or above the 97th percentile; short runs have a single
# block.  Below TAIL_MIN_SAMPLES that percentile would drop under the 90th,
# so the tail is then the maximum.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 10 * (TAIL_BEYOND + 1)
TAIL_BLOCKS = 5
TAIL_BLOCK_MIN = 400

# name -> (unit, better).  Wall-clock throughput and latencies go to the
# run details instead: on a shared host whose speed swings up to 2x over
# minutes, their spread over runs of the same code reached 0.4, above any
# bound a regression gate can use.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "units_per_kref": ("1/kref", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {}
for _q, _moves in (
    ("reduction.reduce", "stream units_per_kref; geometry units_per_kref"),
    ("reduction.is_reduced", "geometry units_per_kref"),
    ("voronoi.relevant_vectors", "stream units_per_kref; geometry units_per_kref"),
    ("voronoi.voronoi_cell", "stream units_per_kref; geometry units_per_kref"),
    ("voronoi.frac_extents", "stream units_per_kref; geometry units_per_kref"),
    ("copies.copy_counts", "geometry units_per_kref"),
    ("copies.domain_extents", "geometry units_per_kref"),
    ("copies.primitive_coeffs", "geometry units_per_kref"),
    ("distance.min_image_distance", "stream units_per_kref"),
    ("distance.pairwise_distances", "bulk units_per_kref"),
    ("distance.neighbors_within", "bulk units_per_kref"),
    ("cells.enumerate_ps", "geometry units_per_kref"),
    ("cells.check_cell", "geometry units_per_kref"),
    ("cli.run", "cli units_per_kref"),
):
    PER_LAYER[f"{_q}.calls"] = ("calls/op", "lower", _moves)
    PER_LAYER[f"{_q}.self_ms"] = ("ms/op", "lower", _moves)
for _name, _spec in {
    "distance.min_image_distance.reduce_calls": ("calls/call", "lower", "stream units_per_kref"),
    "distance.min_image_distance.voronoi_cell_calls": ("calls/call", "lower",
                                                       "stream units_per_kref"),
    "cells.check_cell.reduce_calls": ("calls/call", "lower", "geometry units_per_kref"),
    "cells.check_cell.voronoi_cell_calls": ("calls/call", "lower", "geometry units_per_kref"),
    "cells.check_cell.relevant_vectors_calls": ("calls/call", "lower", "geometry units_per_kref"),
    "distance.images_per_pair": ("images", "lower", "bulk units_per_kref"),
    "distance.pairwise_ns_per_pair": ("ns", "lower", "bulk units_per_kref"),
    "distance.pairwise_peak_mb": ("MB", "lower", "bulk units_per_kref, peak_rss_mb"),
    "distance.neighbors_hits": ("count", "higher", "bulk units_per_kref"),
    "distance.neighbors_ns_per_hit": ("ns", "lower", "bulk units_per_kref"),
    "core.validate_us": ("us", "lower", "setup_s"),
    "cli.import_ms": ("ms", "lower", "setup_s (reported, not gated)"),
    "cli.output_bytes": ("bytes", "lower", "cli units_per_kref"),
    "oracle.checked": ("count", "higher", "failed (correct)"),
    "oracle.mismatches": ("count", "lower", "failed (correct)"),
    "oracle.check_s": ("s", "lower", "none: runs after the timed phase"),
    "failed_frac": ("fraction", "lower", "failed (correct)"),
    "trace.overhead_frac": ("fraction", "lower", "none: traced run only"),
}.items():
    PER_LAYER[_name] = _spec


def parse_args(argv):
    p = argparse.ArgumentParser(description="minimage benchmark")
    p.add_argument("--workload", required=True,
                   choices=("stream", "bulk", "geometry", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies):
    """(value, percentile, blocks): the median over blocks of each block's
    highest percentile with TAIL_BEYOND samples beyond it (the block maximum
    below TAIL_MIN_SAMPLES samples)."""
    blocks = max(1, min(TAIL_BLOCKS, len(latencies) // TAIL_BLOCK_MIN))
    size = len(latencies) // blocks
    values = []
    for b in range(blocks):
        s = sorted(latencies[b * size:] if b == blocks - 1 else
                   latencies[b * size:(b + 1) * size])
        k = len(s) - TAIL_BEYOND - 1 if len(s) >= TAIL_MIN_SAMPLES else len(s) - 1
        values.append(s[k])
        percentile = 100.0 * (k + 1) / len(s)
    return statistics.median(values), percentile, blocks


def timed(ops):
    from workloads import Done

    done = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # recorded as a failed operation
            done.append(Done(op, time.perf_counter() - t0, None,
                             f"{type(exc).__name__}: {exc}"))
        else:
            done.append(Done(op, time.perf_counter() - t0, out))
    return done


class Phase:
    """Timings of every operation of a timed phase, and the operations it
    holds on to: all of them when they are to be replayed, else only the
    first cycle and the failed ones, so the harness's own memory does not
    grow with the number of operations."""

    def __init__(self):
        self.seconds = array("d")
        self.units = array("d")
        self.cycle_of = array("l")
        # Seconds of one reference run, per cycle.
        self.ref = array("d")
        self.kinds: list[str] = []
        self.cycles = 0
        self.done = []

    def in_ref(self) -> list[float]:
        """Each operation's latency in reference runs of its cycle."""
        return [s / self.ref[c] for s, c in zip(self.seconds, self.cycle_of)]


def closed_loop(wl, budget_s, keeper, keep_all):
    """Whole cycles until the summed operation latency reaches the budget.
    Between operations, untimed: run the reference kernel, fingerprint the
    output, run the workload's per-operation checks and offer the output to
    the keeper, which holds a sample of them for the oracle gate."""
    from reference import Reference

    phase = Phase()
    ref = Reference()
    busy = 0.0
    while busy < budget_s or not phase.seconds:
        for op in wl.cycle():
            (d,) = timed([op])
            ref.follow(d.seconds)
            d.cycle = phase.cycles
            if d.error is None:
                d.fp = wl.fingerprint(d.out)
            wl.inspect(d)
            phase.seconds.append(d.seconds)
            phase.units.append(d.op.units)
            phase.cycle_of.append(d.cycle)
            phase.kinds.append(d.op.kind)
            busy += d.seconds
            if keep_all or d.cycle == 0 or d.error or d.problems:
                phase.done.append(d)
            keeper.offer(d)
        phase.ref.append(ref.take())
        phase.cycles += 1
    return phase


def environment(seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def import_seconds(module):
    """Median wall time of a fresh interpreter that imports ``module``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                       capture_output=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_extras(tracer, wl):
    """Per-layer figures that need the library again, after tracing."""
    import tracemalloc

    from minimage import copies, distance, reduction

    out = {}
    blocks = []
    for b in tracer.lattices.values():
        red = reduction.reduce(b).basis
        blocks.append(copies.copy_counts(red, red).total)
    out["distance.images_per_pair"] = statistics.mean(blocks) if blocks else 0.0
    peak = 0.0
    if tracer.first_pairwise is not None:
        tracemalloc.start()
        try:
            distance.pairwise_distances(tracer.first_pairwise)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    out["distance.pairwise_peak_mb"] = peak
    sizes = tracer.sizes()
    for key, (seconds, count, calls) in sizes.items():
        if key == "distance.pairwise_distances":
            out["distance.pairwise_ns_per_pair"] = 1e9 * seconds / count if count else 0.0
        else:
            out["distance.neighbors_hits"] = count / calls if calls else 0.0
            out["distance.neighbors_ns_per_hit"] = 1e9 * seconds / count if count else 0.0
    nbytes = getattr(wl, "output_bytes", [])
    out["cli.output_bytes"] = statistics.mean(nbytes) if nbytes else 0.0
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "minimage" / "__init__.py").is_file():
        print(f"perfbench: no minimage package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import gate as oracle_gate
    import inputs
    import spans
    from workloads import WORKLOADS, Keeper

    import_s = import_seconds("minimage")
    OUT.mkdir(exist_ok=True)
    clock = inputs.ValidateClock()
    rounds = []
    opened = []
    try:
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, clock, OUT)
            opened.append(wl)
            wl.prepare()
            rounds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(rounds)

        budget = args.seconds if not args.trace else args.seconds / 2
        keeper = Keeper(wl.keep, np.random.default_rng([args.seed, 2]))
        base = closed_loop(wl, budget, keeper, keep_all=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = []
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                for i, d in enumerate(base.done):
                    tracer.op = i
                    traced += timed([d.op])
            for a, b in zip(base.done, traced):
                if b.error is None:
                    if a.error is not None or wl.fingerprint(b.out) != a.fp:
                        b.problems.append("traced output differs from the untraced output")
                    b.out = None

        gate = oracle_gate.Gate()
        t0 = time.perf_counter()
        kept = keeper.kept()
        try:
            wl.check(kept, np.random.default_rng([args.seed, 1]), gate)
        except Exception as exc:  # a gate that cannot finish fails the run
            gate.expect(False, f"oracle gate raised {type(exc).__name__}: {exc}")
            kept[0].problems.append("oracle gate raised")
        check_s = time.perf_counter() - t0

        records = {id(d): d for d in base.done + kept + traced}.values()
        failed = sum(1 for d in records if d.error is not None or d.problems)
        attempted = len(base.seconds) + len(traced)
        latencies = list(base.seconds)
        tail_s, tail_pct, tail_blocks = tail(latencies)
        busy = sum(latencies)
        in_ref = base.in_ref()
        units_per_kref = 1e3 * sum(base.units) / sum(in_ref)
        ref_ms = [1e3 * r for r in base.ref]
        detail = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": environment(args.seed),
            "unit": wl.unit,
            "operations": len(latencies),
            "op_kinds": dict(sorted(collections.Counter(base.kinds).items())),
            "units_per_s": sum(base.units) / busy,
            "units_per_kref": units_per_kref,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "op_p50_ref": statistics.median(in_ref),
            "op_tail_ref": tail(in_ref)[0],
            "ref_run_ms": {"min": min(ref_ms), "median": statistics.median(ref_ms),
                           "max": max(ref_ms)},
            "op_p50_samples": len(latencies),
            "op_tail_percentile": tail_pct,
            "op_tail_blocks": tail_blocks,
            "cycles": base.cycles,
            "setup_rounds_s": rounds,
            "import_s": import_s,
            "failed_frac": failed / attempted,
            "oracle": {"checked": gate.checked, "mismatches": gate.mismatches,
                       "check_s": check_s, "notes": gate.notes},
            "errors": sorted({d.error for d in records if d.error})[:10],
            "problems": sorted({p for d in records for p in d.problems})[:10],
            "first_cycle_digests": [
                [d.op.kind, hashlib.sha256(d.fp).hexdigest()[:16]]
                for d in base.done if d.cycle == 0 and d.error is None],
        }
        if args.trace:
            ops = len(traced)
            metrics = tracer.summary(ops)
            metrics.update(layer_extras(tracer, wl))
            traced_busy = sum(d.seconds for d in traced)
            metrics.update({
                "core.validate_us": 1e6 * statistics.median(clock.samples),
                "cli.import_ms": 1e3 * import_seconds("minimage.cli"),
                "oracle.checked": gate.checked,
                "oracle.mismatches": gate.mismatches,
                "oracle.check_s": check_s,
                "failed_frac": failed / attempted,
                "trace.overhead_frac": traced_busy / busy - 1.0,
            })
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            detail["spans"] = str(spans_path.relative_to(ROOT))
            values = {name: metrics[name] for name in PER_LAYER}
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            values = {
                "setup_s": setup_s,
                "units_per_kref": units_per_kref,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {name: spec[0] for name, spec in END_TO_END.items()}
    finally:
        for w in opened:
            w.close()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
