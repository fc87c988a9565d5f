"""The four closed-loop workloads, one caller each.

A workload builds its inputs from the seed, hands out one cycle of
operations at a time (inputs for a cycle are made before it is timed), and
re-checks a seeded subsample of what it produced against the oracle.  Cycles
always run whole, so every run times the same mix of operation kinds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from minimage import cells, cli, copies, distance, reduction, voronoi

import gate as oracle_gate
import inputs
from inputs import COND_LEVELS


@dataclass
class Op:
    kind: str
    units: float
    call: Callable[[], Any]
    args: tuple = ()


@dataclass
class Done:
    op: Op
    seconds: float
    out: Any
    error: str | None = None
    cycle: int = 0
    fp: bytes | None = None
    problems: list[str] = field(default_factory=list)


class Keeper:
    """Holds a uniform sample of ``k`` outputs per operation kind for the
    oracle gate (reservoir sampling) and drops the rest, so memory stays
    flat however many operations run."""

    def __init__(self, k: int, rng: np.random.Generator):
        self.k = k
        self.rng = rng
        self.seen: dict[str, int] = {}
        self.slots: dict[str, list[Done]] = {}

    def offer(self, d: Done) -> None:
        i = self.seen.get(d.op.kind, 0)
        self.seen[d.op.kind] = i + 1
        slots = self.slots.setdefault(d.op.kind, [])
        if i < self.k:
            slots.append(d)
            return
        j = int(self.rng.integers(0, i + 1))
        if j < self.k:
            slots[j].out = None
            slots[j] = d
        else:
            d.out = None

    def kept(self) -> list[Done]:
        return [d for kind in sorted(self.slots) for d in self.slots[kind]]


class Workload:
    unit = ""
    # Outputs kept for the oracle gate per operation kind.
    keep = 2

    def __init__(self, seed: int, clock: inputs.ValidateClock, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.clock = clock
        self.workdir = workdir

    def prepare(self) -> None:
        """Build the seeded inputs and run one untimed warm-up pass."""

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def check(self, kept: list[Done], rng: np.random.Generator,
              gate: oracle_gate.Gate) -> None:
        """Oracle-check the kept outputs; append problems to each Done."""
        raise NotImplementedError

    def inspect(self, d: Done) -> None:
        """Checks every operation needs, made right after it ran."""

    def fingerprint(self, out) -> bytes:
        """Bytes that change whenever the output does."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _sample(items: list, rng, k: int) -> list:
    if len(items) <= k:
        return list(items)
    return [items[i] for i in sorted(rng.choice(len(items), size=k, replace=False))]


class Stream(Workload):
    """Single-pair queries over a fixed pool of prepared lattices."""

    unit = "pairs"
    # Lattices per dimension and conditioning level; in 3D half are given
    # as column matrices and half through cell_params_to_basis.
    per_level = 8
    keep = 24

    def prepare(self):
        rng, clock = self.rng, self.clock
        self.pool = []
        for level in COND_LEVELS:
            for _ in range(self.per_level):
                self.pool.append(clock.validate(
                    inputs.cond_matrix(rng, 2, inputs.cond_value(rng, level))))
        for level in COND_LEVELS:
            for _ in range(self.per_level // 2):
                self.pool.append(clock.validate(
                    inputs.cond_matrix(rng, 3, inputs.cond_value(rng, level))))
                self.pool.append(clock.from_params(
                    inputs.cell_params(rng, inputs.cond_value(rng, level), clock)))
        for b in self.pool:
            distance.min_image_distance(b, np.zeros(b.dim), np.full(b.dim, 0.5))

    def cycle(self):
        # One query per 2D lattice and two per 3D lattice.  Both the median
        # and the tail are then 3D queries, whose cost hardly depends on the
        # conditioning level; 2D queries cost 1.3 ms at 1e2-1e3 and 0.8 ms
        # below, a gap a median among them would jump across.
        twod = [b for b in self.pool if b.dim == 2]
        threed = [b for b in self.pool if b.dim == 3]
        return [self._query(b) for b in threed + twod + threed]

    def _query(self, b):
        p1, p2 = self.rng.random(b.dim), self.rng.random(b.dim)
        return Op(f"{b.dim}d", 1, lambda: distance.min_image_distance(b, p1, p2),
                  (b, p1, p2))

    def check(self, kept, rng, gate):
        for d in kept:
            if d.error is None:
                b, p1, p2 = d.op.args
                if not oracle_gate.check_distance(gate, b, p1, p2, d.out,
                                                  f"{d.op.kind} query"):
                    d.problems.append("distance differs from the oracle")

    def fingerprint(self, out):
        return f"{out.distance!r}{out.image.coeffs}".encode()


class Bulk(Workload):
    """Pairwise matrices and cutoff neighbor lists on skewed 3D bases."""

    unit = "pairs"
    n_matrix = 800
    n_neighbors = 200
    # At unit covolume, N = 200 points and this cutoff give about 1e5 hits.
    cutoff = 1.06

    def prepare(self):
        rng, clock = self.rng, self.clock
        self.lattices = [clock.validate(inputs.skewed_matrix(rng, 3, cond))
                         for cond in (1e2, 1e3)]
        for b in self.lattices:
            small = distance.PeriodicPointSet(b, inputs.points(rng, 20, 3))
            distance.pairwise_distances(small)
            distance.neighbors_within(small, self.cutoff)

    def cycle(self):
        # Two matrices and one neighbor list: the median is a matrix call.
        ops = []
        for b in self.lattices:
            ps = distance.PeriodicPointSet(b, inputs.points(self.rng, self.n_matrix, 3))
            n = self.n_matrix
            ops.append(Op("pairwise", n * (n - 1) // 2,
                          lambda ps=ps: distance.pairwise_distances(ps), (ps,)))
        ps = distance.PeriodicPointSet(self.lattices[-1],
                                       inputs.points(self.rng, self.n_neighbors, 3))
        n = self.n_neighbors
        ops.append(Op("neighbors", n * (n + 1) // 2,
                      lambda: distance.neighbors_within(ps, self.cutoff), (ps,)))
        return ops

    def check(self, kept, rng, gate):
        for k, d in enumerate(d for d in kept if d.error is None):
            ps = d.op.args[0]
            if d.op.kind == "pairwise":
                good = oracle_gate.check_matrix(gate, ps.basis, ps.points, d.out, rng, 4,
                                                f"pairwise call {k}")
            else:
                good = oracle_gate.check_neighbors(gate, ps.basis, ps.points, self.cutoff,
                                                   d.out, rng, 6, f"neighbors call {k}")
            if not good:
                d.problems.append(f"{d.op.kind} result differs from the oracle")

    def fingerprint(self, out):
        if isinstance(out, np.ndarray):
            data = np.ascontiguousarray(out).tobytes()
        else:
            data = np.array([(i, j, *img.coeffs, d) for i, j, img, d in out]).tobytes()
        return hashlib.sha256(data).digest()


def geometry_pass(b):
    """Every per-lattice stage, cold, on one lattice."""
    red = reduction.reduce(b)
    rel = voronoi.relevant_vectors(b)
    vc = voronoi.voronoi_cell(b)
    counts = copies.copy_counts(b, b)
    domains = cells.enumerate_ps(b)
    report = cells.check_cell(b, b)
    return red, rel, vc, counts, domains, report


RELEVANT_BOX_MAX = 6


class Geometry(Workload):
    """Fresh lattices, each taken once through every geometry stage."""

    unit = "lattices"
    keep = 12
    deep_checks = 6

    def prepare(self):
        for n in (2, 3):
            geometry_pass(self.clock.validate(inputs.cond_matrix(self.rng, n, 10.0)))

    def cycle(self):
        # Per conditioning level three 3D lattices and one 2D lattice: the
        # median operation sits well inside the 3D passes.
        ops = []
        for level in COND_LEVELS:
            for n in (3, 3, 3, 2):
                b = self.clock.validate(
                    inputs.cond_matrix(self.rng, n, inputs.cond_value(self.rng, level)))
                ops.append(Op(f"{n}d-{level}", 1, lambda b=b: geometry_pass(b), (b,)))
        return ops

    def check(self, kept, rng, gate):
        ok_done = [d for d in kept if d.error is None]
        for k, d in enumerate(ok_done):
            b = d.op.args[0]
            red, rel, vc, counts, domains, report = d.out
            note = f"lattice {k}"
            good = oracle_gate.check_volume(gate, b, vc, note)
            keys = {c.canonical_key for c in domains}
            good = gate.expect(
                report.counts == counts
                and report.sufficient == all(h <= 1.0 + copies.TOL_SNAP for h in counts.h)
                and report.ps_member == (report.coeffs_key in keys),
                f"{note}: check_cell report disagrees with copy_counts/enumerate_ps") and good
            if not good:
                d.problems.append("geometry check failed")
        # brute_relevant is quadratic in the box volume, so the deep checks
        # draw from lattices whose exact box is at most RELEVANT_BOX_MAX
        # (about 95% of the 3D draws; the rest keep the volume check).
        by_kind: dict[str, list[tuple[Done, oracle_gate.Reduced]]] = {}
        for d in ok_done:
            red = oracle_gate.Reduced(d.op.args[0])
            if oracle_gate.relevant_box(red) <= RELEVANT_BOX_MAX:
                by_kind.setdefault(d.op.kind, []).append((d, red))
        deep = []
        for kind in sorted(by_kind):
            deep += _sample(by_kind[kind], rng, 1)
        for d, red in _sample(deep, rng, self.deep_checks):
            b = d.op.args[0]
            _, rel, _, counts, domains, _ = d.out
            note = f"lattice {d.op.kind}"
            good = oracle_gate.check_relevant(gate, red, rel, note)
            good = oracle_gate.check_block(gate, b, b, counts.layers, rng, 2, note) and good
            for c in _sample(domains, rng, 2):
                good = oracle_gate.check_block(gate, c.basis, b, (1,) * b.dim, rng, 2,
                                               f"{note} domain {c.canonical_key}") and good
            if not good:
                d.problems.append("geometry differs from the oracle")

    def fingerprint(self, out):
        red, rel, vc, counts, domains, report = out
        h = hashlib.sha256()
        h.update(red.basis.matrix.tobytes())
        h.update(np.asarray(red.transform).tobytes())
        h.update(repr(sorted(rel.coeff_set())).encode())
        h.update(vc.vertices.tobytes())
        h.update(repr(vc.volume).encode())
        h.update(repr(counts).encode())
        h.update(repr([c.canonical_key for c in domains]).encode())
        h.update(repr((report.sufficient, report.counts, report.ps_member,
                       report.cell_reduced, report.coeffs_key)).encode())
        return h.digest()


@dataclass
class CliOutput:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliOutput(code, out.getvalue())


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


class Cli(Workload):
    """In-process ``minimage.cli.run`` commands with captured stdout."""

    unit = "commands"
    n_matrix = 200
    n_neighbors = 100
    cutoff = 0.5

    def __init__(self, seed, clock, workdir):
        super().__init__(seed, clock, workdir)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self._files = 0
        self.output_bytes: list[int] = []

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def prepare(self):
        for op in self.cycle():
            op.call()

    def _points_file(self, pts) -> str:
        self._files += 1
        path = self.tmp / f"points-{self._files}.json"
        path.write_text(json.dumps({"frac": pts.tolist()}), encoding="utf-8")
        return str(path)

    def _lattice(self, n, level, skewed=False):
        if skewed:
            m = inputs.skewed_matrix(self.rng, n, float(level))
        else:
            m = inputs.cond_matrix(self.rng, n, inputs.cond_value(self.rng, level))
        return self.clock.validate(m), ["--lattice", inputs.inline_matrix(m)]

    def _op(self, kind, argv, lib):
        return Op(kind, 1, lambda: run_cli(argv), (argv, lib))

    def cycle(self):
        # Six 3D and nine 2D `dist` commands plus five heavier ones: the
        # median is one of the cheaper 3D `dist` commands, away from the gap
        # between 2D and 3D, and the tail a matrix or neighbor listing.
        rng = self.rng
        ops = []
        for level in COND_LEVELS:
            b, flag = self._lattice(3, level)
            p1, p2 = rng.random(3), rng.random(3)
            ops.append(self._op("dist", ["dist", *flag, "--p1", inputs.inline_values(p1),
                                         "--p2", inputs.inline_values(p2)], (b, p1, p2)))
            params = inputs.cell_params(rng, inputs.cond_value(rng, level), self.clock)
            b = self.clock.from_params(params)
            p1, p2 = rng.random(3), rng.random(3)
            ops.append(self._op("dist", ["dist", "--cell-params", inputs.inline_values(params),
                                         "--p1", inputs.inline_values(p1),
                                         "--p2", inputs.inline_values(p2)], (b, p1, p2)))
        for level in COND_LEVELS * 3:
            b, flag = self._lattice(2, level)
            p1, p2 = rng.random(2), rng.random(2)
            ops.append(self._op("dist", ["dist", *flag, "--p1", inputs.inline_values(p1),
                                         "--p2", inputs.inline_values(p2)], (b, p1, p2)))
        params = inputs.cell_params(rng, 1e2, self.clock)
        ops.append(self._op("cells", ["cells", "--cell-params", inputs.inline_values(params)],
                            (self.clock.from_params(params),)))
        b, flag = self._lattice(3, "1e2")
        ops.append(self._op("check-cell", ["check-cell", *flag, "--cell", flag[1]], (b,)))
        # Matrix and neighbor commands take skewed bases of a fixed isotropic
        # lattice, as in the bulk workload, so their search block (and with
        # it the kernel's temporary memory) does not depend on the seed.
        for fmt in ("json", "csv"):
            b, flag = self._lattice(3, "1e2", skewed=True)
            pts = inputs.points(rng, self.n_matrix, 3)
            ops.append(self._op(f"matrix-{fmt}", ["matrix", *flag, "--points",
                                                  self._points_file(pts), "--format", fmt],
                                (b, pts)))
        b, flag = self._lattice(3, "1e2", skewed=True)
        pts = inputs.points(rng, self.n_neighbors, 3)
        ops.append(self._op("neighbors", ["neighbors", *flag, "--points",
                                          self._points_file(pts), "--cutoff",
                                          repr(self.cutoff)], (b, pts)))
        return ops

    def fingerprint(self, out):
        return f"{out.code}:{out.stdout}".encode()

    def inspect(self, d):
        if d.error is None:
            self.output_bytes.append(len(d.out.stdout.encode()))
            if d.out.code != 0 or not d.out.stdout:
                d.problems.append(f"exit code {d.out.code}, {len(d.out.stdout)} bytes")

    def check(self, kept, rng, gate):
        for d in kept:
            if d.error is None and not d.problems:
                problem = self._check_one(d, rng, gate)
                if problem:
                    d.problems.append(problem)

    def _check_one(self, d, rng, gate) -> str | None:
        """Compare parsed output with the library result of the same
        command, and check that result against the oracle."""
        argv, lib = d.op.args
        kind, text = d.op.kind, d.out.stdout
        if kind == "dist":
            b, p1, p2 = lib
            res = distance.min_image_distance(b, p1, p2)
            out = json.loads(text)
            same = out == {"distance": _sig12(res.distance), "image": list(res.image.coeffs)}
            good = oracle_gate.check_distance(gate, b, p1, p2, res, "cli dist")
        elif kind.startswith("matrix"):
            b, pts = lib
            ps = distance.PeriodicPointSet(b, pts)
            mat = distance.pairwise_distances(ps)
            want = [[_sig12(v) for v in row] for row in mat]
            if kind == "matrix-json":
                got = json.loads(text)["distances"]
            else:
                got = [[float(v) for v in row] for row in csv.reader(io.StringIO(text))]
            same = got == want
            good = oracle_gate.check_matrix(gate, b, ps.points, mat, rng, 4, f"cli {kind}")
        elif kind == "neighbors":
            b, pts = lib
            ps = distance.PeriodicPointSet(b, pts)
            hits = distance.neighbors_within(ps, self.cutoff)
            want = [{"i": i, "j": j, "image": list(img.coeffs), "distance": _sig12(dd)}
                    for i, j, img, dd in hits]
            out = json.loads(text)
            same = out["count"] == len(hits) and out["neighbors"] == want
            good = oracle_gate.check_neighbors(gate, b, ps.points, self.cutoff, hits, rng,
                                               6, "cli neighbors")
        elif kind == "cells":
            (b,) = lib
            found = cells.enumerate_ps(b)
            want = [[[int(x) for x in c.coeffs[:, i]] for i in range(b.dim)] for c in found]
            same = [item["coeffs"] for item in json.loads(text)] == want
            good = True
            for c in _sample(found, rng, 2):
                good = oracle_gate.check_block(gate, c.basis, b, (1,) * b.dim, rng, 2,
                                               "cli cells") and good
        else:
            (b,) = lib
            report = cells.check_cell(b, b)
            out = json.loads(text)
            same = (out["sufficient"] == report.sufficient
                    and out["ps_member"] == report.ps_member
                    and out["cell_reduced"] == report.cell_reduced
                    and out["copies"]["layers"] == list(report.counts.layers))
            good = oracle_gate.check_block(gate, b, b, report.counts.layers, rng, 2,
                                           "cli check-cell")
        same = gate.expect(same, f"cli {kind}: output differs from the library result")
        if not same:
            return "output differs from the library result"
        if not good:
            return "library result differs from the oracle"
        return None


WORKLOADS = {"stream": Stream, "bulk": Bulk, "geometry": Geometry, "cli": Cli}
