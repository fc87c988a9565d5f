"""Span tracing for the traced run, installed from the benchmark's own code.

Each traced public function is rebound, in every ``minimage`` module that
holds it (its defining module plus the re-exports in ``minimage`` and
``minimage.cli``), to a wrapper that records one span per call.  Calls
between layers go through those module attributes, so spans nest by
themselves and no library source file changes.  Spans are kept in memory
and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = (
    "reduction.reduce",
    "reduction.is_reduced",
    "voronoi.relevant_vectors",
    "voronoi.voronoi_cell",
    "voronoi.frac_extents",
    "copies.copy_counts",
    "copies.domain_extents",
    "copies.primitive_coeffs",
    "distance.min_image_distance",
    "distance.pairwise_distances",
    "distance.neighbors_within",
    "cells.enumerate_ps",
    "cells.check_cell",
    "cli.run",
)

# Descendant calls counted per call of a parent: the repeated per-lattice
# work that a shared prepared lattice would remove.
NESTED = {
    "distance.min_image_distance": ("reduction.reduce", "voronoi.voronoi_cell"),
    "cells.check_cell": ("reduction.reduce", "voronoi.voronoi_cell",
                         "voronoi.relevant_vectors"),
}


def resolve(qualname: str):
    mod, fn = qualname.split(".")
    return getattr(importlib.import_module(f"minimage.{mod}"), fn)


@contextlib.contextmanager
def rebound(replacements: dict):
    """Rebind each original function to its replacement in every loaded
    ``minimage`` module that holds it; restore all bindings on exit."""
    sites = []
    try:
        for original, replacement in replacements.items():
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "minimage" or name.startswith("minimage.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        sites.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in sites:
            setattr(mod, attr, original)


class Tracer:
    """Records (id, parent, op, name, start, end) for every traced call.

    Distance calls also record, at the same boundary, the work they did
    (pairs of a matrix, hits of a neighbor list) and the lattice they used.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op = 0
        self.work: dict[int, int] = {}
        self.lattices: dict[int, object] = {}
        self.first_pairwise = None
        self._stack: list[int] = []
        self._next = 0

    def _meter(self, sid: int, name: str, args, out) -> None:
        if name == "distance.min_image_distance":
            self.lattices.setdefault(id(args[0]), args[0])
        elif name == "distance.pairwise_distances":
            n = len(args[0])
            self.work[sid] = n * (n - 1) // 2
            self.lattices.setdefault(id(args[0].basis), args[0].basis)
            if self.first_pairwise is None:
                self.first_pairwise = args[0]
        elif name == "distance.neighbors_within":
            self.work[sid] = len(out)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                self._meter(sid, name, args, out)
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.op, name, start, end))
        return traced

    def installed(self):
        return rebound({resolve(q): self._wrap(q, resolve(q)) for q in TRACED})

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation calls and self time, plus nested call counts."""
        child_time: dict[int, float] = defaultdict(float)
        parent_of: dict[int, int] = {}
        name_of: dict[int, str] = {}
        for sid, parent, _, name, start, end in self.spans:
            child_time[parent] += end - start
            parent_of[sid] = parent
            name_of[sid] = name
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        nested: Counter = Counter()
        for sid, parent, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            anc = parent
            while anc != -1:
                if name in NESTED.get(name_of[anc], ()):
                    nested[(name_of[anc], name)] += 1
                anc = parent_of[anc]
        out = {}
        for q in TRACED:
            out[f"{q}.calls"] = calls[q] / ops
            out[f"{q}.self_ms"] = 1e3 * self_s[q] / ops
        for parent, children in NESTED.items():
            for child in children:
                key = f"{parent}.{child.split('.')[1]}_calls"
                out[key] = nested[(parent, child)] / calls[parent] if calls[parent] else 0.0
        return out

    def sizes(self) -> dict[str, tuple[float, int, int]]:
        """(seconds, work, calls) for the metered distance functions."""
        out = {q: (0.0, 0, 0) for q in ("distance.pairwise_distances",
                                        "distance.neighbors_within")}
        for sid, _, _, name, start, end in self.spans:
            if name in out:
                sec, work, calls = out[name]
                out[name] = (sec + end - start, work + self.work.get(sid, 0), calls + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
