"""Reference kernel: a fixed piece of work, independent of minimage, run
between the timed operations to measure how fast the host is at that moment.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over tens of seconds, far more than any regression worth catching.
Operations and reference runs interleave, so both see the same host speed,
and the gated throughput is expressed in reference runs instead of seconds
(see ``run.py``).

The kernel is what the library spends most of its time on in every
workload: many numpy calls on 3-vectors and 3x3 matrices (cross products,
norms, small products), where call overhead outweighs arithmetic.  On a
2-vCPU shared host it tracked the drift better than a pure-Python integer
loop, broadcast reductions over 1e5-1e6 floats, or combinations of these.
In sets of 5-10 runs whose wall-clock throughput spread by 0.07-0.43
(interquartile range over median), throughput counted in kernel runs spread
by 0.02-0.08, the most in ``bulk``: its large array passes drift less than
the kernel does.  A change to minimage cannot move the kernel.  Changing
this file changes the unit of the gated metric.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time per second of operation time.
SHARE = 0.1

_V = np.array([0.31, 0.72, 0.13])
_W = np.array([0.5, -0.2, 0.9])
_M = np.array([[1.0, 0.3, 0.2], [0.0, 1.1, 0.4], [0.0, 0.0, 0.9]])


def kernel() -> float:
    s = 0.0
    for _ in range(4):
        c = np.cross(_V, _W)
        s += float(np.linalg.norm(c)) + float((_M @ _V).sum())
    return s


class Reference:
    """Runs the kernel between operations, for SHARE of the operations'
    time, and keeps its total time and run count until ``take`` reads them
    off."""

    def __init__(self):
        self.seconds = 0.0
        self.runs = 0
        self.owed = 0.0

    def _run(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.runs += 1
        return dt

    def follow(self, op_seconds: float) -> None:
        """Run the kernel until SHARE of the operation's time is spent; what
        the last run overshoots is taken off the next operation's share."""
        self.owed += SHARE * op_seconds
        while self.owed > 0.0:
            self.owed -= self._run()

    def take(self) -> float:
        """Mean seconds of one run since the last call (at least one run).
        Resets the totals."""
        if not self.runs:
            self._run()
        mean = self.seconds / self.runs
        self.seconds = 0.0
        self.runs = 0
        return mean
