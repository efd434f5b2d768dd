"""Host-speed calibration for the untraced benchmark run.

The host's speed swings by up to 2x in phases of seconds to minutes, and the
swings move wall time and process CPU time alike.  A fixed calibration
kernel, interleaved with the workload through a SIGALRM timer every
SLICE_INTERVAL_S, slows down and speeds up with the host: on one zf_sweep
process the per-round correlation of round time with the kernel's time was
0.94, and dividing by it cut the round-to-round spread from 10% to 4%.  So
the benchmark reports times scaled to a reference speed: a time measured
while a slice took ``s`` seconds is multiplied by REFERENCE_SLICE_S / s.

The kernel does the two kinds of work the workloads do, exact ``Fraction``
and dict arithmetic in the interpreter and small dense numpy linear algebra,
and never calls the package, so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

SLICE_INTERVAL_S = 0.2
REFERENCE_SLICE_S = 0.02  # one slice's time at the reference host speed

# Bound now, so the traced run's counting wrappers never see the kernel.
_svd = np.linalg.svd
_hstack = np.hstack
_MATRICES = [np.random.default_rng(0).standard_normal((4, 6)) for _ in range(10)]


def kernel() -> None:
    """One slice of fixed work (about 20 ms on the reference host)."""
    total = Fraction(0)
    for i in range(1, 1800):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        total -= Fraction(1, 3)
    counts: dict[int, int] = {}
    for i in range(18000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    for _ in range(30):
        for m in _MATRICES:
            _svd(m)
            _hstack([m, m])


class Calibrator:
    """Calibration slices and the time they took."""

    def __init__(self) -> None:
        self.slices = 0
        self.seconds = 0.0

    def run_slice(self, *_signal_args) -> None:
        start = perf_counter()
        kernel()
        self.seconds += perf_counter() - start
        self.slices += 1

    def scale(self) -> float:
        """Factor that turns times measured over the slices so far into
        times at the reference host speed."""
        return REFERENCE_SLICE_S * self.slices / self.seconds

    @contextlib.contextmanager
    def interleaved(self):
        """Run a slice every SLICE_INTERVAL_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.run_slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
