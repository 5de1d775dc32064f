"""A clock that reads in seconds at a fixed reference speed of the machine.

The hosts this benchmark runs on are shared, and their speed drifts: a
fixed kernel of small numpy and interpreter work ran anywhere from 225 to
377 times per second within one minute on a 2-vCPU host, with the wall
clock and the process CPU clock agreeing.  Timed with ``perf_counter``
alone, 5-s runs of the ``structure_sweep`` workload spread by 13 %.

:class:`ReferenceClock` removes that drift.  While it runs, a timer signal
interrupts the process every ``period`` seconds, in its one thread, and
times a fixed calibration kernel three times.  Until the next sample the
clock advances at (reference time / kernel time) times real time, the
kernel time being the median of the three; it stands still while the
kernel runs.  An interval read from it is the time the work would have
taken on a machine where the kernel takes its reference time.  A change
to the program moves these readings as it moves real time; the kernels
call only numpy.

Speed changes do not slow every kind of work alike, so each workload
names the kernel closest to its own work: ``svd`` for the linear
structures, ``arrays`` for the rest.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20241017)
_MATRIX = _RNG.standard_normal((6, 6))
_STACKS = [_RNG.standard_normal(shape) for shape in ((12, 6), (6, 6), (8, 4), (4, 4))]


def array_kernel() -> float:
    """Time the small-array numpy calls and interpreter work that the
    integrators, the catalog callables and the CLI consist of."""
    m = _MATRIX
    v = m[0]
    t0 = perf_counter()
    for i in range(60):
        out = np.zeros((6, 6))
        out[:3, 3:] = m[:3, :3]
        out[3:, 3:] = -np.diag(v[:3])
        w = np.asarray(out, dtype=float) @ v
        float(np.abs(w).max(initial=0.0))
        if i % 6 == 0:
            u, s, vt = np.linalg.svd(m)
            (u * s) @ vt
    return perf_counter() - t0


def svd_kernel() -> float:
    """Time the rank-revealing SVDs and eigenvalue calls on stacked bases
    that the linear-structure constructions consist of."""
    t0 = perf_counter()
    for i in range(16):
        m = _STACKS[i % 4]
        u, s, vt = np.linalg.svd(m, full_matrices=True)
        r = int(np.count_nonzero(s > 1e-9 * s[0]))
        g = u[:, :r].T @ m
        float(np.abs(np.vstack([g, vt[r:]])).max(initial=0.0))
        np.linalg.eigvalsh(m.T @ m)
    return perf_counter() - t0


# kernel name -> (kernel, its time at the reference speed in seconds)
KERNELS = {"arrays": (array_kernel, 6e-4), "svd": (svd_kernel, 5e-4)}


class ReferenceClock:
    """Call it for the time in reference seconds; use it as a context
    manager around the part of the run it should time."""

    def __init__(self, kernel: str = "arrays", period: float = 0.05):
        self.kernel_name = kernel
        self.kernel, self.reference_s = KERNELS[kernel]
        self.period = period
        self.samples: list[float] = []
        self._state = (0.0, perf_counter(), 1.0)   # (reading, real time, rate)
        self._previous = None

    def calibrate(self) -> None:
        """Take a speed sample now; the timer also takes one every period."""
        reading, real, rate = self._state
        start = perf_counter()
        reading += (start - real) * rate
        # the median skips the first run, which pays for the caches the
        # interrupted work left behind
        self.samples.append(statistics.median(self.kernel() for _ in range(3)))
        rate = self.reference_s / self.samples[-1]
        # one assignment, so a reader never sees a half-updated state
        self._state = (reading, perf_counter(), rate)

    def _tick(self, signum, frame) -> None:
        self.calibrate()

    def __enter__(self) -> "ReferenceClock":
        for _ in range(3):
            self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __call__(self) -> float:
        while True:
            state = self._state
            now = perf_counter()
            # a sample taken between the two reads would make the reading
            # jump back or forth by one kernel time; read again then
            if state is self._state:
                reading, real, rate = state
                return reading + (now - real) * rate

    def summary(self) -> dict:
        return {"kernel": self.kernel_name, "reference_kernel_s": self.reference_s,
                "period_s": self.period, "samples": len(self.samples),
                "kernel_median_s": statistics.median(self.samples),
                "kernel_min_s": min(self.samples),
                "kernel_max_s": max(self.samples)}
