"""Host-speed sampling.

The benchmark's host is a shared virtual machine whose speed drifts
between states up to 1.6 times apart, each lasting from ten seconds to
minutes.  Process CPU time drifts with wall time, so it does not help,
and a state often outlasts a whole run, so longer runs do not either.

While a ``HostSpeed`` is running, a timer signal interrupts the program
every ``INTERVAL_S`` and the handler times a fixed kernel.  A timed
section's wall time, less the time spent in the handler, is scaled by
``REFERENCE_S`` over the mean kernel time around the section; that gives
its time at the reference speed.

The kernel mixes the kinds of work the package does: an interpreted
Python loop, a loop of small numpy operations and a LAPACK eigenvalue
solve.  The numpy loop, which most resembles the fine-grid simulation,
has the largest share: in a probe on the reference host, giving it three
times its first share cut the run-to-run spread of simulate's scaled op
time from 0.055 to 0.035 and left verify's and reproduce's unchanged.  It depends only on numpy and on this file, so it is the same for
every version of the package under test.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the time of one kernel call on the reference host, a shared
# two-core Xeon (Sapphire Rapids) virtual machine with numpy 2.4.6 and
# scipy-openblas 0.3.31 at one thread.  Only the ratio of two runs'
# figures matters, so this never needs re-measuring; it keeps the scaled
# figures close to wall seconds.
REFERENCE_S = 0.007
INTERVAL_S = 0.25
# A section shorter than a few intervals takes the kernel times nearest it.
MIN_SAMPLES = 8


class HostSpeed:
    """Samples the host's speed from a SIGALRM handler while running."""

    def __init__(self):
        rng = np.random.default_rng(20150309)
        self._a = rng.standard_normal((60, 60))
        self._b = 0.1 * rng.standard_normal((8, 8))
        self._x = rng.standard_normal(8)
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.busy = 0.0
        self._previous = None

    def _kernel(self):
        s = 0
        for i in range(30_000):
            s += i * i % 7
        y = self._x
        for _ in range(1_800):
            y = self._b @ y + self._x
        np.linalg.eigvals(self._a)
        return s, y

    def _handler(self, signum, frame):
        t = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - t
        self.stamps.append(t)
        self.samples.append(elapsed)
        self.busy += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        # restart interrupted system calls instead of failing them
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """The time now and the handler time so far, to bound a section."""
        return time.perf_counter(), self.busy

    def seconds(self, start, end) -> float:
        """Reference-speed seconds between two marks, handler time taken out."""
        (t0, busy0), (t1, busy1) = start, end
        wall = (t1 - t0) - (busy1 - busy0)

        def distance(stamp):
            return max(t0 - stamp, 0.0, stamp - t1)

        inside = sum(1 for s in self.stamps if t0 <= s <= t1)
        nearest = sorted(zip(self.stamps, self.samples),
                         key=lambda p: distance(p[0]))
        chosen = [d for _, d in nearest[:max(inside, MIN_SAMPLES)]]
        if not chosen:
            raise RuntimeError("no host-speed samples")
        return wall * REFERENCE_S / statistics.fmean(chosen)
