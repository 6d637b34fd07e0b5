"""Host-speed correction for timings on a shared machine.

On a shared host the speed of this process's CPU drifts by up to 2x within
seconds as other tenants load the machine, and CPU time drifts with it, so
neither wall nor CPU time of one run repeats.  `HostSpeed` runs a fixed
reference snippet (interval arithmetic on small numpy arrays, written like
the library's hot path) before calls into the library, at most every GAP_S
seconds, and divides each timed interval by the slowdown measured around it.
A corrected second is a second at the
speed at which the snippet takes NOMINAL_S.

The snippet does not touch the library, so a change to the library moves the
corrected time exactly as it moves the raw time on a steady host.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

NOMINAL_S = 1.4e-3   # snippet duration at the reference speed
GAP_S = 0.05         # least time between two samples
_REPS = 30


class _Box:
    """A validated interval box, built the way the library builds its boxes."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ArithmeticError("reference snippet built a malformed box")
        if np.any(lo > hi):
            raise ArithmeticError("reference snippet built an empty box")
        lo, hi = lo.copy(), hi.copy()
        lo.flags.writeable = hi.flags.writeable = False
        self.lo, self.hi = lo, hi


class HostSpeed:
    def __init__(self):
        self._m_lo = -np.ones((5, 2)) * np.arange(1.0, 3.0)
        self._m_hi = self._m_lo + 1.0
        self._xs = np.linspace(0.0, 1.0, 40)[:, None] * np.ones((40, 5))
        self.starts, self.ends, self.factors = [], [], []

    def _snippet(self):
        """Interval matrix-vector products and distance queries on small arrays."""
        boxes = []
        for r in range(_REPS):
            v = np.array([0.3, -0.2 + r * 1e-3])
            p, q = self._m_lo * v[None, :], self._m_hi * v[None, :]
            b = _Box(np.minimum(p, q).sum(axis=1), np.maximum(p, q).sum(axis=1))
            d = np.sqrt(((self._xs - b.lo[None, :]) ** 2).sum(axis=1)).max()
            boxes.append(_Box(b.lo - d, b.hi + d))
        return boxes

    def sample(self):
        """Run the snippet once; returns the seconds it took."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._snippet()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.factors.append((end - start) / NOMINAL_S)
        return end - start

    def maybe_sample(self):
        """Sample if the last sample is older than GAP_S."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def _smoothed(self):
        f = self.factors
        return [statistics.median(f[max(0, i - 1): i + 2]) for i in range(len(f))]

    def correct(self, intervals):
        """Corrected total duration of (start, end) intervals, leaving out sample time.

        Time between two samples runs at the mean slowdown of the two; time
        before the first or after the last sample at that sample's slowdown.
        """
        f = self._smoothed()
        starts, ends = self.starts, self.ends
        total = 0.0
        for a, b in intervals:
            i = bisect.bisect_right(starts, a) - 1   # last sample started at or before a
            t = a
            while t < b:
                if i >= 0 and t < ends[i]:           # inside a sample: not timed work
                    t = ends[i]
                    continue
                nxt = starts[i + 1] if i + 1 < len(starts) else float("inf")
                upto = min(b, nxt)
                if i < 0:
                    slow = f[0]
                elif i + 1 < len(f):
                    slow = 0.5 * (f[i] + f[i + 1])
                else:
                    slow = f[i]
                total += (upto - t) / slow
                t = upto
                if t < b:
                    i += 1
        return total
