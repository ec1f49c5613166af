"""Host-speed probe: a fixed unit of work, interleaved with a run's
operations, that tells how fast the host is at each moment.

The benchmark shares a few vCPUs with other tenants.  Two things make
identical work take longer from one run to the next, by up to ~1.9x:
the hypervisor stealing the vCPU, and the host running the vCPU slower
(contended cores and caches) in phases of seconds to minutes.

Operations are therefore timed in process CPU time, which on a kernel
with paravirtualised steal accounting leaves out most of the stolen
time.  The rest of the drift is cancelled by this probe: each CPU time
is scaled by ``REFERENCE_PROBE_S`` over the mean CPU time of the probes
taken nearest to it.  The mean, not the median, because a long operation
absorbs the host's stalls in proportion to their share of the time, and
so does the mean of many short probes.  The probe uses no ``qspectra``
code, so a change to the package moves the scaled figures exactly as it
moves the raw ones; only the host's drift cancels.  Its mix follows the
package's hot paths: interpreter loops, complex numpy arithmetic on a
2001-point grid, a small Levenberg-Marquardt fit and float formatting.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy.optimize import least_squares

# CPU seconds one probe took on the 2-vCPU host the benchmark was defined
# on, at its usual speed; scaled figures are "as on that host"
REFERENCE_PROBE_S = 0.010
# a run probes before an operation when this long has passed since the
# last probe, and scales each operation by the mean of the NEAREST probes
# in time.  One probe varies by +-30 % when the host time-slices finely,
# so the mean spans ~5 s, well inside the host's slow phases.
PROBE_EVERY_S = 0.2
NEAREST = 25
# probes taken before and after each set-up
AROUND_SETUP = 10

_X = np.linspace(-5.0, 5.0, 2001)
_Y = 1.0 - 0.8 / (1.0 + (2.0 * (_X - 0.3) / 1.1) ** 2) + 0.01 * np.sin(37.0 * _X)
_W = _X * 1e8 + 2e9


def _residual(p):
    return 1.0 - p[0] / (1.0 + (2.0 * (_X - p[1]) / p[2]) ** 2) - _Y


def probe_once() -> float:
    """Run the probe once; returns the process CPU seconds it took."""
    t0 = time.process_time()
    total = 0.0
    for i in range(20000):
        total += math.sqrt(i) * 0.5
    for _ in range(20):
        t = 1.0 - 3.3e7 / (3.3e7 - 1j * (_W - 2.1e9) - 1e16 / (_W - 2.0e9 + 1j * 1e6))
        np.abs(t) ** 2
    least_squares(_residual, [0.5, 0.0, 1.0], method="lm")
    "\n".join(f"{a:.10e},{b:.10e}" for a, b in zip(_X[:800], _Y[:800]))
    return time.process_time() - t0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


class HostSpeed:
    """Probe samples of one run: wall-clock midpoints and CPU durations."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = -math.inf
        for _ in range(3):  # first calls pay for lazy set-up in numpy/scipy
            probe_once()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.durations.append(probe_once())
            self.times.append((start + time.perf_counter()) / 2.0)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def mean_probe_s(self) -> float:
        """Mean CPU time of all probes taken so far."""
        return _mean(self.durations)

    def local_probe_s(self, at: float) -> float:
        """Mean CPU time of the NEAREST probes taken closest to wall time `at`."""
        i = bisect.bisect_left(self.times, at)
        lo, hi = max(0, i - NEAREST), min(len(self.times), i + NEAREST)
        nearest = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - at))[:NEAREST]
        return _mean(self.durations[j] for j in nearest)

    def scale(self, cpu_s: float, start: float, wall_s: float) -> float:
        """`cpu_s` CPU seconds of an operation that ran from wall time
        `start` for `wall_s`, at the reference host speed."""
        return cpu_s * REFERENCE_PROBE_S / self.local_probe_s(start + wall_s / 2.0)

    def summary(self) -> dict:
        if len(self.durations) < 2:
            return {"probes": len(self.durations)}
        q1, median, q3 = statistics.quantiles(self.durations, n=4)
        return {"probes": len(self.durations), "reference_ms": 1e3 * REFERENCE_PROBE_S,
                "mean_ms": 1e3 * self.mean_probe_s(), "median_ms": 1e3 * median,
                "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3, "min_ms": 1e3 * min(self.durations),
                "max_ms": 1e3 * max(self.durations)}
