"""Machine-speed probe: a fixed reference kernel timed between operations.

On a shared host this benchmark's process runs up to 2x slower at times: a
neighbour on the same physical core takes its share, and nothing inside the
process controls that (the time stays all user CPU time, with no page
faults and no context switches).

The probe does the kind of work polywalk does (partial-pivot elimination
with small numpy operations in a Python loop, then pure-Python integer
arithmetic).  A run times the probe about twice a second, between
operations.  The probe's times are bimodal: a fast mode when the core is
free and a mode about 1.7x slower when it is shared, switching every second
or so; and the fast mode itself differs by up to a fifth from one run to
the next.  Best-of-runs timing finds the fast mode; ``factor()`` is
``REFERENCE_S`` over the run's 10th-percentile probe time, the run's fast
mode, and the benchmark multiplies best-of times by it: times at the
reference speed.  The probe is the benchmark's own code, so no change to
polywalk can move it.  Raw times are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's low-percentile time on an unloaded 2-vCPU Intel Xeon VM with
# Python 3.11.7 and numpy 2.4.6.  It fixes the scale of reported times and
# must never change.
REFERENCE_S = 0.012
PROBE_EVERY_S = 0.5

_MATRIX = np.random.default_rng(12345).standard_normal((16, 17))


def _reference_kernel() -> int:
    for _ in range(40):
        a = _MATRIX.copy()
        for col in range(16):
            p = col + int(np.argmax(np.abs(a[col:, col])))
            if p != col:
                a[[col, p]] = a[[p, col]]
            factors = a[col + 1:, col] / a[col, col]
            a[col + 1:, col:] -= np.outer(factors, a[col, col:])
    x = 1
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) % 2305843009213693951
    return x


class Speedometer:
    """Probe times over one run, and the run's speed factor."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        """Probe when the last probe is more than PROBE_EVERY_S old."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self) -> float:
        """REFERENCE_S over the 10th-percentile probe time of the run.

        A low quantile, like the best-of-runs operation times it scales:
        both then describe the least disturbed part of the run.
        """
        ordered = sorted(self.samples)
        return REFERENCE_S / ordered[len(ordered) // 10]
