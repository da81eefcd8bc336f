"""Fixed reference kernel that measures the host's current speed.

The benchmark's host is shared: other tenants' load slows every instruction
stream on it by up to about 1.5x, in spells from milliseconds to minutes.
The kernel is timed around every op, so it sees the same spells as the
package. An op's latency over the kernel's time around it is the op's cost
at a fixed host speed; ``REFERENCE_S`` turns that back into seconds.

The kernel imitates the package's hot path (small numpy arrays indexed by
Python lists of cells, per-cell exponential updates, one random draw per
cell, column sums read into a dict) but imports nothing from it, so a change
to the package never changes the kernel. Do not edit it: every recorded
figure depends on it.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's fastest call on the host the benchmark was tuned on (2-core
# shared Xeon at 2.1 GHz, Python 3.11, numpy 2.4); it only sets the scale of
# the reported times, which read as seconds at that host's calm speed
REFERENCE_S = 1.34e-3
SIZE = 4
STEPS = 60


def kernel() -> float:
    rng = np.random.default_rng(12345)
    resistance = np.full((SIZE, SIZE), 1e5)
    pulses = np.zeros((SIZE, SIZE), dtype=np.int64)
    total = 0.0
    for i in range(STEPS):
        firing = [k for k in range(SIZE) if (i * 7 + k) % 3]
        cells = [(a, b) for a in firing for b in firing]
        wl = np.array([a for a, _ in cells], dtype=np.intp)
        bl = np.array([b for _, b in cells], dtype=np.intp)
        steps = 0.3 * np.log1p(pulses[wl, bl])
        noise = 0.05 * rng.standard_normal(len(cells))
        resistance[wl, bl] = np.maximum(1e3, resistance[wl, bl] * np.exp(-steps + noise))
        pulses[wl, bl] += 1
        column = (0.2 / resistance[np.ix_(wl[:1], np.arange(SIZE))]).sum(axis=0)
        currents = {c: float(x) for c, x in enumerate(column)}
        total += max(currents.values())
        if i % 20 == 19:
            resistance[:] = 1e5
            pulses[:] = 0
    return total


def time_kernel() -> float:
    """Seconds one call of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
