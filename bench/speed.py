"""A fixed piece of work that gauges how fast the machine runs just now.

On a shared machine the same solve can take half again as long from one
minute to the next, because other work contends for the core.  The
benchmark runs `kernel` next to every timed solve and set-up, and scales
each time by REFERENCE_S over the kernel's time; a time then reads as
seconds at the speed the machine had when the benchmark was defined.
The kernel is small dense linear algebra driven from a Python loop, as
the solver's own work is, and it shares no code with the package.
"""

import time

import numpy as np

ITERATIONS = 8000
# median seconds of kernel() on the machine that defined the benchmark
# (2-core Xeon VM, python 3.11.7, numpy 2.4.6, OpenBLAS on one thread)
REFERENCE_S = 0.30

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((40, 60))
_B = _M[:, :40] + 10.0 * np.eye(40)
_b = _rng.standard_normal(40)


def kernel():
    """Seconds taken by ITERATIONS small solves, products and pivots."""
    t0 = time.perf_counter()
    y = _b.copy()
    acc = 0.0
    for i in range(ITERATIONS):
        x = np.linalg.solve(_B, y)
        r = _M.T @ x
        j = int(np.argmin(r))
        y = _M[:, j] + 0.01 * (i % 7) + _b
        acc += float(r[j]) + sum(v * v for v in range(12))
    return time.perf_counter() - t0


def scaled(times, kernel_times):
    """Mean of times in reference seconds, given one kernel time taken
    next to each: the kernel times stand for the machine's speed while the
    times were taken."""
    if len(times) != len(kernel_times):
        raise ValueError("need one kernel time per time")
    return sum(times) / sum(kernel_times) * REFERENCE_S
