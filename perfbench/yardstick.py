"""A fixed task that tells how fast the host runs at this moment.

The host's speed for the same work changes by up to 2x over seconds to
minutes (CPU shared with neighbours; CPU time moves with wall time). The
benchmark runs this task between its units of work and reports their
times in multiples of it, which cancels the host's drift.

The task mirrors the mix of the program's hot path without calling
qmele: Python-level calls into numpy and scipy.signal.lfilter on arrays
as long as the workload's series, so a change to qmele never changes it.
"""

import time

import numpy as np
from scipy.signal import lfilter

_A = np.array([1.0, -0.4])
_ZE = np.array([0.0])
_ZH = np.array([0.5])
_X = {}
WORK = 1_000_000  # values passed through per call, whatever the length


def probe(length=1000):
    """Wall seconds of the fixed task on arrays of `length` values (about
    0.05-0.1 s). Give it the length of the series the unit of work
    filters, so the task meets the same caches as the work does."""
    x = _X.get(length)
    if x is None:
        x = _X[length] = np.random.default_rng(20120130).standard_normal(length)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(max(1, WORK // length)):
        e, _ = lfilter([1.0], _A, x - 0.01 * i, zi=_ZE)
        h, _ = lfilter([1.0], _A, 0.1 + 0.18 * e * e, zi=_ZH)
        acc += float(np.sum(np.abs(e) / np.sqrt(h) + 0.5 * np.log(h)))
        acc += sum(j * 0.5 for j in range(20))
    if not np.isfinite(acc):
        raise ArithmeticError("yardstick task is not finite")
    return time.perf_counter() - t0
