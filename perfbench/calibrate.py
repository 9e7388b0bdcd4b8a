"""A fixed piece of work that gauges the machine's current speed.

On a shared VM, neighbouring tenants slow every process on it, sometimes for
minutes, so the same program's timings differ from run to run by more than
a regression bound. The benchmark runs this kernel before every request and
scales its timings by how fast the kernel ran over the same passes. The
kernel is the benchmark's own: it calls no taylorlab code, runs with the
garbage collector off (so the program's heap does not slow it) and mixes
the kinds of work the program does, interpreted Python on small objects and
small numpy linear algebra.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# the kernel's time at the reference speed, about its mean over a run on a
# 2-vCPU cloud VM (Python 3.11.7, numpy 2.4.6, single-threaded OpenBLAS).
# Scaled timings read as on that machine at that speed.
REFERENCE_S = 0.0070

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((120, 4))
_Y = _rng.standard_normal(120)
_CELLS = [repr(float(v)) for v in _rng.standard_normal(200)]


def kernel_seconds() -> float:
    """Seconds one run of the fixed kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for k in range(100):
            np.linalg.lstsq(_X, _Y, rcond=None)
            row = {f"{k}Q{j % 4 + 1}": float(c) for j, c in enumerate(_CELLS[k:k + 40])}
            sum(row.values())
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
