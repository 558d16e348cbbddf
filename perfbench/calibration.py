"""Host speed, measured by a fixed kernel between the batches of a run.

On a shared virtual machine the same interpreted code can run 10-15 %
slower from one minute to the next, because other tenants load the
host.  A calibrated run samples the host's speed with a fixed kernel
before its first batch and after every batch, and divides each batch's
throughput by the speed around it.  The kernel runs interpreted code on
small numpy arrays, as the solver and the curvature probe do; it never
calls dapalloc, so a change to the program does not change it.

The link-level workload is not calibrated: its FFT and einsum time does
not follow this kernel, and dividing by it made that workload's runs
spread more, not less.

Speed 1.0 is the kernel's median rate on an Intel Xeon (2 vCPU, Python
3.11, numpy with one BLAS thread).
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_RATE = 120.0  # kernel calls per CPU second at speed 1.0

_X = np.linspace(0.1, 3.0, 60)


def _kernel() -> float:
    acc = 0.0
    for i in range(600):
        y = _X * (1.0 + 1e-4 * i)
        z = np.where(y > 0.5, np.exp(-y * y) / (y + 0.5), 1.0 - y)
        s = float(z.sum())
        acc += s + 1e-3 * math.log1p(s)
        acc += float(np.sqrt(np.asarray([s]) ** 2 + 1.0)[0])
    return acc


def host_speed(min_cpu_seconds: float) -> float:
    """Rate of the kernel over at least ``min_cpu_seconds`` of process CPU
    time, relative to :data:`REFERENCE_RATE`."""
    calls = 0
    c0 = time.process_time()
    while True:
        _kernel()
        calls += 1
        spent = time.process_time() - c0
        if spent >= min_cpu_seconds:
            return calls / spent / REFERENCE_RATE
