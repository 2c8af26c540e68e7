"""Calibration kernel: a fixed Python loop of 2x2 complex numpy products.

The machine this benchmark runs on slows down whole runs at once (more
than 2x between consecutive runs of identical code) while process CPU
time tracks wall time, so neither raw wall time nor CPU time is steady.
Every timed unit is therefore divided by the median of kernel samples
interleaved with it in the same process.  The kernel does the same kind
of work as qubitdyn's hot loop (small numpy products driven from
Python) and imports nothing from qubitdyn.

Do not change this file: every normalised figure ever recorded is a
ratio against it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_ITERS = 1000

# Median of one kernel sample on the reference machine (2 cores,
# Python 3.11.7, numpy 2.4.6), measured over many runs; fixed so that
# normalised times still read in seconds of that machine.
KERNEL_NOMINAL_S = 0.006

_C = np.cos(0.3)
_S = np.sin(0.3)
_U = np.array([[_C, 1j * _S], [1j * _S, _C]])
_UD = _U.conj().T
_RHO0 = np.array([[0.9, 0.1j], [-0.1j, 0.1]])


def kernel_sample() -> float:
    """Wall seconds of one pass of the fixed loop."""
    m = _RHO0
    t0 = time.perf_counter()
    for _ in range(KERNEL_ITERS):
        m = _U @ m @ _UD
        m = 0.5 * (m + m.conj().T)
    dt = time.perf_counter() - t0
    # unitary conjugation keeps the trace; a wrong result means a broken numpy
    if abs((m[0, 0] + m[1, 1]).real - 1.0) > 1e-9:
        raise RuntimeError("calibration kernel lost the trace")
    return dt


def normalise(wall_s: float, kernel_samples) -> float:
    """wall_s scaled to the reference machine's speed: wall x nominal / median(kernel)."""
    return wall_s * KERNEL_NOMINAL_S / statistics.median(kernel_samples)
