"""Host-speed calibration for the svsa benchmark.

On a shared host the speed of one core drifts by 20-40% over seconds to
minutes (a neighbour's load, not this process being descheduled: CPU time
tracks wall time), and that drift swamps any change to the program.  The
harness therefore runs a fixed kernel between passes and divides each pass
by the kernel time around it.  The kernel uses no svsa code, so a change to
the program moves the pass and not the kernel; a drift of the host moves
both.

The kernel mixes the two kinds of work the workloads do: interpreter-bound
Python (loops, calls, float and list arithmetic) and small-array numpy
(random draws, elementwise operations, norms), in fixed amounts and with a
fixed seed.  ``REFERENCE_S`` is about the kernel's median time on the host
the benchmark was defined on (a 2-vCPU Intel Xeon VM at 2.0 GHz, where it
read 0.09-0.13 s): a time divided by the kernel time and multiplied by
``REFERENCE_S`` reads in seconds of a host that runs the kernel in
``REFERENCE_S``.  A change that slows the whole interpreter, or leaves work
running beside the benchmark, slows the kernel too and would not show.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.12
PY_ROUNDS = 300_000
NP_ROUNDS = 6_000


def _python_part(rounds: int) -> float:
    total = 0.0
    values = [0.5, 1.5, -0.25]
    for i in range(rounds):
        total += abs(values[i % 3]) * 0.5 + (i & 7)
        if total > 1e6:
            total = max(total - 1e6, 0.0)
    return total


def _numpy_part(rounds: int) -> float:
    rng = np.random.default_rng(12345)
    x = np.ones(2)
    for _ in range(rounds):
        y = -np.sign(x) + 0.5 * rng.normal(size=2)
        x = x + 0.01 * y
        if np.linalg.norm(x) > 10.0:
            x = np.ones(2)
    return float(x.sum())


def kernel_seconds() -> float:
    """Seconds one run of the fixed calibration kernel takes now."""
    started = time.perf_counter()
    _python_part(PY_ROUNDS)
    _numpy_part(NP_ROUNDS)
    return time.perf_counter() - started
