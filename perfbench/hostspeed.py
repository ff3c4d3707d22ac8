"""The host's momentary speed, measured with fixed kernels.

The shared host runs the same code at speeds up to twice apart, in
stretches that last from seconds to several minutes (README.md, "Host
noise"). A timing taken in a slow stretch is rescaled by how long a fixed
kernel took right before and right after it, against the kernel's
reference time: the result reads as the time the work would take on this
host at its reference speed. The kernels are part of the benchmark, not of
dynlearn, so a change to the library moves the timings but not the
kernels.

Two kernels, because the host slows interpreter-bound and BLAS-bound code
by different factors: `scalar` mixes Python calls with numpy operations on
8-element arrays, as a small_state step does; `dense` runs the n=32 and
n=64 matrix products and Kronecker products of an rnn_dense step.
"""

import time

import numpy as np

_RNG = np.random.default_rng(0)
_M32, _J32 = _RNG.standard_normal((32, 32)), _RNG.standard_normal((32, 1088))
_M64, _J64 = _RNG.standard_normal((64, 64)), _RNG.standard_normal((64, 4224))


def _scalar():
    x, jac, a = np.ones(8), np.zeros((1, 8)), np.full((1, 1), 0.9)
    g = 0.0
    for _ in range(1000):
        jac = a @ jac + 0.5 * x[None, :]
        g = float(jac.sum())
        x = x - 1e-4 * g * x
    return g


def _dense():
    total = 0.0
    for _ in range(3):
        total += (_M32 @ _J32)[0, 0] + np.kron(_M32[0], np.eye(32))[0, 0]
        total += (_M64 @ _J64)[0, 0] + np.kron(_M64[0], np.eye(64))[0, 0]
    return total


# Kernel and its reference time: about its fastest time on the machine
# described in README.md (2 vCPUs, Xeon, OpenBLAS on 1 thread).
KERNELS = {"scalar": (_scalar, 5.0e-3), "dense": (_dense, 4.5e-3)}


class HostSpeed:
    """Rescales timings to the host's reference speed with one kernel."""

    def __init__(self, kind):
        self.kernel, self.reference = KERNELS[kind]
        self.kernel()  # first-call costs, outside any measurement

    def kernel_seconds(self):
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def around(self, work):
        """Runs `work()` between two kernel runs. Returns what it returned
        and the factor that turns seconds measured during it into seconds
        at the reference speed."""
        before = self.kernel_seconds()
        result = work()
        after = self.kernel_seconds()
        return result, self.reference / ((before + after) / 2)
