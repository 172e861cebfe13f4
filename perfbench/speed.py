"""Speed of the machine while the benchmark runs, sampled from inside the process.

On a shared VM the CPU a process gets is not steady: one pipeline with one
root seed takes anywhere from 0.8 s to 1.6 s of user time within a minute,
and whole minutes run 20% fast or slow.  No single run can average that out.
So while a pipeline runs, a wall-clock timer signal interrupts it every
``INTERVAL_S`` and times a fixed small numpy kernel: a few Newton-like steps
on a polynomial family evaluated the way ``expr.ExprBlock`` does it (power
table, gather-product per monomial, coefficient product), each with a 4x4
solve, the same kind of work as the pipeline's jets and Newton steps.  The
mean of ``KERNEL_REF_S / sample`` over a pipeline is the machine's speed
during it, relative to a machine on which the kernel takes ``KERNEL_REF_S``;
a pipeline's time multiplied by that speed is its time on that reference
machine.

The kernel runs between bytecodes of the main thread, touches none of the
program's state, and its own time is taken out of the pipeline's.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01
# about the kernel's median time on a 2-vCPU Intel Xeon VM (2.0 GHz) under its
# usual load (0.17 ms when it runs fast)
KERNEL_REF_S = 2.0e-4

# 4 polynomials in 4 variables over 24 monomials of degree up to 3 per variable
_RNG = np.random.default_rng(1)
_EXPONENTS = _RNG.integers(0, 4, size=(24, 4))
_COEFFS = _RNG.standard_normal((4, 24))
_JACOBIAN = 5 * np.eye(4) + 0.1 * _RNG.standard_normal((4, 4))
_VARS = np.arange(4)
_X0 = np.array([0.3, -0.2, 0.5, 0.1])


def kernel():
    """A fixed amount of small-array numpy work (about 0.2 ms)."""
    x = _X0
    for _ in range(6):
        table = np.ones((4, 4))
        for e in range(1, 4):
            table[e] = table[e - 1] * x
        value = _COEFFS @ np.prod(table[_EXPONENTS, _VARS], axis=1)
        x = x - 0.01 * np.linalg.solve(_JACOBIAN, value)
    return x


class SpeedProbe:
    """Times the kernel on a timer signal while installed.

    ``samples`` holds the kernel times since the last ``reset``; ``busy_s``
    is their sum, the time the probe took from the code it interrupted.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        # a collection the kernel's allocations would trigger runs after it,
        # in the program's time, so a sample times the CPU and not the heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        for _ in range(50):          # warm numpy's dispatch before the first sample
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reset(self):
        self.samples = []

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    def speed(self) -> float:
        """Speed relative to the reference machine since the last reset.

        The samples are evenly spaced in wall time, so the mean of their
        speeds is the time-weighted mean speed.
        """
        if not self.samples:
            return float("nan")
        return sum(KERNEL_REF_S / s for s in self.samples) / len(self.samples)
