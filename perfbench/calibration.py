"""Calibration kernel that removes the host's speed swings from timings.

On a shared 2-core host the same operation runs up to 2x slower for
stretches of seconds to minutes while other tenants load the machine,
and a run-length median does not average that away (15-second window
medians of the same sweep ranged from 0.14 s to 0.28 s). A fixed kernel
timed between blocks of operations slows down by the same factor, so
each operation's time is rescaled by NOMINAL_S over the mean of the two
kernel times around its block. The result is in seconds at the speed
where the kernel takes NOMINAL_S; raw seconds are kept in the record.

The kernel is the oracle's scalar evaluation: the same mix of small
numpy calls, 2x2/4x4 eigen-solvers and interpreter overhead as the
program, but code the program cannot change.
"""

import time

import numpy as np

import oracle

REPEATS = 40
# Kernel time on an unloaded Intel Xeon vCPU (numpy 2.4, Python 3.11);
# only a scale, so that rescaled times read as seconds.
NOMINAL_S = 0.0075


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        self.rho = rho / np.trace(rho).real
        self.r = np.array([0.3])
        self.basis_q = oracle.PAULI_BASES["x"]
        self.basis_r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]

    def measure(self) -> float:
        """Seconds for one pass of the kernel."""
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            oracle.evaluate(oracle.evolve(self.rho, self.r), self.basis_q, self.basis_r)
        return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that maps raw seconds measured between two kernel passes to
    seconds at nominal speed."""
    return NOMINAL_S / ((before + after) / 2.0)
