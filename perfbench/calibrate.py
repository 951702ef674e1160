"""Machine-speed reference for normalising wall times on a shared host.

On a small shared sandbox, other tenants slow seconds-long stretches of a
run by up to 1.8x, so the wall time of one call tracks the neighbours as
much as the program.  Each kernel here is a fixed piece of work of the same
kind as one workload's (``small_ops`` for the simulator, ``bulk`` for the
analytic pipeline) that shares no code with the package.  The benchmark
times it in the same thread right before and after every timed call and
divides the call's wall time by the mean: the neighbours' slowdown cancels,
while a change to the package moves only the numerator.  The kernel runs
alone, so the program cannot change what it measures.  A kernel must match
its workload's mix: interference slows large-array and small-op code by
different factors.

``REF_MS`` turns a ratio back into milliseconds, so a normalised time reads
as the call's time on the baseline machine (README.md) at the speed where
the kernel takes ``REF_MS``.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad


def small_ops() -> float:
    """Simulator-like work: many tiny arrays, a 9x9 inverse, Python loops."""
    rng = np.random.default_rng(12345)
    cdf = np.cumsum(np.full(15, 1.0 / 15))
    acc = 0.0
    for _ in range(60):
        h = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        acc += float(np.linalg.cond(h)) + float((np.abs(np.linalg.inv(h)) ** 2).sum())
        req = np.minimum(np.searchsorted(cdf, rng.random(135), side="right"), 14)
        per = req.reshape(9, 15)
        for c in range(9):
            acc += float(np.flatnonzero(per[c] == c % 15).size)
        acc += float(np.isin(req, [1, 3, 5]).sum())
        pos = rng.random((135, 2)) * 75.0
        d = np.linalg.norm(pos[:9, None, :] - pos[None, 9:18, :], axis=-1)
        acc += float(np.log2(1.0 + 1.0 / np.maximum(d, 1.0)).sum())
    return acc


def bulk() -> float:
    """Analytic-pipeline-like work: large request-count arrays, quadrature."""
    rng = np.random.default_rng(3)
    cdf = np.cumsum(np.full(15, 1.0 / 15))
    draws = np.minimum(np.searchsorted(cdf, rng.random((256, 9, 15)), side="right"), 14)
    acc = 0.0
    for g in range(15):
        counts = (draws == g).sum(axis=2)
        acc += float(np.where(np.all(counts > 0, axis=1), counts.sum(axis=1), 0).sum())
    value, _ = quad(lambda r: r**-2.5 * math.exp(-r), 0.1, 3.0, limit=200)
    return acc + value


# Each kernel's 10th-percentile time (ms) on the machine of the baseline.
REF_MS = {small_ops: 14.0, bulk: 4.0}


def seconds(kernel, repeats: int) -> float:
    """Mean wall time of ``repeats`` runs of ``kernel``."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - t0) / repeats


class Bracket:
    """Normalises consecutive timed calls by the kernel runs between them."""

    def __init__(self, kernel, repeats: int) -> None:
        self.kernel, self.repeats = kernel, repeats
        self.last = seconds(kernel, repeats)

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` of the call just ended, at the reference speed."""
        before, self.last = self.last, seconds(self.kernel, self.repeats)
        return wall_s * REF_MS[self.kernel] / 1e3 / ((before + self.last) / 2)
