"""Machine-speed calibration for the end-to-end benchmark.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, and by up to 2x while neighbours are busy: on a
two-core test host, a fixed ``sparsify_graph`` call took 184 ms in one
30-second window and 311 ms in another.  Every run therefore times
:func:`kernel` — fixed inputs; SciPy's SuperLU, sparse products, a numpy
sort and plain Python loops; none of this repository's code — between
its operations, and reports each time scaled by
``REFERENCE_S / median(kernel time)``: the time the run would have taken
on a machine where the kernel takes exactly :data:`REFERENCE_S`.  Over
fifteen minutes that included a 1.8x slow spell, the ratio of that
``sparsify_graph`` call (and of a Barabási–Albert one) to this kernel
varied by 1.5% (coefficient of variation over 30-second windows), where
a kernel of only factorization, solves and dictionary updates varied by
2-2.5%.  A change to the repository moves the workload and not the
kernel, so it shows in full.  The ledger keeps the measured kernel time,
so raw wall-clock times can be recovered.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Kernel seconds on the reference machine; scaled times are as if on it.
REFERENCE_S = 0.06

#: Minimum seconds between the samples :meth:`SpeedProbe.tick` takes.
SAMPLE_EVERY_S = 1.0

_SIDE = 64


def _inputs() -> tuple:
    second_difference = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_SIDE, _SIDE))
    identity = sp.identity(_SIDE)
    matrix = (sp.kron(identity, second_difference)
              + sp.kron(second_difference, identity)).tocsc()
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal((_SIDE * _SIDE, 8))
    rows, cols = rng.integers(0, 20_000, size=(2, 200_000))
    product = sp.csr_matrix((rng.random(200_000), (rows, cols)), shape=(20_000, 20_000))
    return matrix, rhs, product, rng.standard_normal(20_000), rng.random(100_000)


def kernel(matrix, rhs, product, vector, keys) -> float:
    """A fixed mix of sparse factorization, solves, products and interpreter work."""
    factor = spla.splu(matrix)
    total = 0.0
    for _ in range(5):
        total += float(factor.solve(rhs)[0, 0])
    for _ in range(100):
        vector = product @ vector
        vector /= np.linalg.norm(vector)
    total += float(np.argsort(keys)[0])
    items = []
    for i in range(50_000):
        items.append(i * 2)
    counts: dict = {}
    for i in range(25_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    return total + len(items) + len(counts)


class SpeedProbe:
    """Samples :func:`kernel` times during a run and turns them into a scale."""

    def __init__(self) -> None:
        self.samples: list = []
        self._inputs = _inputs()
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times, on each allowed CPU in turn.

        Busy neighbours can slow one CPU of a small machine and not the
        other, and the measured processes use both, so consecutive
        samples are pinned to alternate CPUs (the calling thread's
        affinity is restored after each).
        """
        cpus = sorted(os.sched_getaffinity(0))
        for _ in range(count):
            os.sched_setaffinity(0, {cpus[len(self.samples) % len(cpus)]})
            try:
                start = time.perf_counter()
                kernel(*self._inputs)
                self._last = time.perf_counter()
            finally:
                os.sched_setaffinity(0, cpus)
            self.samples.append(self._last - start)

    def scaled_now(self, seconds: float) -> float:
        """Scale a time just measured by a sample taken right after it.

        Set-up steps last milliseconds to a second, so a burst of machine
        slowness can cover one of them and none of the samples spread
        over the measured window; a sample next to the step sees it too.
        """
        self.sample()
        return seconds * REFERENCE_S / self.samples[-1]

    def tick(self) -> None:
        """Take one sample if :data:`SAMPLE_EVERY_S` passed since the last one."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def seconds(self) -> float:
        """Median measured kernel time."""
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Factor that turns measured times into reference-machine times."""
        return REFERENCE_S / self.seconds
