"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a shared host whose speed shifts by 20-50% for
seconds to minutes at a time (other tenants' load, which does not show as
steal time). Taking each unit's fastest replay removes short slowdowns but
not one that lasts a whole run, so runs of unchanged code minutes apart
could differ by more than a timing bound. Each untraced run therefore also
times a fixed calibration kernel between its set-ups and arms. The kernel
uses only numpy and scipy, never fgsam: a two-layer GCN forward
(A @ X @ W1, ReLU, A @ H @ W2) on a synthetic graph of the workload's size,
built from a fixed seed so that every run and every commit times the same
work. A run's timings are multiplied by `ref_s / fastest kernel sample`,
which states them at the host speed under which the kernel takes `ref_s`.
A change to the program moves the timings and not the kernel; a slower or
faster host moves both.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Calibration:
    n: int           # nodes
    edges: int       # undirected edges; the matrix holds 2 * edges + n entries
    d0: int          # feature columns
    reps: int        # forwards per sample
    ref_s: float     # the sample time the timings are scaled to


class Kernel:
    def __init__(self, cal: Calibration, hidden: int = 16, classes: int = 4):
        rng = np.random.default_rng(12345)
        rows = rng.integers(0, cal.n, cal.edges)
        cols = rng.integers(0, cal.n, cal.edges)
        diag = np.arange(cal.n)
        self.cal = cal
        self.a = sp.csr_matrix(
            (rng.random(2 * cal.edges + cal.n),
             (np.concatenate([rows, cols, diag]),
              np.concatenate([cols, rows, diag]))), shape=(cal.n, cal.n))
        self.x = rng.standard_normal((cal.n, cal.d0))
        self.w1 = rng.standard_normal((cal.d0, hidden))
        self.w2 = rng.standard_normal((hidden, classes))
        self.samples = []

    def sample(self) -> None:
        """Time `reps` forwards and keep the duration (s)."""
        start = time.perf_counter()
        for _ in range(self.cal.reps):
            h = np.maximum((self.a @ self.x) @ self.w1, 0.0)
            (self.a @ h) @ self.w2
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """The factor that states this run's timings at the reference
        host speed."""
        return self.cal.ref_s / min(self.samples)
