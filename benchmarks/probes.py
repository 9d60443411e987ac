"""Speed probe: a fixed kernel timed between jobs, to gauge how fast the
machine runs while a workload runs.

Where cores are shared with other tenants, the same code can run up to
1.8 times slower for seconds to minutes at a time (seen on a 2-core
virtual machine), and how much slower depends on the kind of work: in
the same spell the frequency sweep's batched small eigensolves and
elementwise arrays can slow down while the horizon oracle's dense
multi-threaded factorizations keep their speed.  The sweep probe does
the sweep's kind of work, and the workloads made of many short sweep
calls (the curve and the model batch) are timed against it.  A single
reading says little, so a run is scaled by the median of all its
readings.

The march and the horizon have no probe.  A pass of the march is one
6-s call whose time moved by 10 % from pass to pass; neither this probe
nor one of elementwise work on the march's own array sizes followed it,
and over three sets of ten runs its time scaled by this probe spread
0.06 to 0.22 (IQR over median) against 0.12 to 0.18 as measured.  For
the horizon, a probe of dense factorizations a few hundred in order (a
Hessenberg reduction, symmetric eigenvalues and a Cholesky factor) was
tried: its readings have a long tail of stalled multi-threaded calls,
and over ten runs the horizon's time scaled by the median of each run's
readings spread twice as far as the same runs' seconds as measured (IQR
over median 0.124 against 0.065).

The probe uses numpy and the standard library only, never qefrate, so
no change to the program can change its time.
"""

from __future__ import annotations

import json
import time

import numpy as np


class SweepProbe:
    """Batched 4x4 Hermitian eigensolves, elementwise transcendental
    functions over a long array and a JSON round trip: the frequency
    sweep, the Riccati march and the CLI's model files and summaries."""

    def __init__(self):
        rng = np.random.default_rng(20191107)
        g = rng.normal(size=(1500, 4, 4)) + 1j * rng.normal(size=(1500, 4, 4))
        self.herm = g + np.conj(np.swapaxes(g, 1, 2))
        self.x = np.linspace(0.0, 20.0, 100_000)
        self.doc = [{"k": k, "row": [float(v) for v in rng.normal(size=12)]}
                    for k in range(200)]
        self._work()  # first calls start BLAS threads and fault in pages

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def _work(self) -> None:
        np.linalg.eigvalsh(self.herm)
        np.sum(np.log1p(np.exp(-self.x)) * np.cos(self.x))
        json.loads(json.dumps(self.doc))
