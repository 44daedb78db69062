"""Host-speed gauge: a fixed reference task timed next to every timed call.

On a shared host the speed of a vCPU drifts by 20-50% over seconds to
minutes (other tenants, frequency changes), in CPU time as well as wall
time.  A median over one run cannot remove drift that lasts longer than
the run: the median of ``assemble_s.optv2`` on ``stiffness-2d-fresh`` read
from 0.33 s to 0.50 s in runs of the same code.

The gauge times a fixed reference task just before and just after each
timed call.  The task has the two kinds of work the package does: numpy
calls on fixed arrays (a copy, an in-place sort, a gather and a running sum
over 2^18 entries, as in sparse construction) and an interpreted loop that
formats and parses MatrixMarket-style lines (as in the file I/O).  The
numpy part writes into buffers allocated once, so its time does not depend
on the state the allocator is left in by the calls around it.
The call's time is scaled by ``NOMINAL_S`` over the mean of the two
reference times: it reads as the call's seconds on a host where the
reference task takes ``NOMINAL_S``.  The reference does not call into
simplex_asm, so a change to the package moves the scaled time exactly as it
moves the raw one; a change of host speed during the call moves both the
call and its references and cancels out.  The raw seconds are kept beside
the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# about the reference task's median in runs on a 2-vCPU Xeon VM (numpy 2.4.6)
NOMINAL_S = 0.012
REFERENCE_SIZE = 1 << 18
REFERENCE_LINES = 2500
REFERENCE_SEED = 20140113   # fixed: the reference is the same in every run


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(REFERENCE_SEED)
        self._vals = rng.random(REFERENCE_SIZE)
        self._keys = rng.permutation(REFERENCE_SIZE)
        self._sorted = np.empty(REFERENCE_SIZE)
        self._gathered = np.empty(REFERENCE_SIZE)
        self._triplets = list(zip(
            rng.integers(1, 10**5, size=REFERENCE_LINES).tolist(),
            rng.integers(1, 10**5, size=REFERENCE_LINES).tolist(),
            rng.normal(size=REFERENCE_LINES).tolist()))
        self.references: list[float] = []
        self._last: float | None = None
        for _ in range(3):   # warm-up: page in the arrays and numpy's paths
            self.reference()
        self.references.clear()

    def reference(self) -> float:
        t0 = time.perf_counter()
        self._sorted[:] = self._vals
        self._sorted.sort()
        np.take(self._sorted, self._keys, out=self._gathered)
        np.cumsum(self._gathered, out=self._gathered)
        lines = [f"{i} {j} {v:.17g}\n" for i, j, v in self._triplets]
        total = 0.0
        for line in lines:
            i, j, v = line.split()
            total += int(i) - int(j) + float(v)
        dt = time.perf_counter() - t0
        self.references.append(dt)
        return dt

    def timed(self, fn, repeats: int = 1, chain: bool = False):
        """Run ``fn`` ``repeats`` times between two reference timings.

        With ``chain`` the reference timed after the previous call serves as
        this call's first one; use it only when nothing ran in between.
        Returns the last output, the raw seconds of each call and the
        scaled seconds of each call."""
        before = self._last if chain and self._last else self.reference()
        raw = []
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            raw.append(time.perf_counter() - t0)
        after = self._last = self.reference()
        scale = 2.0 * NOMINAL_S / (before + after)
        return out, raw, [dt * scale for dt in raw]
