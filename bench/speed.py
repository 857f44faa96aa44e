"""Speed probe: a fixed numpy kernel, timed between evaluations.

The 2-core machine the baseline was measured on changes speed by up to
1.6x for tens of seconds at a time: the same batched ``eigh`` took 78 to
135 ms in 5-s windows over three minutes, with CPU time equal to wall time,
so no per-run median removes it.  Times are therefore reported in reference
seconds: raw seconds times ``REFERENCE_S / probe``, where ``probe`` is the
time of this kernel measured next to the work.  Even a plain 16x16
``eigh`` probe, interleaved this way, kept the ratio of evaluation to probe
time within 20.0-21.1 on the d=16 workload while the raw evaluation time
moved from 110 to 167 ms.

The kernel builds 128 segment propagators the way the hot path of ``qoc``
does (assemble H, batched ``eigh``, rebuild U), at the workload's matrix
size, on fixed data that lives here, so no change to ``qoc`` can move it.
On the d=64 workload it cut the variation of single evaluations from 0.15
to 0.095 (coefficient of variation over 150 s), and the means of 20-s
windows stayed within 0.97-1.02 of the median.  Smaller kernels (8 or 32
segments, or plain ``eigh``) left 0.10-0.12 and windows up to 1.12.  Raw
times are kept in the result file.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Fastest probe time per matrix size seen on the baseline machine (AVX-512
# x86-64, OpenBLAS 0.3.31, one thread); it only sets the scale of reference
# seconds.
REFERENCE_S = {16: 0.0078, 64: 0.14}
SEGMENTS = 128
INTERVAL_S = 1.0  # least time between samples taken after evaluations
SAMPLE_S = 0.02  # a sample is the fastest kernel call in this long, at least one


class SpeedProbe:
    """Samples of ``REFERENCE_S / probe time``, with the time each was taken.

    The kernel propagates SEGMENTS segments of ``dim x dim`` under 12
    controls: about 8 ms at d=16 and 140 ms at d=64.
    """

    def __init__(self, dim: int):
        self.reference_s = REFERENCE_S[dim]
        rng = np.random.default_rng(0)
        a = rng.standard_normal((13, dim, dim)) + 1j * rng.standard_normal((13, dim, dim))
        hermitian = a + a.conj().transpose(0, 2, 1)
        self._drift, self._controls = hermitian[0], hermitian[1:]
        self._amps = rng.standard_normal((SEGMENTS, 12))
        self._kernel()  # first call pays for LAPACK set-up
        self.times: list[float] = []
        self.factors: list[float] = []
        self.spent_s = 0.0

    def _kernel(self) -> np.ndarray:
        h = self._drift + np.einsum("ka,aij->kij", self._amps, self._controls)
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def sample(self) -> float:
        begin = end = time.perf_counter()
        best = float("inf")
        while end - begin < SAMPLE_S:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            best = min(best, end - start)
        self.times.append(end)
        self.factors.append(self.reference_s / best)
        self.spent_s += end - begin
        return self.factors[-1]

    # Factors are combined by their harmonic mean, which is REFERENCE_S over
    # the mean probe time.  Over six disentangle-nmr4 runs it spread 0.020,
    # against 0.046 for the arithmetic mean, which noisy samples inflate.

    def factor_at(self, when: float) -> float:
        """Factor of the samples just before and just after ``when``."""
        i = bisect.bisect_left(self.times, when)
        return statistics.harmonic_mean(self.factors[max(0, i - 1) : i + 1])

    def factor_since(self, first: int) -> float:
        """Factor of the samples from index ``first`` on."""
        return statistics.harmonic_mean(self.factors[first:])
