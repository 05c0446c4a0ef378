"""Machine-speed calibration: a fixed kernel timed in between the workload.

On a shared machine other load slows the same code by 1.3-2x, for seconds
or for minutes at a time.  The benchmark runs this kernel every
``INTERVAL_S`` of workload time (between two cost evaluations), keeps the
kernel's time out of the workload's, and scales every timing metric by
``REFERENCE_S / mean kernel time`` in the same process: seconds at a
fixed machine speed.  The kernel does what the cost evaluations do, small complex
matrix-vector products through numpy plus interpreted Python, so other
load slows both alike.  The kernel is part of the benchmark, not of the
program: a change to the program does not change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 4.0e-3  # mean kernel time the factors are relative to
INTERVAL_S = 0.05  # workload time between two kernel runs
BURST_S = 0.2  # kernel time around each set-up probe

_rng = np.random.default_rng(20250420)
_M = (_rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))) / 8.0
_V = _rng.standard_normal(32) + 0j


def kernel(scale: int = 10) -> int:
    """About 0.25 ms per unit of ``scale`` of work of the kind a cost evaluation does."""
    x = _V
    for _ in range(20 * scale):
        x = _M @ x
        x = x / np.linalg.norm(x)
    s = 0
    for i in range(2000 * scale):
        s += i * i % 7
    return s


class Calibrator:
    """Kernel samples of one run; ``paused`` is the time they took."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.paused = 0.0
        self._last = time.perf_counter()
        if enabled:
            kernel()  # warm-up, not counted

    def _sample(self) -> None:
        began = time.perf_counter()
        kernel(2)  # untimed: brings caches and branch predictors back from the workload's state
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.paused += self._last - began

    def maybe(self) -> None:
        """Run the kernel if INTERVAL_S of workload time passed since the last run."""
        if self.enabled and time.perf_counter() - self._last >= INTERVAL_S:
            self._sample()

    def burst(self, seconds: float = BURST_S) -> None:
        """Run the kernel for about ``seconds`` (set-up probes are timed between bursts)."""
        end = time.perf_counter() + seconds
        while self.enabled and time.perf_counter() < end:
            self._sample()

    def factor(self) -> float:
        """REFERENCE_S over the mean kernel time; 1 without samples."""
        return REFERENCE_S / statistics.fmean(self.samples) if self.samples else 1.0
