"""Host-speed normalization: time the program in reference seconds.

The benchmark runs on a shared host whose speed drifts by up to 2x within
seconds to minutes, far more than any bound a comparison could use.  While a
workload is timed, a SIGALRM timer interrupts it every PERIOD_S seconds of
wall time and runs a short, fixed calibration kernel made of the kinds of
work the library does.  The kernel is frozen here and shares no code with the
library, so a change to the library can neither speed it up nor slow it down.

`Sampler.ref` maps perf_counter readings to reference seconds: calibration
runs count zero, and each stretch of program time between two calibrations is
scaled by REF_KERNEL_S / (the kernel's local time, a running median over
SMOOTH calibrations).  An interval then reads as the time the program would
have taken on a host on which one kernel run takes REF_KERNEL_S.  A slower
program reads slower in full; a slower host does not.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# The unit of reference seconds: the time one kernel run takes on the
# reference host.  On the 2-vCPU x86-64 VM the benchmark was sized on
# (Python 3.11, numpy 2.4) the kernel took about 1.5 ms while the VM ran fast
# and 2 to 3 ms while it ran slow.
REF_KERNEL_S = 1.5e-3
SMOOTH = 5  # calibrations per running median, and run before and after timing

_RNG = np.random.default_rng(20250508)
_POLYS = [_RNG.standard_normal(13) for _ in range(2)]
_Z0 = np.exp(1j * (2.0 * np.pi * (np.arange(12) + 0.25) / 12 + 0.42))
_X = np.linspace(-1.0, 1.0, 21)
_CHEB = _RNG.standard_normal(16)


def kernel():
    """One calibration run: a fixed amount of work in three parts, like the
    library's: Aberth-style sweeps on small complex arrays with `np.roots`,
    Chebyshev series on panel-sized arrays, and a plain Python loop."""
    acc = 0.0
    for p in _POLYS:
        z = _Z0.copy()
        for _ in range(6):
            pv = np.full_like(z, p[0])
            for c in p[1:]:
                pv = pv * z + c
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            z = z - 1e-3 * pv / (1.0 + np.sum(1.0 / diff, axis=1))
        acc += float(np.abs(np.roots(p)).max()) + float(np.abs(z).sum())
    for j in range(16):
        v = np.polynomial.chebyshev.chebval(0.9 * _X + 0.01 * j, _CHEB)
        acc += float(np.dot(v, _X)) + float(np.max(np.abs(v)))
    k = 0
    for i in range(5000):
        k += i * i % 7
    return acc + k


def kernel_s(runs: int = SMOOTH) -> float:
    """Median time of `runs` kernel runs, measured now."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Interleaves calibration runs with the timed program; see the module doc.

    Every interval to be converted must lie between start() and stop().
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list = []
        self.ends: list = []
        self._old = None
        self._busy = False
        self._knots = self._ref_at_knots = None

    def _calibrate(self, *_):
        if self._busy:  # a signal that arrived during a calibration
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def start(self):
        for _ in range(SMOOTH):
            self._calibrate()
        self._old = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        for _ in range(SMOOTH):
            self._calibrate()
        self._build_map()

    def _build_map(self):
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        dur = ends - starts
        half = SMOOTH // 2
        local = np.array([np.median(dur[max(0, i - half):i + half + 1]) for i in range(len(dur))])
        scale = REF_KERNEL_S / local
        # the stretch before calibration i runs at the mean scale of i - 1 and i
        gap_scale = 0.5 * (scale[1:] + scale[:-1])
        gaps = (starts[1:] - ends[:-1]) * gap_scale
        ref_start = np.concatenate([[0.0], np.cumsum(gaps)])
        self._knots = np.column_stack([starts, ends]).ravel()
        self._ref_at_knots = np.repeat(ref_start, 2)

    def ref(self, t):
        """Reference seconds elapsed at perf_counter reading(s) t (after stop())."""
        return np.interp(t, self._knots, self._ref_at_knots)

    def ref_s(self, t0: float, t1: float) -> float:
        """Program time of [t0, t1] in reference seconds."""
        return float(self.ref(t1) - self.ref(t0))

    def host_kernel_s(self) -> float:
        """Median kernel time over the run: how fast the host was."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
