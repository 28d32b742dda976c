"""Machine-speed correction for wall-clock times.

On a shared host the same code can run 1.7x slower in some seconds than in
others, in phases lasting seconds, with no steal time visible in the guest.
To keep run-to-run spread below the benchmark's bounds, a fixed reference
kernel is timed every SAMPLE_EVERY_S from a SIGALRM handler while a workload
runs, and each wall interval is rescaled to a nominal machine on which the
kernel takes REF_KERNEL_S. The kernel does the program's kind of work (a
numpy scan of a rate gap, then pure-Python log-space bisection) but is a
frozen copy kept here, so a change to vlc_noma never changes it.
"""

import bisect
import math
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.5e-3   # kernel time on the nominal machine
SAMPLE_EVERY_S = 0.05
BUCKET_S = 0.25        # samples in one bucket share one speed factor

_T = math.e / (2.0 * math.pi)
_GRID = np.logspace(0.0, 12.0, 256)


def _gap(g: float, r: float) -> float:
    x = _T * r * g
    shared = math.log2(1.0 + x / (r + g + 1.0)) + math.log2(1.0 + x / (r + 1.0))
    split = 0.5 * (math.log2(1.0 + _T * g) + math.log2(1.0 + _T * g * r))
    return shared - split


def _root(g: float, lo: float, hi: float) -> float:
    lo_positive = _gap(g, lo) >= 0.0
    while hi - lo > 1e-9 * hi:
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if (_gap(g, mid) >= 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo


def reference_kernel() -> float:
    acc = 0.0
    for g in (30.0, 100.0, 300.0, 1e3, 3e3, 1e4):
        x = _T * _GRID * g
        gaps = (np.log2(1.0 + x / (_GRID + g + 1.0)) + np.log2(1.0 + x / (_GRID + 1.0))
                - 0.5 * (np.log2(1.0 + _T * g) + np.log2(1.0 + _T * g * _GRID)))
        best = float(_GRID[int(np.argmax(gaps))])
        acc += _root(g, best, 1e13) + _root(g, 1.0, best)
    return acc


def kernel_seconds(repeats: int = 3) -> float:
    """Median time of a few back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples the kernel's speed while a block runs.

    Use as a context manager around the timed work, then convert wall
    intervals with `nominal`.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def nominal(self, starts, ends) -> list[float]:
        """Nominal-machine seconds of each wall interval [starts[i], ends[i]].

        Kernel time spent inside an interval is removed first; the rest is
        scaled by the time-weighted speed factor of the buckets it spans.
        """
        origin = self.samples[0][0]
        last = max(max(ends, default=origin), self.samples[-1][0])
        buckets: list[list[float]] = [[] for _ in range(int((last - origin) / BUCKET_S) + 1)]
        for start, seconds in self.samples:
            buckets[int((start - origin) / BUCKET_S)].append(seconds)
        factors = [REF_KERNEL_S / statistics.median(b) if b else None for b in buckets]
        known = [f for f in factors if f is not None]
        fill = known[0]
        for j, factor in enumerate(factors):
            if factor is None:
                factors[j] = fill
            else:
                fill = factor

        sampled_at = [start for start, _ in self.samples]
        own = [0.0]
        for _, seconds in self.samples:
            own.append(own[-1] + seconds)

        out = []
        for begin, end in zip(starts, ends):
            inside = (own[bisect.bisect_left(sampled_at, end)]
                      - own[bisect.bisect_left(sampled_at, begin)])
            first = max(0, int((begin - origin) / BUCKET_S))
            final = int((end - origin) / BUCKET_S)
            if first == final:
                factor = factors[first]
            else:
                scaled = 0.0
                for j in range(first, final + 1):
                    lo = max(begin, origin + j * BUCKET_S)
                    hi = min(end, origin + (j + 1) * BUCKET_S)
                    scaled += max(0.0, hi - lo) * factors[j]
                factor = scaled / (end - begin)
            out.append((end - begin - inside) * factor)
        return out
