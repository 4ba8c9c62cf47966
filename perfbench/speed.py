"""Host speed probe: times on a shared host, scaled to a reference speed.

On a shared host the speed of the CPUs a run gets can drift by tens of
percent within seconds and minutes, as neighbours come and go (measured
on a 2-CPU share of a shared x86-64 host).  A run therefore times a fixed reference kernel all through its
timed phase and scales every measured time by
REF_KERNEL_S / (kernel time at that moment): a time reported by the
benchmark is the time the work would have taken on a host where the
kernel takes REF_KERNEL_S.  On a steady host the scale is a constant;
the raw times are printed beside it.

The kernel is exact `Fraction` matrix arithmetic, as the library's hot
paths are, and it imports nothing from liecert, so a change to the
library never changes the scale.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.004  # kernel time that defines the reference speed
PROBE_REPEATS = 3  # a probe is the median of this many kernel runs
PROBE_EVERY_S = 0.25  # pause between the end of one probe and the next
SMOOTH = 2  # each probe is replaced by the median of itself and SMOOTH neighbours a side


def to_reference(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took kernel_s, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


def kernel() -> int:
    """Three 6x6 rational matrix products, then a reduced row echelon form."""
    rng = random.Random(1)
    n = 6
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    b = [row[:] for row in a]
    for _ in range(3):
        b = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if b[i][c]), None)
        if p is None:
            continue
        b[rank], b[p] = b[p], b[rank]
        inv = 1 / b[rank][c]
        b[rank] = [x * inv for x in b[rank]]
        for i in range(n):
            if i != rank and b[i][c]:
                f = b[i][c]
                b[i] = [x - f * y for x, y in zip(b[i], b[rank])]
        rank += 1
    return rank


def probe() -> float:
    """Kernel time now: the median of PROBE_REPEATS runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Probes the host while it is entered, from a SIGALRM timer.

    The probes interrupt the work in the same thread, so they never run
    beside it; `measure` leaves their time out.  It probes once on entry
    and once on exit, so every moment in between lies between two probes
    and is scaled by the mean of those two, after a running median over
    the probes has removed single slow probes (an interrupt, a page fault).
    """

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self.smoothed: list[float] = []

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        k = probe()
        self.probes.append((t0, time.perf_counter(), k))

    def _tick(self, *_) -> None:
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def __enter__(self) -> Speedometer:
        self._probe()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._probe()
        ks = self.kernel_times()
        self.smoothed = [statistics.median(ks[max(0, i - SMOOTH):i + SMOOTH + 1])
                         for i in range(len(ks))]

    def kernel_times(self) -> list[float]:
        return [k for _, _, k in self.probes]

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of [start, end] outside the probes: raw and at reference speed."""
        raw = scaled = 0.0
        for i, ((_, lo, _), (hi, _, _)) in enumerate(zip(self.probes, self.probes[1:])):
            lo, hi = max(start, lo), min(end, hi)
            if hi > lo:
                raw += hi - lo
                scaled += to_reference(hi - lo, (self.smoothed[i] + self.smoothed[i + 1]) / 2)
        return raw, scaled
