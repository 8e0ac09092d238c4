"""Summary statistics, failure counting and machine-speed calibration
shared by the benchmark parts.  Nothing here imports the program under
test.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import time
from contextlib import contextmanager

#: A tail percentile is reported only when at least this many samples lie
#: beyond it, so that one outlier cannot set it on its own.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence of numbers."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def tail_percentile(values, q):
    """Nearest-rank ``q``-th percentile, or None when fewer than
    MIN_BEYOND samples lie beyond it (p99 therefore needs 1000 samples)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    xs = sorted(values)
    rank = math.ceil(round(q * len(xs) / 100, 9))  # rounding: 99.9 * 10000 is not exact
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


class Tally:
    """Attempted and failed jobs.  A job fails when its answer is wrong,
    its exit code is wrong, or it raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: 20 - len(self.reasons)])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: Times are reported as if the reference kernel took exactly this long
#: while they were measured (about its median time on a shared 2-vCPU
#: x86-64 virtual machine with Python 3.11).
REFERENCE_S = 0.0015

#: Seconds between two runs of the reference kernel during a measurement.
SAMPLE_EVERY_S = 0.05

_rng = random.Random(0)
_HOSTS = [tuple(_rng.sample(range(1, 11), 10)) for _ in range(12)]
_BASE = tuple(range(1, 13))


def _embeds(pat, host) -> bool:
    """Backtracking search for ``pat``'s relative order in ``host``."""
    k, n = len(pat), len(host)
    chosen = []
    pos = 0
    while True:
        j = len(chosen)
        if j == k:
            return True
        while pos <= n - (k - j):
            v = host[pos]
            if all((pat[i] < pat[j]) == (host[c] < v) for i, c in enumerate(chosen)):
                break
            pos += 1
        else:
            if not chosen:
                return False
            pos = chosen.pop() + 1
            continue
        chosen.append(pos)
        pos += 1


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds the program's inner loops do:
    tuple slicing and concatenation, indexing, comparisons, backtracking.
    About 1.5 ms."""
    acc = 0
    for _ in range(60):
        for q in range(12):
            for v in _BASE[:q] + (13,) + _BASE[q:]:
                acc += v if v < q else -v
    for host in _HOSTS:
        acc += _embeds((2, 5, 3, 1, 4), host)
    return acc


class Speedometer:
    """Scales measured times to a reference machine speed.

    On a shared machine one core's speed drifts by 20-30% over seconds to
    minutes, far more than a benchmark run can average out.  While
    ``running``, a timer signal runs the reference kernel every
    SAMPLE_EVERY_S seconds, between two bytecodes of whatever is being
    measured.  A time is then scaled by REFERENCE_S over the kernel's mean
    time around it, after the kernel's own time is taken out.  The kernel
    shares no code with the program, so a change to the program moves the
    scaled times as much as the raw ones.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        """Run and time the kernel once."""
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.loops.append(time.perf_counter() - start)

    def _tick(self, signum, frame):
        self.sample()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, margin: float = 0.5) -> float:
        """The time from ``start`` to ``end`` without the kernel runs inside
        it, at the reference speed; the speed is the kernel's mean over the
        interval widened by ``margin`` seconds each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.loops[lo:hi])
        near = self.loops[
            bisect.bisect_left(self.starts, start - margin) : bisect.bisect_left(self.starts, end + margin)
        ]
        if not near:
            raise ValueError("no reference samples near the interval")
        return net * REFERENCE_S * len(near) / sum(near)
