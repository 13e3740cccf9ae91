"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python op can take 1.7 times as long from one minute to the next,
in CPU time as much as in wall time, and the speed also swings within a
fraction of a second.  So while a run's ops execute, a wall-clock timer
(``SIGALRM`` every ``INTERVAL_S``) interrupts them, between two bytecodes,
to time a small fixed piece of pure-Python work (``reference_work``, which
uses no library code).  The interruptions are subtracted from the op times,
and every time is rescaled by the host speed the samples show over the
whole run:

    normalised seconds = wall seconds * NOMINAL_S * mean(1 / reference seconds)

that is, the time on a host whose speed makes the reference take
``NOMINAL_S``.  The samples are spread evenly over the run's time, so the
mean of their reciprocals is its mean host speed.  A change to the library
moves the ops and not the reference, so it shows in full; a change of host
speed moves both and cancels.
"""

from __future__ import annotations

import contextlib
import signal
import time

# Reference seconds that define the nominal host speed (the reference's
# typical time on a 2-vCPU Xeon box with Python 3.11).
NOMINAL_S = 0.001
# Wall seconds between two reference samples.
INTERVAL_S = 0.04

_Q = 3


def _lcg_rows(nrows: int, ncols: int) -> list[list[int]]:
    """A fixed pseudo-random matrix mod _Q (full rank in practice)."""
    x, rows = 12345, []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            x = (x * 1103515245 + 12345) % 2**31
            row.append((x >> 16) % _Q)
        rows.append(row)
    return rows


_ROWS = _lcg_rows(12, 24)
_POINTS = [(a, b, (a + b * b) % _Q) for a in range(_Q) for b in range(_Q)]


class _Vec:
    """A small value object with an overloaded +, like a field vector."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Vec(tuple((a + b) % _Q for a, b in zip(self.c, other.c)))


def reference_work() -> int:
    """Fixed pure-Python work in the library's idiom; returns a checksum.

    Row reduction mod 3 on list rows, a set of tuple sums and value-object
    additions: the kinds of step the library's elimination, sumset and field
    code are made of.
    """
    m = [row[:] for row in _ROWS]
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, _Q)
        m[r] = [(inv * v) % _Q for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(vi - f * vr) % _Q for vi, vr in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    sums = {tuple((a + b) % _Q for a, b in zip(s, t)) for s in _POINTS for t in _POINTS}
    vecs = [_Vec(p) for p in _POINTS]
    acc = vecs[0]
    for v in vecs * 8:
        acc = acc + v
    return r + len(sums) + sum(acc.c)


class SpeedLog:
    """Reference samples taken during one run, and the scale they give.

    ``busy`` is the wall time spent in samples so far; a caller timing an
    interval subtracts its growth over the interval.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.busy = 0.0

    def sample(self) -> None:
        """Time reference_work once its code and data are back in cache.

        A sample interrupts an op, whose work evicts the reference's; the
        untimed first call pays that refill, which would otherwise add a
        cost that does not follow the host's speed.
        """
        start = time.perf_counter()
        reference_work()
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.seconds.append(t1 - t0)
        self.busy += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every INTERVAL_S wall seconds until the block exits."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """NOMINAL_S times the mean reciprocal reference time of the run."""
        if not self.seconds:
            raise ValueError("no reference sample was taken")
        return NOMINAL_S * sum(1 / t for t in self.seconds) / len(self.seconds)
