"""Host speed, sampled while the measured work runs.

On a shared host the speed of the machine moves under the benchmark: whole
stretches of a minute or more run 1.2-1.5x slower, and the speed also moves
by 10-30% from one second to the next.  A run of half a minute sees one such
state, so the spread over runs is the spread of the host, whatever the run
measures.  The benchmark therefore times a fixed pure-Python computation in
a thread of its own process, every INTERVAL_S, while the worker process runs
the measured work on the other core, and reports times scaled to a nominal
host:

    scaled seconds = measured seconds * NOMINAL_S / mean reference time

where the mean is over the samples taken while that work ran.  Over
repeated runs of one cold job, the job's time and this mean correlated at
0.93, and the spread of the job's time fell from 0.24 to 0.08 once scaled.

A change to the program moves the measured seconds and leaves the reference
alone, so it shows in full.  This holds while the program runs on one core:
a change that made it use the second core as well would slow the reference
too and read better than it is.  The raw seconds and the reference times are
kept in the result record for that case.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from fractions import Fraction

# Mean time of reference_s() in the probe on the 2-vCPU Intel Xeon VM
# (Python 3.11.7) the benchmark was tuned on.  Only a scale.
NOMINAL_S = 0.0013
INTERVAL_S = 0.02  # about 5% of the other core


def reference_s(rounds: int = 120) -> float:
    """Seconds taken by a fixed computation of small rationals, tuples,
    dicts and a sort, the kind of work wallcross does.  The collector is
    off, so that a collection of the caller's heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        table: dict[int, tuple] = {}
        for i in range(1, rounds):
            q = Fraction(i % 97, i + 1)
            acc = max(acc, q * q - q / 3)
            table[i % 128] = (i, str(q), (q.numerator, q.denominator))
        sorted(table.values(), key=lambda row: row[1])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Samples reference_s() in a background thread until closed.  Sample
    start times are time.perf_counter() values, which on Linux share one
    clock with every process, so they can be matched against the time
    windows a worker reports."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> HostProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            took = reference_s()
            self.starts.append(start)
            self.times.append(took)

    def mean(self, windows) -> float:
        """Mean reference time of the samples that started inside any of
        the (start, end) windows."""
        picked = []
        for a, b in windows:
            lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
            picked += self.times[lo:hi]
        if not picked:
            raise RuntimeError("no host reference sample inside the measured windows")
        return statistics.mean(picked)


def scale(seconds: float, reference: float) -> float:
    """Seconds at nominal host speed, given the mean reference time."""
    return seconds * NOMINAL_S / reference
