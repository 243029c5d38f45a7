"""Rescale measured time to a reference machine speed.

The machine the benchmark runs on is shared: another tenant's load slows a
pure-Python loop by up to half for seconds at a time, and CPU time slows
with it, so neither wall time nor CPU time of one run is steady.  A
``SpeedProbe`` samples the speed of the benchmark's own process while the
workload runs: a timer signal interrupts the workload every ``INTERVAL_S``
seconds and times a fixed, interpreter-bound loop that uses no ``aqcc``
code but works the way aqcc's inner loops do: scalar lookups in small
numpy tables from Python, converted back to ``int``, between dict and list
updates.  (A loop of plain integer arithmetic is the wrong probe: it slows
less than aqcc does under load.)  ``REFERENCE_PROBE_S`` is that loop's time
on an unloaded reference machine, so a probe that takes twice as long says
the process is running at about half speed.

``speed_now`` runs the probe a few times in a row, for spans of the
benchmark that cannot be interrupted, such as waiting on a child process.

``scaled`` turns the wall time of a span of the workload into reference
seconds: the span's own time (probe time taken out) times the mean of
``(REFERENCE_PROBE_S / probe) ** SENSITIVITY`` over the probes inside it
and just around it.  A change to aqcc that makes it slower makes the
scaled time larger by the same share; a burst of load from outside mostly
cancels, because it slows the probe too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# a span's speed comes from the probes within this many seconds of it: a
# spell of outside load lasts seconds, and one probe alone is noisy
HALO_S = 0.25
PROBE_LOOPS = 250
_TABLE = np.arange(32 * 32, dtype=np.int32).reshape(32, 32) % 31
_ROW = np.arange(32, dtype=np.int32)
# the probe's time, interleaved with aqcc work, at the fast spells of a
# 2-vCPU "Intel(R) Xeon(R) Processor" virtual machine with Python 3.11.7:
# about the 5th percentile of the probes in one benchmark run
REFERENCE_PROBE_S = 0.45e-3
# aqcc slows by less than the probe under outside load: over 20 runs of
# each workload, time rescaled by the full probe ratio still fell by 4-10 %
# from the machine's fast spells to its slow ones; this exponent on the
# ratio took that trend out on all three workloads
SENSITIVITY = 0.9


def probe_work() -> int:
    """The fixed loop the probe times."""
    seen, pairs = {}, []
    a, b = 1, 2
    for i in range(PROBE_LOOPS):
        a = _scalar(_TABLE[a, b])
        b = _scalar(_ROW[(a + i) & 31])
        seen[a, b] = i
        pairs.append((a, b))
    return len(seen) + len(pairs)


def _scalar(r):
    return int(r) if np.ndim(r) == 0 else r


def relative_speed(probe_seconds: float) -> float:
    """Speed of the process relative to the reference, from one probe time."""
    return (REFERENCE_PROBE_S / probe_seconds) ** SENSITIVITY


def speed_now(samples: int = 5) -> float:
    """relative_speed of the median of `samples` probe runs, now."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - start)
    return relative_speed(statistics.median(times))


class SpeedProbe:
    """Times ``probe_work`` on a timer signal while the context is open."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._old = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def summary(self) -> str:
        if len(self.seconds) < 2:
            return f"{len(self.seconds)} probe(s)"
        q = statistics.quantiles(self.seconds, n=20)
        return (f"{len(self.seconds)} probes, 5th percentile {q[0] * 1e3:.4g} ms, "
                f"median {statistics.median(self.seconds) * 1e3:.4g} ms, "
                f"95th percentile {q[-1] * 1e3:.4g} ms, "
                f"reference {REFERENCE_PROBE_S * 1e3:.4g} ms")

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(own seconds, reference seconds) of the span [start, end].

        Probes inside the span are taken out of its own time.  Its speed is
        the mean over the probes within HALO_S of it, or, when there are
        none, the speed of the probe nearest to its middle.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - sum(self.seconds[lo:hi])
        inside = self.seconds[bisect.bisect_left(self.starts, start - HALO_S):
                              bisect.bisect_left(self.starts, end + HALO_S)]
        if not inside:
            if not self.seconds:
                return own, own
            mid = (start + end) / 2
            k = bisect.bisect_left(self.starts, mid)
            near = [j for j in (k - 1, k) if 0 <= j < len(self.starts)]
            inside = [self.seconds[min(near, key=lambda j: abs(self.starts[j] - mid))]]
        speed = sum(relative_speed(s) for s in inside) / len(inside)
        return own, own * speed
