"""CPU timings corrected for the host's CPU speed.

On a shared VM the CPU runs in speed phases: a fixed pure-Python loop
takes 1.5 ms in some seconds and 2.2-2.5 ms in others, and the phases
last from seconds to about a minute.  CPU time does not remove that
(the work really takes longer), so ten 40-second runs of the same code
spread by 0.2-0.35 (quartile distance over median) in their latencies,
above any bound that could catch a regression.

A :class:`HostClock` therefore runs a fixed probe loop between the
timed operations, never inside one, about every PROBE_INTERVAL_S of
CPU time, and scales each timing by ``REFERENCE_PROBE_S`` over the
median of the probes around it (the two before it and the one after
it).  A timing is reported as the CPU time it would have taken at the
reference speed; the uncorrected times are kept as well.  The probe
uses only small ints and one fixed dict: it allocates no object the
garbage collector tracks, so the program's heap does not change what
it measures.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Tuple

#: The clock every timing reads: this process's CPU time.  It holds the
#: program's own work, the system calls of its fsyncs included, but not
#: the wait for the disk to complete them, nor time the hypervisor
#: steals.  On a shared VM disk the fsync wait swings 3x from minute to
#: minute (mean 0.11 to 0.34 ms per fsync), which moved the wall-clock
#: records/s by 0.32 (quartile distance over median) over five seeds.
#: A change to the fsync policy still shows in wal.fsyncs; the report
#: line has the wall-clock rate too.
CLOCK = time.process_time

PROBE_ITERATIONS = 8000
#: The probe's CPU time in the fast phase (its 5th to 25th percentile
#: over 20 s) on a 2-vCPU x86_64 VM (Intel Xeon, Python 3.11).
REFERENCE_PROBE_S = 1.5e-3
#: CPU time between probes: ~1.5% of a run goes to probing.
PROBE_INTERVAL_S = 0.1

_PROBE_TABLE = dict.fromkeys(range(512), 0)


def _probe_loop() -> int:
    table = _PROBE_TABLE
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + table[i & 511] + i) % 1000003
        table[i & 511] = acc
    return acc


class HostClock:
    """Named series of CPU timings, each with the probes around it."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        #: ``(series, seconds, probes taken before it)``
        self._samples: List[Tuple[str, float, int]] = []
        self._last_probe = -math.inf

    def probe(self) -> None:
        started = CLOCK()
        _probe_loop()
        self._last_probe = CLOCK()
        self.probes.append(self._last_probe - started)

    def probe_if_due(self) -> None:
        if CLOCK() - self._last_probe >= PROBE_INTERVAL_S:
            self.probe()

    def record(self, series: str, seconds: float) -> None:
        self._samples.append((series, seconds, len(self.probes)))

    def series(self, corrected: bool = True) -> Dict[str, List[float]]:
        """Every series' timings in recording order, in seconds.  Call
        it after a last :meth:`probe`, so every timing has one after
        it."""
        out: Dict[str, List[float]] = {}
        for name, seconds, before in self._samples:
            if corrected:
                around = self.probes[max(0, before - 2):before + 1]
                seconds *= REFERENCE_PROBE_S / statistics.median(around)
            out.setdefault(name, []).append(seconds)
        return out
