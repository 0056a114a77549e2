"""Host-speed probe, for timing on a shared host.

A shared host runs the same code 1.5-2x slower in phases that last seconds
to minutes, so the wall time of one run says as much about the neighbours as
about the program.  `HostClock` measures the host's speed while the program
runs: every INTERVAL_S a SIGALRM handler runs `probe`, a fixed piece of pure
Python that does not depend on the library, and records how long it took.
The probe walks a table small enough to stay in the core's caches, so its
time does not depend on what the program left there, and it allocates
nothing the garbage collector tracks.  The time spent in probes is taken out
of every interval timed with `mark`/`since`, and

    scaled(work_s) = work_s * NOMINAL_S / (mean probe time in the same span)

gives the work's time at the host speed at which one probe takes NOMINAL_S:
a slow phase stretches the probe and the program alike.  On a 2-vCPU KVM
guest of a Xeon (Sapphire Rapids) host, over 400 s of repeated LCM and mult5
solves, the mean probe time of each 4-40 s window tracked the window's solve
time with correlation 0.94-0.99, and scaling cut the windows' spread
(quartile distance over median) from 0.13 to 0.04.  A change to the
library moves the work's time and not the probe's, so it shows in full.
The probe runs in the main thread between bytecodes of the program; the
program's single thread is the only one, so nothing else is interrupted.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.1
PROBE_STEPS = 30_000
# about the median time of one probe on a 2-vCPU KVM guest of a 2.1 GHz
# Xeon (Sapphire Rapids) host, CPython 3.11
NOMINAL_S = 0.005

_SIZE = 1 << 10


def _tables() -> tuple[list[int], dict[int, int]]:
    # Sattolo's shuffle: one cycle through every slot, so the walk visits
    # the whole table instead of a short loop.
    nxt = list(range(_SIZE))
    rng = random.Random(1)
    for i in range(_SIZE - 1, 0, -1):
        j = rng.randrange(i)
        nxt[i], nxt[j] = nxt[j], nxt[i]
    return nxt, {i: (i * 2654435761) & 0xFFFFF for i in range(_SIZE)}


_NEXT, _TABLE = _tables()


def probe() -> int:
    nxt, table = _NEXT, _TABLE
    i = acc = 0
    for _ in range(PROBE_STEPS):
        i = nxt[i]
        acc = (acc + 3 * table[i]) & 0xFFFFFFF
    return acc


class HostClock:
    """While entered, probe the host every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.probe_s = 0.0
        self.probes = 0

    def run_probe(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.probe_s += time.perf_counter() - t0
        self.probes += 1

    def _tick(self, signum, frame) -> None:
        self.run_probe()

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.probe_s, self.probes

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float, int]:
        """(wall time without probes, probe time, probes) since mark."""
        t, ps, n = mark
        probe_s = self.probe_s - ps
        return time.perf_counter() - t - probe_s, probe_s, self.probes - n


def scale(work_s: float, probe_s: float, probes: int) -> float:
    """work_s at the host speed where one probe takes NOMINAL_S."""
    if probes == 0:
        raise ValueError("no probe ran in the timed span")
    return work_s * NOMINAL_S / (probe_s / probes)
