"""A CPU clock rescaled to a fixed reference host speed.

On a virtual machine that shares physical cores with other tenants, the
CPU time of the same work can swing by up to 2x within seconds: on a
2-vCPU VM under CPython 3.11, a fixed pure-Python loop took ~18, ~29 or
~34 ms depending on the moment.  A run's median would follow whichever
speed state the run happened to fall into.  :class:`ReferenceClock`
instead re-measures the host's speed every ``PERIOD_S`` seconds with a
short fixed probe and
advances at ``REFERENCE_PROBE_S / probe time`` CPU seconds per second, so
its readings are what the same work would take on a host where the probe
takes exactly ``REFERENCE_PROBE_S``.  The probe is pure Python and touches
no repository code, so a change to the program moves the clock's readings
exactly as it moves raw CPU time.

The probe runs from a ``SIGALRM`` interval timer, i.e. between bytecodes
of whatever the benchmark is executing, including long calls such as a
cover build; its own CPU time is excluded from the readings.  The timer
counts wall time on purpose: arming a CPU-time timer (``ITIMER_PROF``)
makes Linux serve the process CPU clock from its tick-granular group
timer, so short spans would read 0.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from collections import deque

#: Probe seconds on the reference host: the median probe time measured on
#: a 2-vCPU VM under CPython 3.11.
REFERENCE_PROBE_S = 0.0005

#: Wall seconds between probes.
PERIOD_S = 0.05

#: Recent probes whose median sets the current speed (one outlier probe,
#: e.g. one that ran on cold caches, does not move the clock).
WINDOW = 5


def probe() -> float:
    """Seconds of a fixed loop of heap, dict, tuple and float work — the
    operations the simulator's event loop is made of.

    Timed with ``perf_counter``, which costs a fifth of a CPU-clock read;
    a probe is short enough to rarely lose the core midway, and the clock
    takes the median of several."""
    start = time.perf_counter()
    heap = []
    table = {}
    acc = 0.0
    for i in range(500):
        heapq.heappush(heap, ((i * 0.618) % 1.0, i))
        table[i & 127] = (i, acc)
        acc += (i * 0.6180339887498949) % 1.0
        if i & 1:
            heapq.heappop(heap)
    return time.perf_counter() - start


class ReferenceClock:
    """Callable clock in reference-host CPU seconds; use as a context
    manager to run the speed probes while it is open."""

    def __init__(self) -> None:
        self._recent = deque(maxlen=WINDOW)
        # (reference reading, raw CPU reading, scale) at the last rescale:
        # one attribute, so a reader never sees half of a rescale the
        # signal handler made between two of its bytecodes.
        self._state = (0.0, time.process_time(), 1.0)
        self._previous_handler = None

    def __enter__(self) -> "ReferenceClock":
        for _ in range(WINDOW):
            self._recent.append(probe())
        self._rescale(time.process_time())
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def __call__(self) -> float:
        ref, raw, scale = self._state
        return ref + (time.process_time() - raw) * scale

    def _rescale(self, now: float) -> None:
        ref, raw, scale = self._state
        self._state = (
            ref + (now - raw) * scale,
            time.process_time(),
            REFERENCE_PROBE_S / statistics.median(self._recent),
        )

    def _tick(self, signum, frame) -> None:
        now = time.process_time()
        self._recent.append(probe())
        self._rescale(now)
