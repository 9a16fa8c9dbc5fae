"""Measurement helpers: speed calibration and peak memory.

Speed calibration
-----------------

On a host shared with other tenants the same pure-Python work runs 20-40 %
slower or faster from one minute to the next, so raw wall times of separate
runs spread more than any useful regression bound. While a pass runs,
:class:`SpeedProbe` times a fixed pure-Python loop every 5 ms from a SIGALRM
handler (about 0.6 % of the time). The mean probe time over an interval
tracks the speed the host gave this process during it, and a time measured
over that interval is scaled by ``NOMINAL_PROBE_S / mean probe time``:
seconds as they would read on a core running the probe at its nominal
speed. On a 2-vCPU virtual machine this cut the run-to-run spread
(quartile distance over median) of ``random-offline`` over ten seeds from
11 % to 7 %, with each call scaled by the samples taken during it; on the
cache-bound set comparisons of ``nondeducible-query`` it did not help.

A process blocked on a child samples its own wake-ups, not the child's
speed, so CLI children run under the probe themselves (cli_child.py) and
report it back.

Peak memory
-----------
``ru_maxrss`` (from getrusage or wait4) of a process started by fork and
exec also counts the parent's resident set at the fork, because exec keeps
the old image's high-water mark. :func:`peak_rss_mb` reads the process's
own ``VmHWM`` instead, which covers only the image after exec.
"""

from __future__ import annotations

import resource
import signal
from time import perf_counter

# Probe time on an uncontended core of the 2-vCPU reference machine.
NOMINAL_PROBE_S = 25e-6
INTERVAL_S = 0.005


def _probe() -> int:
    x = 0
    for i in range(300):
        x += (i * 7) & 15
    return x


class SpeedProbe:
    """Context manager sampling the probe for as long as it is active.

    ``spent`` is the time spent inside the probe itself, which callers
    subtract from the intervals they time.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe()
        self.spent += perf_counter() - t0
        self.samples += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        return speed_factor(self.spent, self.samples)


def speed_factor(spent: float, samples: int) -> float:
    """Scale from measured to nominal-speed seconds (1.0 without samples)."""
    return NOMINAL_PROBE_S * samples / spent if samples else 1.0


def peak_rss_mb() -> float:
    """Peak resident set of this process since its exec, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
