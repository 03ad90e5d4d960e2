"""CPU-speed probes: times of a pass at the uncontended speed of the CPU.

    python3 bench/speed.py    # one set-up sample: import cuntzlab.cli under a probe

The CPUs of a shared host run a process at one of two speeds, about a
factor 2 apart, and flip between them every few milliseconds; the mix
changes over minutes (NOTES.md, "Steadiness").  The time of a command
of a second or more is then set by that mix as much as by the program.

A Probe times a fixed bytecode loop on every SIGALRM of an interval
timer, every INTERVAL_S of wall time, in the thread that runs the
program.  The probes sample the speed at which the program itself is
running, evenly over its time.  A measured time then converts to the time
the same work takes at the reference speed:

    scaled = seconds * mean over the probes in the window of (REF_PROBE_S / probe time)

This is the work done at the reference speed, if the probes sample time
evenly.  A ratio of means, REF_PROBE_S / mean probe time, would let one
probe that the host preempts for milliseconds outweigh the rest.

REF_PROBE_S is the loop's time at the fast speed on the machine the
benchmark was tuned on, so scaled times read as seconds there.  It is a
constant, so two commits compared on one machine share it.

Run as a script, the module is one set-up sample: it installs a probe,
imports cuntzlab.cli and prints the mean of REF_PROBE_S / probe time,
which run.py multiplies with the time from spawn to exit.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.001
REF_PROBE_S = 7.5e-6
# a window with fewer probes (a command of a few milliseconds) is widened
# to this many around it
MIN_PROBES = 16
_LOOP = range(200)


class Probe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.factors: list[float] = []

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        x = 0
        for i in _LOOP:
            x += i * 3
        self.starts.append(t0)
        self.factors.append(REF_PROBE_S / (clock() - t0))

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean of REF_PROBE_S / probe time over [t0, t1), or over every probe.

        A window with fewer than MIN_PROBES probes takes the nearest ones
        on either side as well.
        """
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("no speed probe fired: the window is too short to scale")
        i = 0 if t0 is None else bisect.bisect_left(self.starts, t0)
        j = n if t1 is None else bisect.bisect_left(self.starts, t1)
        while j - i < min(MIN_PROBES, n):
            if i > 0:
                i -= 1
            if j < n and j - i < MIN_PROBES:
                j += 1
        window = self.factors[i:j]
        return sum(window) / len(window)

    def scaled(self, t0: float, seconds: float) -> float:
        return seconds * self.factor(t0, t0 + seconds)


if __name__ == "__main__":
    probe = Probe()
    probe.install()
    import cuntzlab.cli  # noqa: F401

    probe.uninstall()
    print(repr(probe.factor()))
