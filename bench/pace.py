"""CPU speed sampled inside the measured process.

The machine the benchmark was defined on shares its cores with other
tenants, and the same work runs up to twice as fast or slow from one
stretch of seconds or minutes to the next. A probe run in another process
did not track it (see NOTES.md). So a timer signal runs a fixed probe
every ``INTERVAL_S`` of wall time in the measured process itself, between
the program's own bytecodes.

A timing is then reported in reference seconds: the time less the
probes' own time, times the mean over the samples of
``REFERENCE_S / probe time``. That is the time the work would take on a
core where the probe takes ``REFERENCE_S``. The probe is the benchmark's
code, so a change to the program moves the reference time as it moves the
wall time. The probe is timed in the thread's CPU time, so a stretch in
which the process waits for a core does not read as a slow core.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 1e-4  # the probe's time on the reference machine, rounded


def probe() -> float:
    """Fixed interpreter work of about REFERENCE_S: calls, float math, a loop."""
    total = 0.0
    for i in range(1, 400):
        total += math.log1p(i * 1e-6) - math.exp(-i * 1e-5)
    return total


class Pacer:
    """Samples the probe's time on a wall-clock timer while started."""

    def __init__(self):
        self.ratios: list[float] = []  # REFERENCE_S / probe time, per sample
        self.spent = 0.0  # CPU time spent in the probe
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late signal while a probe runs
            return
        self._busy = True
        began = time.thread_time()
        probe()
        took = time.thread_time() - began
        self.spent += took
        self.ratios.append(REFERENCE_S / took)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """State to pass to ``since``: samples taken and probe time so far."""
        return len(self.ratios), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float | None]:
        """(probe time, mean speed ratio) of the samples taken after mark.

        The ratio is None when no sample was taken; the caller then uses
        the ratio of a wider interval.
        """
        count, spent = mark
        ratios = self.ratios[count:]
        return self.spent - spent, (math.fsum(ratios) / len(ratios) if ratios else None)


def reference_seconds(elapsed: float, spent: float, ratio: float) -> float:
    """Wall or CPU time less probe time, scaled to the reference machine's speed."""
    return (elapsed - spent) * ratio
