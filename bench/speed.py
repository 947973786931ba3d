"""Machine-speed probes, to scale CPU times to a reference speed.

On a shared host the same code takes more or less CPU time as other guests
load the core it runs on: a ``chain-d-cli`` pass took 7.6 to 13.3 CPU seconds
within three minutes of one process.  A fixed probe slows down with it.  A
SIGPROF timer interrupts the run every ``INTERVAL`` seconds of process CPU
time and times the probe with the thread's CPU clock.  The mean of
``REFERENCE / probe time`` over a stretch of work is the machine's speed
relative to the reference, and CPU time times that speed is the time the work
would have taken at the reference speed.

The probe formats 60 floats, a few hundred bytes of data, so its time does
not depend on how much memory the program under test touches: a change that
shrinks the program's working set cannot speed the probe up and so hide its
own gain.  Of the small probes tried (filling a dict, formatting floats,
parsing JSON), this one followed the passes of all three workloads closest.
"""

from __future__ import annotations

import signal
import time

#: process CPU seconds between two probes
INTERVAL = 0.02

#: CPU seconds the probe takes at the reference speed: about its time on a
#: quiet core of the 2-core Xeon VM the benchmark was built on
REFERENCE = 1e-4


#: the probe's input: fractions of the golden ratio, 16 or 17 digits each
FLOATS = [(i * 0.6180339887498949) % 1.0 for i in range(1, 61)]


def probe() -> str:
    return ",".join([repr(x) for x in FLOATS])


class SpeedSampler:
    """Probes the machine's speed while the process runs, one instance per run."""

    def __init__(self):
        self.samples: list[float] = []  # thread CPU seconds of each probe
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a signal still pending must not end the process with SIGPROF's default action
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a timer that fires while the probe runs is dropped
            return
        self._busy = True
        try:
            start = time.thread_time()
            probe()
            self.samples.append(time.thread_time() - start)
        finally:
            self._busy = False

    def mark(self) -> int:
        """Where the next stretch of work starts, for :meth:`scale`."""
        return len(self.samples)

    def scale(self, cpu: float, since: int) -> tuple[float, float]:
        """Reference seconds and speed of the work since ``mark() == since``.

        ``cpu`` is the process CPU time of that work; the probes that ran
        inside it are taken out before scaling.  Work too short for the timer
        to fire is scaled by a probe made now.
        """
        if len(self.samples) == since:
            self._on_timer(signal.SIGPROF, None)
            inside = []
        else:
            inside = self.samples[since:]
        taken = self.samples[since:]
        speed = sum(REFERENCE / max(t, 1e-9) for t in taken) / len(taken)
        return max(cpu - sum(inside), 0.0) * speed, speed
