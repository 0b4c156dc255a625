"""Host-speed probe.

The host is shared: other tenants slow this process by up to 1.9x, in
bursts of a fraction of a second and in drifts over minutes, and CPU time
slows with wall time. While running, a timer times a fixed integer loop every
PERIOD_S. The loop slows less than the program when other tenants are busy:
the log of the program's rate follows the log of the loop's with a slope of
about SENSITIVITY. Speed over an interval is therefore the mean of
REF_S / loop time, raised to SENSITIVITY: 1.0 on the quiet reference host,
lower while slowed. Time x speed is the time the interval would take on the
reference host.

The probe is meant to see the host, not the program it interrupts. It
creates no object that the garbage collector tracks, so no collection of the
program's heap can start inside it, and it touches no memory beyond its own
code and small integers. It runs the loop once untimed first, so a cache the
program has just flushed is warm again, then times it PASSES times and keeps
the fastest pass.
METRICS.md records the check that the speed does not move with the program.
The probe costs about 0.4% of the interval, the same on every commit.
"""

import signal
import time
from array import array

PERIOD_S = 0.02
LOOP = 200
PASSES = 3
REF_S = 15e-6  # fastest-pass seconds on the reference host: the 5th percentile when idle
SENSITIVITY = 1.5  # fitted on the reference host; see METRICS.md


class HostSpeed:
    def __init__(self):
        self.ends = array("d")  # perf_counter at the end of each timed pass
        self.times = array("d")  # seconds of the fastest timed pass

    def sample(self, signum=None, frame=None) -> None:
        x = 1
        for i in range(LOOP):  # warm-up pass, untimed
            x = (x * 5 + i) & 1023
        best = 1.0
        for _ in range(PASSES):  # the fastest pass skips a stray interrupt
            t0 = time.perf_counter()
            for i in range(LOOP):
                x = (x * 5 + i) & 1023
            t1 = time.perf_counter()
            best = min(best, t1 - t0)
        self.ends.append(t1)
        self.times.append(best)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sampled_now(self) -> float:
        """Take one sample and return perf_counter after it. An interval that
        ends with this reading holds at least one sample."""
        self.sample()
        return time.perf_counter()

    def speed(self, start: float, end: float) -> float:
        """Mean speed between two perf_counter readings, the later one from
        sampled_now()."""
        speeds = [REF_S / d for t, d in zip(self.ends, self.times) if start <= t <= end]
        return (sum(speeds) / len(speeds)) ** SENSITIVITY
