"""Correction for the host's changing speed.

On a shared host the same pass can take 60% longer from one minute to the
next while the process is never descheduled: its CPU runs slower.  The
benchmark therefore times a fixed pure-Python kernel in the same process
while the work runs (on SIGALRM, every INTERVAL_S) and scales each time by
the mean over the samples of REF_KERNEL_S / (kernel duration), which
integrates the speed over the run.  A corrected time is the time the work
would have taken had the kernel run at its reference speed; the probe's
own time is taken out first.
"""

import signal
from time import perf_counter

INTERVAL_S = 0.025
# kernel duration on the reference host (2 vCPU, Python 3.11.7): the tenth
# percentile of 1800 samples taken over 20 s; see README.md
REF_KERNEL_S = 0.0006


def kernel():
    # dict, list, sort and int work, like the program's own mix; a pure
    # arithmetic loop tracked the program's slowdowns less well
    d, pairs, s = {}, [], 0
    for i in range(1000):
        x = (i * 2654435761) & 0x3FF
        d[x] = d.get(x, 0) + 1
        s += (x >> 3).bit_count()
        pairs.append((x, i))
    pairs.sort()
    return s + len(d)


def kernel_seconds():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Probe:
    """Samples the kernel's duration while the with-block runs."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        self.samples.append(kernel_seconds())

    def spent(self):
        """Seconds the probe itself took."""
        return sum(self.samples)

    def factor(self):
        """Mean over the samples of REF_KERNEL_S / sample; with no sample
        taken, one kernel run now stands in."""
        return speed_factor(self.samples or [kernel_seconds()])


def speed_factor(samples):
    return sum(REF_KERNEL_S / p for p in samples) / len(samples)

