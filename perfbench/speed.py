"""Host-speed sampling, so that timings do not move with co-tenant load.

On a shared host a fixed pure-Python loop runs up to a third slower for
tens of seconds at a time, in CPU time as in wall time, so a longer run
does not average the slowdowns away.  A ``Sampler`` runs a fixed reference
kernel from a ``SIGALRM`` handler every ``SAMPLE_INTERVAL_S`` of wall time
and records when it ran and how long it took.  An interval's time divided
by the median kernel time sampled around it is its cost in kernel runs
(unit ``ref``): a slowdown that hits the program hits the kernel too, and
cancels.  The handler's own time is counted in ``paused`` and subtracted
from every measured interval.

The kernel mixes the operations the program's searches are made of: small
dict updates, list appends and slices, tuple building and string joins.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.05
WINDOW_S = 0.5
MIN_SAMPLES = 5
KERNEL_ROUNDS = 1000


def reference_kernel():
    """Fixed work, about 1 ms on a 2-core x86-64 VM under CPython 3.11."""
    table = {}
    stack = []
    total = 0
    for i in range(KERNEL_ROUNDS):
        key = (i * 7) % 31, i % 5
        table[key] = table.get(key, 0) + i
        stack.append(key)
        if len(stack) > 12:
            total += len("".join(str(k[0]) for k in stack[-6:]))
            stack = stack[4:]
    return total + len(table)


class Sampler:
    """Reference-kernel samples of one process, in ``perf_counter`` time
    (CLOCK_MONOTONIC, so comparable across processes)."""

    def __init__(self):
        self.pid = os.getpid()
        self.at = []
        self.took = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        started = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - started
        self.at.append(started)
        self.took.append(took)
        self.paused += took

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def samples(self, since=0):
        return list(zip(self.at[since:], self.took[since:]))


# The sampler of this process, if one runs.  A forked pool worker inherits
# its parent's object but not its timer, so ``mine`` checks the pid.
active = None


def start():
    global active
    active = Sampler()
    active.start()
    return active


def mine():
    return active if active is not None and active.pid == os.getpid() else None


def paused_s():
    """Seconds this process has spent in the sampler so far."""
    sampler = mine()
    return 0.0 if sampler is None else sampler.paused


class Speed:
    """Kernel samples merged from one or more processes."""

    def __init__(self, samples):
        samples = sorted(samples)
        self.at = [t for t, _ in samples]
        self.took = [d for _, d in samples]

    def kernel_s(self, start, end):
        """Median kernel time sampled within WINDOW_S of [start, end],
        widened until it holds MIN_SAMPLES samples."""
        if len(self.took) < MIN_SAMPLES:
            raise ValueError(f"only {len(self.took)} host-speed samples")
        width = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.at, start - width)
            hi = bisect.bisect_right(self.at, end + width)
            if hi - lo >= MIN_SAMPLES:
                return statistics.median(self.took[lo:hi])
            width *= 2

    def refs(self, seconds, start, end):
        """``seconds`` of wall time spent in [start, end], in kernel runs."""
        return seconds / self.kernel_s(start, end)
