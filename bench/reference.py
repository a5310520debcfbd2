"""A fixed reference kernel, sampled through a run to measure the machine's speed.

On a shared host the speed of a core drifts by tens of percent for minutes
at a time, as other tenants load the core and the shared caches, so a run
that falls into a slow period reads slow throughout.  Each job's time is
divided by this kernel's time around it, which cancels most of that drift:
a count of kernel durations (see ``end_to_end`` in run.py).

Each pass of the kernel also jitters by about 15% from one pass to the
next, with little correlation between passes a tenth of a second apart, so
a job's time is divided by the median of the passes within WINDOW_S of it
(``Samples.around``), not by the one or two passes next to it.

The kernel runs in a process of its own, started by the runner for the
whole run and pinned to the CPU the workers run on.  Every INTERVAL_S it
wakes up, runs the kernel twice and reports the second pass in CPU time:
the first pass refills the caches that the worker's jobs took over, and CPU
time leaves out the moments the scheduler gives back to the worker.  So the
figure carries neither the program's heap nor its memory traffic, and the
kernel's tables count in no worker's peak RSS.  It takes about 2% of the
CPU from the jobs, in every run alike.

The kernel is stdlib-only and independent of arcflock, so no change to the
package can move it.  Its mix follows the package's hot loops: log/exp table
arithmetic on ints, building tuples, set insertion, and scans of a set of
tuples in hash order.  Its working set (about 0.5 MB) stays in the core's
private cache.  A kernel that also scanned a 9 MB set slowed down 2.7-fold
in loaded periods in which the workloads slowed down 1.3-fold, so it
over-corrected.  Measured per repetition over 14 minutes, with the kernel
sampled through each repetition, this one moved each workload's normalized
median by at most 6% from the first half to the second, while the raw
medians moved by 8 to 18%.

    python3 bench/reference.py    # samples until stdin closes, then prints them
"""

from __future__ import annotations

import bisect
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the kernel's CPU time on an idle 2-vCPU host; rescales set-up times to
# seconds at that speed
NOMINAL_S = 0.002
INTERVAL_S = 0.25
# a job is compared with the kernel's passes from this long before it
# started to this long after it ended
WINDOW_S = 1.0

_M = 4096


def _tables():
    """GF(4097)* log/exp tables and 4096 stored tuples, visited in a scattered order."""
    exp = [1] * _M
    for i in range(1, _M):
        exp[i] = exp[i - 1] * 3 % 4097
    log = [0] * (_M + 1)
    for i, v in enumerate(exp):
        log[v] = i
    rows = [(1, x & 255, x >> 8, x * 7 & 255) for x in range(_M)]
    random.Random(0).shuffle(rows)
    return exp, log, frozenset(rows)


def kernel_seconds(exp, log, points) -> float:
    """CPU time of one pass of the kernel (about NOMINAL_S on an idle 2-vCPU host)."""
    t0 = time.thread_time()
    seen = set()
    a = 1
    for i in range(1, 4000):
        a = exp[(log[a] + log[i % _M + 1]) % _M]
        seen.add((a & 255, i & 255))
    hits = 0
    for _ in range(8):
        for p in points:
            if p[1] == p[2]:
                hits += 1
    seen.add(hits)
    return time.thread_time() - t0


class Samples:
    """The kernel's passes over one run: start times and CPU times, in time order."""

    def __init__(self, pairs: list[list[float]]) -> None:
        self.starts = [t for t, _ in pairs]
        self.seconds = [s for _, s in pairs]

    def median(self) -> float:
        return statistics.median(self.seconds)

    def around(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end] (of the whole run if none)."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return statistics.median(self.seconds[lo:hi] or self.seconds)


class Sampler:
    """The kernel's process for one run; ``stop()`` returns its samples."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the reference kernel's process did not start")

    def stop(self) -> Samples:
        """Ends the process (end of file on its stdin) and waits for it."""
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.wait(timeout=30)
        return Samples(json.loads(out) if out.strip() else [])


def main() -> int:
    # the same CPU as the workers (worker.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tables = _tables()

    def sample() -> list[float]:
        kernel_seconds(*tables)
        return [time.perf_counter(), kernel_seconds(*tables)]

    samples = [sample()]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append(sample())
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
