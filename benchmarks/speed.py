"""Rescaling measured times to a reference machine speed.

The reference host is a 2-vCPU KVM guest whose cores are shared with other
guests: a fixed piece of work takes anywhere from 1x to 3x its quiet time, in
bursts lasting from a fraction of a second to minutes. Wall time and CPU time
stretch alike, so raw medians of a 20 s run move by tens of percent from run
to run. The benchmark therefore reports program time rescaled to a reference
speed. The measuring process is pinned to one CPU; a fixed kernel is timed
on that CPU, by a probe thread every PERIOD_S during the measured rounds or
back to back just before and after the set-up; and the work's own thread CPU
time is divided by the kernel's mean slowdown against its reference time.

The kernels share no code with proxflow, so a change to the program does not
change the work they measure. kernel() uses only the standard library, so the
set-up timing can calibrate before numpy is loaded; the probe thread adds
small numpy calls.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# Thread-CPU time of kernel() on a quiet core of the 2-vCPU Xeon KVM guest the
# benchmark was written on (10th percentile of 2000 runs), and of the probe
# kernel, which took 1.7 times as long in interleaved runs. Rescaled times are
# in seconds at that speed.
KERNEL_REF_S = 1.68e-4
PROBE_REF_S = 1.7 * KERNEL_REF_S
PERIOD_S = 0.01
CALIBRATION_RUNS = 300


def pin_to_one_cpu() -> None:
    """Keep the process and its probe thread on the same CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel() -> list:
    """Small-object allocation, dict inserts and a sort (standard library only)."""
    table = {}
    for i in range(400):
        rec = _Record(str(i), i * 2.5)
        table[rec.key] = rec.value
    return sorted(table.values())


def make_probe_kernel():
    """kernel() plus the small-matrix numpy/LAPACK calls the program is made of.

    Of the kernels tried (an integer loop, kernel() alone, small numpy calls
    alone, a larger kernel()), this one's slowdown tracked the program's best
    on all three workloads: rescaled round rates spread 1.7-2.8 % (standard
    deviation over 14-50 rounds) against 10-15 % unscaled.
    """
    import numpy as np

    base = np.array([[2.0, 0.3], [0.3, 1.0]])
    eye = np.eye(2)

    def probe_kernel() -> float:
        kernel()
        total = 0.0
        for _ in range(3):
            m = 0.5 * (base + base.T)
            w, v = np.linalg.eigh(m)
            if not np.all(np.isfinite(w)):
                raise FloatingPointError("probe kernel produced non-finite eigenvalues")
            inv = (v * (1.0 / w)) @ v.T
            x = np.linalg.solve(eye + 0.02 * inv, m[0])
            total += float(np.max(np.abs(inv - inv.T)))
            np.array(x, dtype=float).flags.writeable = False
        for i in range(300):
            total += i * i
        return total

    return probe_kernel


def slowdown_now() -> list:
    """Slowdowns of CALIBRATION_RUNS back-to-back kernel runs (about 60 ms)."""
    out = []
    for _ in range(CALIBRATION_RUNS):
        start = time.thread_time()
        kernel()
        out.append((time.thread_time() - start) / KERNEL_REF_S)
    return out


class Probe:
    """Background thread timing the probe kernel every PERIOD_S on the pinned CPU."""

    def __init__(self):
        self.kernel = make_probe_kernel()
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            self.kernel()
            self.samples.append((time.thread_time() - start) / PROBE_REF_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """Mean slowdown of the samples taken since mark() returned since."""
        window = self.samples[since:] or self.samples[-1:] or [1.0]
        return statistics.fmean(window)
