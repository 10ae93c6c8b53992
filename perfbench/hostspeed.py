"""Host speed: a fixed reference task timed next to the measured work.

The machines this benchmark runs on share their cores with other
tenants, which slow every instruction (CPU time as much as wall time)
by up to about 1.9x, in phases lasting from seconds to hours.  The
same bound-pruned ranking read 64 ms in one stretch and 135 ms a minute
later, and no estimator inside one run removes a phase that outlasts
the run.

So the benchmark times a fixed reference task in the idle moments
around every piece of measured work, and reports each piece's time as

    seconds x NOMINAL_S / reference reading

that is, its time at the host speed on which one run of the reference
task takes ``NOMINAL_S``.  A change to the program moves the work's
time and not the reference task's, so it shows in full; a slow phase of
the host moves both, and cancels.  Over twelve 13-second stretches of
the ranking above, the raw median spread 0.32 (IQR / median) and the
normalised one 0.014.  The raw figures are printed next to the
normalised ones.

Co-tenants slow each vCPU on its own (one vCPU read 1.6x slower than
the other at one moment and 0.55x a few seconds later), so a reading
only tells the speed of the vCPU it ran on.  The measured interpreter
therefore pins itself to one vCPU (``child.py``) and reads there; on
the process backend the shard child is pinned to a second vCPU
(:meth:`HostClock.pin_children`), a reading is taken on each, and the
slower one counts: a block crosses both, and either stage can hold up
the pipeline.  Over two sets of ten and twelve runs the process
backend's median block latency spread 0.11-0.12 raw, 0.12-0.16 scaled
by the shard's vCPU alone and 0.07-0.08 by the slower vCPU; its burst
capacity spread 0.15-0.16 raw and 0.09-0.11 scaled by the slower vCPU.

Readings are taken between pieces of sustained work, and each piece is
scaled by the readings on either side of it (:meth:`HostClock.scaled`).
Two figures follow the run's phase more than the readings next to them
and are scaled by the median of the run's readings instead
(:meth:`HostClock.scaled_by_run`): an open-loop block's few
milliseconds of work after an idle gap (scaled block by block,
``stream-inline``'s median block latency spread 0.13 over five runs
where raw spread 0.08), and set-up time, which the parent scales by
readings taken around each spawn on the children's vCPU (scaled by the
readings around each set-up alone it spread 0.19-0.20).  Between
earlier sets of ten runs the raw medians moved by up to 22%
(``stream-inline`` block latency) and 48% (``scan-mixed`` set-up);
two sets on this code moved by at most 13% and 6%.

The reference task has the shape of the program's work -- interpreter
work on dicts and lists, then a lockstep Newton iteration on small
numpy arrays -- because a task of only one kind tracked the program
less well (in one stretch, a tight integer loop and large-array
arithmetic slowed by 1.3x and 1.2x while the program slowed by 1.6x).  It runs with the garbage
collector off, so the program's heap does not change its cost.
"""

from __future__ import annotations

import bisect
import gc
import multiprocessing
import os
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "HostClock", "reference_s"]

#: About one run of the reference task on a calm 2 vCPU Xeon (Python
#: 3.11, numpy 2.4): the host speed every normalised figure is quoted at.
NOMINAL_S = 2.4e-3
#: Runs of the task per reading; a reading is their median.
REPEATS = 3

_TABLE = {i: float(i) for i in range(20000)}
_X = np.random.default_rng(0).uniform(1e5, 2e5, 300)
_D = 2.2 * _X
_AMP = np.full(300, 100.0)


def _task() -> None:
    """Dict lookups, a list build and a keyed sort, then a lockstep
    Newton iteration on 300-row arrays (the shape of the program's
    batched stableswap solve)."""
    total = 0.0
    for key in range(0, 20000, 3):
        total += _TABLE[key]
    values = [x * 1.5 for x in range(5000)]
    values.sort(key=lambda v: -v)
    for _ in range(12):
        ann = 4.0 * _AMP
        c = _D * _D / (2.0 * _X) * _D / (2.0 * ann)
        b = _X + _D / ann
        y = _D.copy()
        active = np.ones(y.shape, dtype=bool)
        for _ in range(12):
            y_new = (y * y + c) / (2.0 * y + b - _D)
            done = np.abs(y_new - y) <= 1e-12 * np.maximum(1.0, y_new)
            y = np.where(active, y_new, y)
            active &= ~done
            active.any()


def reference_s() -> float:
    """One reading: the median time of ``REPEATS`` runs of the task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _task()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class HostClock:
    """Readings taken while the program is idle, with their times, to
    scale the work done between them.  The calling process is pinned to
    ``cpus[0]``, its children to the others; a reading is the slowest of
    one taken on each of ``cpus``."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def pin_children(self) -> None:
        """Pin every child process, with all its threads, to a vCPU of
        ``cpus`` other than the home one (while there are any)."""
        others = self.cpus[1:] or self.cpus
        for i, child in enumerate(multiprocessing.active_children()):
            for tid in os.listdir(f"/proc/{child.pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), {others[i % len(others)]})
                except ProcessLookupError:
                    pass  # a thread that ended meanwhile

    def _reference_on(self, cpu: int) -> float:
        home = self.cpus[0]
        if cpu == home:
            return reference_s()
        os.sched_setaffinity(0, {cpu})
        try:
            return reference_s()
        finally:
            os.sched_setaffinity(0, {home})

    def read(self) -> None:
        """Take one reading now."""
        t0 = time.perf_counter()
        value = max(self._reference_on(cpu) for cpu in self.cpus)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.values.append(value)

    def reference(self, t0: float, t1: float) -> float:
        """The host's reading for work done from ``t0`` to ``t1``: the
        mean of the last reading ended by ``t0`` and the first begun
        after ``t1`` (either alone at the ends of the run)."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        near = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        if not near:
            raise RuntimeError("no host-speed reading taken")
        return sum(near) / len(near)

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of work done from ``t0`` to ``t1``, at the
        nominal host speed."""
        return seconds * NOMINAL_S / self.reference(t0, t1)

    def scaled_by_run(self, seconds: float) -> float:
        """``seconds`` of work at the nominal host speed, by the median
        of all of the run's readings."""
        return seconds * NOMINAL_S / statistics.median(self.values)

    def median_ms(self) -> float:
        return statistics.median(self.values) * 1e3
