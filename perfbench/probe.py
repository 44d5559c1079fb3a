"""A clock and a speed probe for timing a campaign on a shared host.

The benchmark's host is a few vCPUs of a shared machine, and a
campaign's wall time there measures the neighbours as much as the
program, in two ways.

* The hypervisor takes the vCPUs away for milliseconds at a time (the
  ``steal`` column of ``/proc/stat``); when both vCPUs are busy the VM
  gets about one core, and how much is taken changes from minute to
  minute. Wall time counts the stolen time; CPU time does not.
  :meth:`SpeedProbe.clock` is therefore the CPU time of the campaign's
  processes (this one and its children, the pool's workers) divided by
  the number of vCPUs it may run on, without the probe's own. For a
  process pinned to one vCPU that is its CPU time; for a campaign that
  keeps all its vCPUs busy it is its wall time on vCPUs of its own.
* While it runs, a vCPU runs slower or faster by up to 2x with the load
  of the other tenants. The probe measures that: every
  :data:`PERIOD_S` of wall time a timer signal interrupts the campaign
  and times one run of a small fixed pure-Python kernel (dict inserts,
  tuple packing, a sort and integer arithmetic, the interpreter work the
  program is made of) in thread CPU time. With ``k_i`` the kernel's
  times and ``K`` its time on the reference host (:data:`REF_KERNEL_S`),
  :meth:`SpeedProbe.scale` is ``K * mean(1 / k_i)``: each sample stands
  for an equal slice of the phase, in which the vCPU ran ``K / k_i``
  times as fast as the reference's.

A phase's clock time times the scale is the phase's time on the
reference host with its vCPUs to itself. The timer (``ITIMER_REAL``) is
not inherited by forked children, so pool workers run unprobed; on
``fuzz-2w`` the coordinator's samples stand for the host.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List

#: Wall time between two probe samples.
PERIOD_S = 0.025
#: About the kernel's time on the development host (2 vCPUs of a shared
#: Intel Xeon, CPython 3.11) in its quieter stretches, so that a scaled
#: time reads as seconds on that host.
REF_KERNEL_S = 0.0004


def kernel() -> int:
    """The fixed work one sample times (about 0.5 ms)."""
    acc = 0
    table = {}
    for i in range(600):
        key = (i * 2654435761) & 0xFFFF_FFFF
        table[key] = (i, key >> 3)
        acc ^= key
    for key, (i, v) in sorted(table.items()):
        acc = (acc + v * i) & 0xFFFF_FFFF_FFFF
    return acc


def _child_cpu_s(pid: int) -> float:
    """CPU time of the live threads of child *pid* (0 once it ended)."""
    total = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
    except OSError:
        pass
    return total / 1e9


def campaign_cpu_s() -> float:
    """CPU time of this process and of its live children, in seconds."""
    children = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                children += fh.read().split()
        except OSError:  # the thread ended meanwhile
            pass
    return time.process_time() + sum(_child_cpu_s(int(pid))
                                     for pid in children)


class SpeedProbe:
    """Context manager: samples the kernel every *period_s* of wall time
    while it is entered, and once on entry."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: List[float] = []
        self.busy_s = 0.0
        self.vcpus = len(os.sched_getaffinity(0))
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.busy_s += dt

    def clock(self) -> float:
        """CPU time of the campaign's processes per vCPU, without the
        probe's own."""
        return (campaign_cpu_s() - self.busy_s) / self.vcpus

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference-host seconds per second of :meth:`clock` over the
        samples so far: ``K * mean(1 / k_i)``."""
        if not self.samples:
            raise RuntimeError("the speed probe took no samples")
        return REF_KERNEL_S * sum(1.0 / k for k in self.samples) / len(
            self.samples)
