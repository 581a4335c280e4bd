"""Host speed probe: a fixed pure-Python loop timed next to each operation.

On a shared host the same work runs up to 1.5 times slower from one
minute to the next, because neighbours load the same physical cores.
Averaging inside a run cannot remove phases that last as long as a run.
So the benchmark times this loop right before and right after each
operation it measures -- never during one -- and reports host times at
a reference speed:

    reported = measured / slowdown,  slowdown = loop time / REFERENCE_S

The loop does not touch the program, so a change to the program moves
reported times exactly as it moves measured ones; a slow phase of the
host slows the loop too and cancels out.  Over 34 paper repetitions
(2 vCPUs of a shared Xeon) the loop's time tracked the program's with
correlation 0.88 and slope 0.91, and scaling cut the repetition-to-
repetition spread from 12.4% to 5.3%.  A loop over dicts and tuples
tracked worse (slope 0.57): it slows more than the program does.
Time the hypervisor steals is left out of the bursts and divided out
of each operation instead (see :func:`slowdown`).  Measured times are
printed and recorded next to the reported ones.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Callable, Tuple

#: Typical time of :func:`loop` on the host the benchmark was defined on
#: (2 vCPUs of an Intel Xeon under KVM, Python 3.11).  Reported times
#: read as seconds on that host at that speed.
REFERENCE_S = 0.0060


def loop() -> int:
    """Integer bytecode work: the probe itself."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


def burst(count: int = 3) -> float:
    """The fastest of ``count`` loop runs, in seconds, on the calling
    thread's current core.  The cyclic collector is paused, so the size
    of the caller's heap cannot show."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(count):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return min(times)


def burst_all_cores(count: int = 3, combine=statistics.mean) -> float:
    """:func:`burst` on every core this process may use, combined (mean by
    default), for operations that run on all of them."""
    cores = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else []
    if len(cores) < 2:
        return burst(count)
    times = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            times.append(burst(count))
    finally:
        os.sched_setaffinity(0, set(cores))
    return combine(times)


def steal_seconds() -> float:
    """CPU seconds the hypervisor has taken from this machine so far
    (``steal`` in ``/proc/stat``, summed over cores)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def slowdown(before: float, after: float, stolen: float = 0.0,
             elapsed: float = 0.0, cores: int = 1) -> float:
    """How much slower than the reference the host ran around one
    operation (1.0 = as fast): the bursts before and after it, divided
    by the share of its ``elapsed`` seconds on ``cores`` busy cores that
    the hypervisor did not take (``stolen`` seconds of steal meanwhile).
    The bursts keep their fastest run, so they leave steal out."""
    ran = 1.0
    if elapsed > 0 and stolen > 0:
        ran = max(0.5, 1.0 - stolen / (elapsed * cores))
    return (before + after) / (2.0 * REFERENCE_S) / ran


def probe_for(argv) -> Tuple[Callable[[], float], int]:
    """The probe for a CLI call and the cores it keeps busy.  A call with
    a worker pool runs on every core and waits for its slowest worker,
    so it takes the slowest core's burst."""
    if "--workers" in argv and int(argv[argv.index("--workers") + 1]) > 1:
        return (lambda: burst_all_cores(combine=max),
                len(os.sched_getaffinity(0)))
    return burst, 1
