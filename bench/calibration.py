"""Machine-speed calibration for the end-to-end timings.

On a shared host one core's speed drifts by a fifth or more within seconds,
and the drift moves every job's time with it. Timing a fixed kernel next to
the job only cancels that drift when the kernel runs on the same core at
nearly the same moment, so every Python process of a timed job arms a
profiling timer: after each ``PERIOD_S`` of the process's CPU time, a signal
handler runs the kernel (dict updates, sorting and JSON text, the kinds of
interpreter work ktsim does, but none of its code) twice and appends the
second run's duration to a per-process file. The benchmark then subtracts
the handler time and scales the job's time by ``REFERENCE_S / mean kernel
time``. The host's drift cancels. A program change should leave the kernel
alone; the untimed first run is there so that a change to how much of the
cache the job uses does not move the kernel's time. ``control.py`` checks
this by slowing ktsim by a known amount (see README.md).
"""

from __future__ import annotations

import atexit
import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

#: Process CPU time between samples. A sample runs the kernel twice, for
#: about 8 ms inside a job, so sampling costs about a fifth more CPU.
PERIOD_S = 0.04

#: Typical time of the timed kernel run inside a job on the 2-vCPU Intel
#: Xeon host where the baseline was recorded. It only sets the scale:
#: timings read as seconds on that host.
REFERENCE_S = 0.005

#: Environment variable naming the directory that collects kernel samples.
ENV = "KTSIM_BENCH_CALIBRATION_DIR"


def kernel() -> tuple[float, float]:
    """Wall and CPU seconds one run of the fixed calibration work takes.

    It allocates almost no objects that the cyclic garbage collector tracks.
    A kernel that did (tuples, small objects) set off extra collections in
    the job, whose cost grows with the job's heap, and made large runs noisier.
    """
    start, start_cpu = time.perf_counter(), time.thread_time()
    rng = random.Random(20260811)
    table: dict[int, float] = {}
    for _ in range(2200):
        u, v = rng.randrange(60), rng.randrange(60)
        if u != v:
            key = u * 64 + v if u < v else v * 64 + u
            table[key] = table.get(key, 0.0) + rng.random()
    kept = sorted(key for key, weight in table.items() if weight > 0.3)
    text = json.dumps(kept) + json.dumps(sorted(table.values()))
    if not text:
        raise AssertionError("calibration kernel produced no work")
    return time.perf_counter() - start, time.thread_time() - start_cpu


_log: dict[int, TextIO] = {}  # pid -> this process's sample file
_in_tick = False


def _on_tick(signum, frame) -> None:
    global _in_tick
    # Writing the sample can check for signals, so a tick can arrive inside
    # this handler; a nested write to the same file would raise RuntimeError
    # (reentrant call) and kill the job. Such a tick is skipped.
    if _in_tick:
        return
    _in_tick = True
    try:
        # The first run brings the kernel's code and data into cache, so the
        # timed second run does not depend on how much of the cache the job uses.
        warm_up, _ = kernel()
        elapsed, cpu = kernel()
        pid = os.getpid()
        if pid not in _log:
            # Line-buffered: pool workers leave through os._exit, which flushes nothing.
            _log[pid] = open(Path(os.environ[ENV]) / f"{pid}.txt", "a", buffering=1)
        _log[pid].write(f"{warm_up + elapsed!r} {elapsed!r} {cpu!r}\n")
    finally:
        _in_tick = False


def _start_timer() -> None:
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)


def arm() -> None:
    """Sample the kernel in this process and in every process it forks.

    Samples go to ``$KTSIM_BENCH_CALIBRATION_DIR/<pid>.txt``; the timer
    counts CPU time, so an idle process takes no samples.
    """
    signal.signal(signal.SIGPROF, _on_tick)
    os.register_at_fork(after_in_child=_start_timer)
    # Interpreter shutdown restores the default action, which would kill us.
    atexit.register(disarm)
    _start_timer()


def disarm() -> None:
    """Stop sampling in this process."""
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


@dataclass(frozen=True)
class Samples:
    main_s: float  # handler time in the job's first process
    others_max_s: float  # largest handler time among the processes it started
    total_s: float  # handler time over all processes
    mean_kernel_s: float  # wall time of the timed kernel run
    mean_kernel_cpu_s: float  # its CPU time

    def scale(self, seconds: float, handler_s: float, cpu: bool = False) -> float:
        """``seconds`` less ``handler_s``, at the reference host's speed.

        CPU seconds (``cpu=True``) are scaled by the kernel's CPU time: while
        the host takes the vCPU away, wall time runs on but CPU time does not,
        so scaling CPU time by the kernel's wall time would shrink it.
        """
        kernel_s = self.mean_kernel_cpu_s if cpu else self.mean_kernel_s
        return (seconds - handler_s) * REFERENCE_S / kernel_s


def collect(sample_dir: Path, main_pid: int) -> Samples:
    """Read the samples every process of one job left in ``sample_dir``."""
    per_process = {
        int(path.stem): [tuple(map(float, line.split())) for line in path.read_text().splitlines()]
        for path in sample_dir.glob("*.txt")
    }
    everything = [x for xs in per_process.values() for x in xs]
    if not everything:
        raise RuntimeError(f"no calibration samples in {sample_dir}")
    others = [sum(x[0] for x in xs) for pid, xs in per_process.items() if pid != main_pid]
    return Samples(
        main_s=sum(x[0] for x in per_process.get(main_pid, ())),
        others_max_s=max(others, default=0.0),
        total_s=sum(x[0] for x in everything),
        mean_kernel_s=statistics.fmean(x[1] for x in everything),
        mean_kernel_cpu_s=statistics.fmean(x[2] for x in everything),
    )
