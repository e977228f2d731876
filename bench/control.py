"""Control run for the speed calibration: does a known slowdown show in full?

Usage: python3 bench/control.py

``calibration`` scales each job's time by a kernel timed inside the job's
own processes. That cancels the host's drift only if a change to ktsim
leaves the kernel's time alone. This script tests it: it runs jobs of
``run-m300`` and ``sweep-default`` in pairs, one as the benchmark runs it
and one with ``ktsim.orchestrator.run`` slowed from outside, alternating
which runs first. The slowed job also times its extra work, so the share
of its measured time that the extra work took gives the slowdown it should
show, ``1 / (1 - share)``, from one process at one moment and so free of the
host's drift. If scaling is faithful, the scaled times of the pair show that
slowdown. The measured times of the pair show it too, but only on average,
since the two jobs run at different moments of the host's drift.

The extra work, about ``ADDED_S`` per job, comes in two kinds: ``cpu`` sums
a small list that stays in cache; ``memory`` sums slices of a shuffled list
of 2**21 floats held for the whole job, which grows the job's working set
and evicts the caches the kernel runs in. Every job's outputs are checked.
"""

from __future__ import annotations

import atexit
import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import run
import workloads

CONTROL_WORKLOADS = ("run-m300", "sweep-default")
KINDS = {"cpu": 1000, "memory": 1 << 21}  # kind -> floats in the list it sums
ADDED_S = 1.5
PAIRS = 8
SEED = 1

SLOW_CODE = (
    f"import sys; sys.path.insert(0, {str(run.BENCH_DIR)!r}); import control; "
    "control.slow_down(*sys.argv[1:4]); import job; sys.exit(job.main(sys.argv[3:]))"
)


def slow_down(kind: str, busy_path: str, spec_path: str) -> None:
    """Make every ``ktsim.orchestrator.run`` call first sum list items, for
    about ``ADDED_S`` over the job's calls; the seconds this took are
    written to ``busy_path`` when the process exits."""
    workloads.use_checkout_source()
    import ktsim.orchestrator

    spec = json.loads(Path(spec_path).read_text())
    calls = 8 * spec["replicates"] if spec["kind"] == "sweep" else 1
    data = [random.random() for _ in range(KINDS[kind])]
    random.shuffle(data)  # the floats' addresses no longer follow list order
    start = time.perf_counter()
    for _ in range(max(1, (1 << 21) // len(data))):
        sum(data)
    per_item = (time.perf_counter() - start) / max(len(data), 1 << 21)
    per_call = int(ADDED_S / calls / per_item)
    position = 0
    busy_s = 0.0
    atexit.register(lambda: Path(busy_path).write_text(repr(busy_s)))

    def busy() -> None:
        nonlocal position, busy_s
        start = time.perf_counter()
        left = per_call
        while left:
            take = min(left, len(data) - position)
            sum(data[position:position + take])
            position = (position + take) % len(data)
            left -= take
        busy_s += time.perf_counter() - start

    original = ktsim.orchestrator.run

    def slowed(*args, **kwargs):
        busy()
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ktsim" or name.startswith("ktsim."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, slowed)


def main() -> int:
    workloads.use_checkout_source()
    shown = ("expected", "measured_wall_s", "wall_s", "measured_cpu_s", "cpu_s", "kernel_ms")
    for name in CONTROL_WORKLOADS:
        spec = workloads.make_spec(workloads.WORKLOADS[name], SEED)
        work = run._fresh(run.WORK / "control" / name)
        run.write_inputs([spec], work)
        out = work / "job"
        busy_path = work / "busy_s"
        for kind in KINDS:
            plain_argv = run.job_argv(spec, work, out)
            slow_argv = [sys.executable, "-c", SLOW_CODE, kind, str(busy_path), *plain_argv[2:]]
            ratios = {key: [] for key in shown}
            for pair in range(PAIRS):
                records = {}
                for side in ((False, True) if pair % 2 == 0 else (True, False)):
                    try:
                        records[side] = run.timed_job(spec, slow_argv if side else plain_argv, work, out)
                    finally:
                        shutil.rmtree(out, ignore_errors=True)
                    if records[side]["problems"]:
                        print(f"{name} {kind}: job failed: {records[side]['problems'][:3]}", file=sys.stderr)
                        return 1
                slowed = records[True]
                slowed["expected"] = 1 / (1 - float(busy_path.read_text()) / slowed["measured_wall_s"])
                records[False]["expected"] = 1.0
                for key in shown:
                    ratios[key].append(slowed[key] / records[False][key])
                print(f"{name} {kind} pair {pair}: slowed/plain " + ", ".join(
                    f"{key} {ratios[key][-1]:.4f}" for key in shown), flush=True)
            medians = {key: statistics.median(values) for key, values in ratios.items()}
            print(f"{name} {kind} median slowed/plain over {PAIRS} pairs: " + ", ".join(
                f"{key} {value:.4f}" for key, value in medians.items()))
            for key in ("measured_wall_s", "wall_s", "cpu_s"):
                share = (medians[key] - 1) / (medians["expected"] - 1)
                print(f"{name} {kind} {key} shows {share:.3f} of the expected slowdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
