"""Run one benchmark job in this fresh process and report its cost.

Usage: python3 bench/job.py SPEC_JSON OUT_DIR

Prints one JSON line with the job's wall and CPU seconds, measured around
the job alone, after ktsim is imported, with the speed calibration armed
for the same span. ``run.py`` starts this once per timed job of the
in-process workloads.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import calibration
import workloads


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    out = Path(argv[1])
    workloads.use_checkout_source()
    calibration.arm()
    cpu = _cpu_s()
    start = time.perf_counter()
    workloads.execute(spec, out)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu
    calibration.disarm()
    print(json.dumps({"wall_s": wall, "cpu_s": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
