"""Record the benchmark's baseline on this machine.

Usage: python3 bench/baseline.py [--out bench/BASELINE.json]

Runs ``run.py`` once per seed and workload with the ``run_seconds`` of
BENCHMARK.json, plus one traced run per workload, then writes every
end-to-end metric's median and quartiles, the traced per-layer values, the
workload definitions and a description of the machine. It prints each
metric's spread (interquartile range over median) next to its bound; a
steady benchmark keeps every spread below a third of it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"
SEEDS = range(1, 11)

#: Which end-to-end metric each group of per-layer metrics should move.
LAYER_TO_END_TO_END = [
    {
        "layer": ["*.useful_ratio", "orchestrator.invariant_time_share"],
        "moves": {"sweep-default": ["wall_s", "cpu_s"], "cli-sweep": ["wall_s", "cpu_s"]},
        "unmoved": ["run-m300", "run-wide"],
    },
    {
        "layer": ["knowledge.*", "labeling.*", "metrics.openness.self_s"],
        "moves": {"run-m300": ["wall_s", "peak_rss_mb"]},
        "unmoved": ["run-wide"],
    },
    {
        "layer": ["mining.*", "experimenting.sample_dataset.self_s"],
        "moves": {"run-wide": ["wall_s"]},
        "unmoved": ["run-m300"],
    },
    {
        "layer": ["orchestrator.RunResult.to_json_text.*", "orchestrator.write*", "orchestrator.serialized_bytes"],
        "moves": {"cli-sweep": ["wall_s", "output_bytes"], "run-m300": ["wall_s", "output_bytes"]},
        "unmoved": ["sweep-default"],
    },
    {"layer": ["config.scenario_from_dict.*"], "moves": {"*": ["setup_s"]}, "unmoved": []},
]


def _machine() -> dict:
    import numpy

    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(workloads.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=workloads.ROOT, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}:\n{out.stderr}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(workloads.ROOT / "bench" / "BASELINE.json"))
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {
        "machine": _machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
    }
    steady = True
    for name, workload in workloads.WORKLOADS.items():
        runs = [_run(name, seed, seconds, 0) for seed in record["seeds"]]
        traced = _run(name, 1, seconds, 1)
        if not all(r["correct"] for r in [*runs, traced]):
            print(f"{name}: some jobs failed their output checks", file=sys.stderr)
            return 1
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            end_to_end[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
            ok = spread < bound / 3
            steady &= ok
            print(f"{name:<14} {metric:<13} median {median:<12.6g} spread {spread:.4f} "
                  f"bound {bound} {'ok' if ok else 'WIDE'}", flush=True)
        record["workloads"][name] = {
            "definition": {k: v for k, v in dataclasses.asdict(workload).items() if k != "name"},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}; {'steady' if steady else 'some spreads are wide'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
