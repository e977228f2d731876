"""ktsim benchmark: times one workload and checks its outputs.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics: one job after
another (closed loop, one client) for about ``S`` seconds, each job in a
fresh process and each preceded by set-up timings in fresh processes.
With ``--trace 1`` it runs the job in this process instead, in pairs of an
untraced and a traced job, and reports the per-layer metrics. Every job's
outputs are checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md next
to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibration
import checks
import workloads
from tracing import Tracer
from workloads import ROOT, SRC, WORKLOADS

WORK = ROOT / ".bench_work"
#: Set-up timings before each job, spread over the run so that their
#: median is not taken at one moment of the host's drift.
SETUP_PER_JOB = 3
#: Every input once. Repeated inputs, whose output digests must match, come
#: in the traced run (seven jobs on one input) and in timed runs long enough
#: for more jobs. One more job here would make each run a third longer.
MIN_JOBS = workloads.PARTS
MIN_TRACED_PAIRS = 3
RSS_POLL_S = 0.02

BENCH_DIR = Path(__file__).resolve().parent

#: Code that starts a child process by arming the speed calibration.
ARM_CODE = f"import sys; sys.path.append({str(BENCH_DIR)!r}); import calibration; calibration.arm(); "

#: Imports ktsim, validates the config, then prints where ktsim came from.
SETUP_CODE = (
    "import json, sys, ktsim; ktsim.scenario_from_dict(json.load(open(sys.argv[1]))); "
    "print(ktsim.__file__, flush=True)"
)

#: The yardstick for a set-up timing: a fresh interpreter that imports numpy
#: and nothing of ktsim, which is most of what a set-up process does. It is
#: timed right before each set-up process, so the pair sees the same host
#: speed, and no change to ktsim can move it.
YARDSTICK_CODE = "import numpy; print(numpy.__file__, flush=True)"

#: Typical yardstick time on the 2-vCPU Intel Xeon host where the baseline
#: was recorded. It only sets the scale: set-up times read as seconds there.
YARDSTICK_S = 0.2

#: The body of the ``ktsim`` console script, so the cli-sweep job is what a
#: user typing ``ktsim sweep ...`` runs, without needing an installed copy.
CLI_CODE = ARM_CODE + "from ktsim.cli import main; sys.exit(main(sys.argv[1:]))"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "output_bytes": "bytes",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def child_env(sample_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if sample_dir is not None:
        env[calibration.ENV] = str(sample_dir)
    return env


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _tree_rss_kb(pid: int) -> int:
    """Summed resident set of ``pid`` and all its descendants, in KiB."""
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


class RssSampler(threading.Thread):
    """Polls a process tree's summed RSS until stopped; keeps the peak."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))
            self._stop_event.wait(RSS_POLL_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def run_child(argv: list[str], log_dir: Path, sample_dir: Path) -> dict:
    """Run a child to completion; return its wall time, rusage, peak tree RSS
    and output. The child is killed and reaped if this process is interrupted."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "w+b") as out, open(log_dir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(sample_dir), cwd=ROOT)
        sampler = RssSampler(proc.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            sampler.stop()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": max(sampler.peak_kb, usage.ru_maxrss) / 1024,
            "pid": proc.pid,
            "returncode": proc.returncode,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace"),
        }


def time_start(code: str, *args: str) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter on ``code`` until it prints
    its first line, and that line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline().decode().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"process {code!r} failed (exit {proc.returncode})")
    return elapsed, line


def measure_setup(config_path: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until ktsim is imported and
    the config validated: as measured, and scaled by the yardstick timed
    right before it. ``calibration`` cannot sample a process this short."""
    yardstick, _ = time_start(YARDSTICK_CODE)
    elapsed, where = time_start(SETUP_CODE, str(config_path))
    if Path(where).resolve().parent != (SRC / "ktsim").resolve():
        raise RuntimeError(f"set-up process imported ktsim from {where!r}, not from {SRC}")
    return elapsed, elapsed * YARDSTICK_S / yardstick


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _inspect(spec: dict, out: Path, record: dict) -> dict:
    """Check a finished job's outputs and record its digests and size."""
    target = workloads.output_dir(spec, out)
    record["problems"] += checks.check_job(target, spec)
    if not record["problems"]:
        record["digests"] = checks.digests(target, spec["kind"])
        record["output_bytes"] = _dir_bytes(target)
    return record


def job_argv(spec: dict, work: Path, out: Path) -> list[str]:
    """The command that runs one job in a fresh process."""
    part = spec["part"]
    if spec["kind"] == "cli-sweep":
        config_path = work / f"config{part}.json"
        return [sys.executable, "-c", CLI_CODE, *workloads.cli_args(spec, config_path, out, jobs=spec["jobs"])]
    return [sys.executable, str(BENCH_DIR / "job.py"), str(work / f"spec{part}.json"), str(out)]


def timed_job(spec: dict, argv: list[str], work: Path, out: Path) -> dict:
    """One job, run by ``argv`` in a fresh process. Wall and CPU time are
    measured as the job's user sees them, then scaled by ``calibration``."""
    sample_dir = _fresh(work / "calibration")
    child = run_child(argv, work / "logs", sample_dir)
    record = {"part": spec["part"], "peak_rss_mb": child["peak_rss_mb"], "problems": []}
    if child["returncode"] != 0:
        tail = " | ".join(child["stderr"].strip().splitlines()[-3:])
        record["problems"].append(f"job exited with code {child['returncode']}: {tail}")
        return record
    samples = calibration.collect(sample_dir, child["pid"])
    if spec["kind"] == "cli-sweep":
        wall, cpu = child["wall_s"], child["cpu_s"]
        # Each process's handler time delays only that process; the job's
        # critical path is the main process plus its slowest worker.
        wall_handler = samples.main_s + samples.others_max_s
    else:
        measured = json.loads(child["stdout"].strip().splitlines()[-1])
        wall, cpu = measured["wall_s"], measured["cpu_s"]
        wall_handler = samples.main_s
    record.update(
        measured_wall_s=wall,
        measured_cpu_s=cpu,
        wall_s=samples.scale(wall, wall_handler),
        cpu_s=samples.scale(cpu, samples.total_s, cpu=True),
        kernel_ms=samples.mean_kernel_s * 1e3,
    )
    return _inspect(spec, out, record)


def in_process_job(spec: dict, out: Path, tracer: Tracer | None) -> dict:
    record = {"part": spec["part"], "problems": []}
    context = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with context:
            start = time.perf_counter()
            workloads.execute(spec, out)
            record["wall_s"] = time.perf_counter() - start
    except Exception as exc:  # a failing job is counted, not fatal
        record["problems"].append(f"job raised {type(exc).__name__}: {exc}")
        return record
    return _inspect(spec, out, record)


def _first_digests(records: list[dict]) -> dict[int, dict]:
    """Output digests of the first checked job of each input part."""
    first: dict[int, dict] = {}
    for record in records:
        if "digests" in record:
            first.setdefault(record["part"], record["digests"])
    return first


def _mark_digest_mismatches(records: list[dict]) -> None:
    """Every job on the same input must reproduce the first one's outputs."""
    first = _first_digests(records)
    for record in records:
        if "digests" in record and record["digests"] != first[record["part"]]:
            record["problems"].append("output digests differ from an earlier job on the same input")


def _loop(seconds: float, minimum: int, step) -> list:
    """Call ``step`` until another call would likely overrun ``seconds``."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - started
        if len(results) >= minimum and time.perf_counter() + last > deadline:
            return results


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def write_inputs(specs: list[dict], work: Path) -> None:
    """Write each job spec and its config where ``job_argv`` reads them."""
    for spec in specs:
        (work / f"spec{spec['part']}.json").write_text(json.dumps(spec))
        (work / f"config{spec['part']}.json").write_text(json.dumps(spec["config"]))


def end_to_end(specs: list[dict], seconds: float, work: Path) -> tuple[list[dict], dict]:
    write_inputs(specs, work)
    setups: list[tuple[float, float]] = []

    def step(n: int) -> dict:
        setups.extend(measure_setup(work / "config0.json") for _ in range(SETUP_PER_JOB))
        out = work / f"job{n}"
        try:
            spec = specs[n % len(specs)]
            return timed_job(spec, job_argv(spec, work, out), work, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    records = _loop(seconds, MIN_JOBS, step)
    _mark_digest_mismatches(records)
    shown = ("measured_wall_s", "measured_cpu_s", "kernel_ms", "wall_s", "cpu_s", "peak_rss_mb")
    for index, r in enumerate(records):
        print(f"job {index} (input part {r['part']}): " + ", ".join(f"{k} {r[k]:.6g}" for k in shown if k in r))
    print(f"setup over {len(setups)} processes: measured median {statistics.median(m for m, _ in setups):.6g} s, "
          "scaled " + ", ".join(f"{s:.4g}" for _, s in setups))
    metrics = {"setup_s": statistics.median(s for _, s in setups)}
    measured = [r for r in records if "wall_s" in r]
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "output_bytes"):
        values = [r[name] for r in measured if name in r]
        if values:
            metrics[name] = statistics.median(values)
    return records, metrics


def traced(spec: dict, seconds: float, work: Path, seed: int) -> tuple[list[dict], dict]:
    tracer = Tracer()
    overheads, summaries = [], []
    spans: list[dict] = []

    def job(name: str, use_tracer: Tracer | None) -> dict:
        out = work / name
        tracer.reset()
        try:
            record = in_process_job(spec, out, use_tracer)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if use_tracer and not record["problems"]:
            summaries.append(tracer.summary())
            spans[:] = tracer.span_records(job=len(summaries))
        return record

    def step(n: int) -> list[dict]:
        # Alternate which side runs first, so neither always runs in the
        # other's wake.
        order = (None, tracer) if n % 2 == 0 else (tracer, None)
        pair = {bool(t): job(f"job{n}-{'traced' if t else 'untraced'}", t) for t in order}
        if all("wall_s" in r for r in pair.values()):
            overheads.append(pair[True]["wall_s"] / pair[False]["wall_s"] - 1)
        return list(pair.values())

    # The first job in this process pays for lazy imports and caches, so it
    # is checked but not timed.
    records = [job("warmup", None)]
    records += [r for pair in _loop(seconds, MIN_TRACED_PAIRS, step) for r in pair]
    # Tracing must not change results: traced and untraced digests must agree.
    _mark_digest_mismatches(records)

    trace_path = WORK / "traces" / f"{spec['workload']}-seed{seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with trace_path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"spans of the last traced job: {trace_path}")

    metrics: dict[str, float] = {}
    if summaries:
        for name in summaries[-1]:
            values = [s[name] for s in summaries]
            if name.endswith(".self_s") or name.endswith("_share"):
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[-1]
                if len(set(values)) != 1:
                    records[-1]["problems"].append(f"{name} differs between traced jobs: {values}")
    if overheads:
        metrics["trace_overhead_frac"] = statistics.median(overheads)
    return records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.use_checkout_source()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    parts = 1 if args.trace else workloads.PARTS
    specs = [workloads.make_spec(workload, args.seed, part) for part in range(parts)]
    # A directory of this run's own, so that runs started side by side in
    # one checkout do not delete each other's inputs and outputs.
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        if args.trace:
            records, metrics = traced(specs[0], args.seconds, work, args.seed)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            records, metrics = end_to_end(specs, args.seconds, work)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} (simulator seeds {[spec['seed'] for spec in specs]}), trace {args.trace}")
    print(f"jobs {len(records)}, failed {len(failed)}, failed_frac {len(failed) / len(records):.4g}")
    for record in failed:
        for problem in record["problems"][:5]:
            print(f"FAILED (input part {record['part']}): {problem}", file=sys.stderr)
    for part, digests in sorted(_first_digests(records).items()):
        for name, digest in digests.items():
            print(f"sha256 input part {part} {name} {digest}")
    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units[name]}")
    if not args.trace and "wall_s" not in metrics:
        print("error: no job produced a measurement", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
