"""Benchmark workloads for ktsim: what each job feeds the simulator and does.

A workload turns the benchmark seed into one job spec, a plain JSON-able
dict that holds the full scenario config and the simulator seed. The same
spec is executed by a fresh ``job.py`` process for the timed runs and
in-process for the traced run, so both see exactly the same inputs.

Sizes are fixed per workload; only the seed varies between benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" (in-process), "cli-sweep" (fresh CLI process) or "run"
    why: str
    overrides: dict = field(default_factory=dict)  # dotted config path -> value
    replicates: int = 0  # sweep kinds
    jobs: int = 1  # cli-sweep worker processes
    export_datasets: bool = True  # run kind: write_run_outputs, else result.json only


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-default",
            "sweep",
            "the paper's paired 8-combination sweep in-process; 62% of it is channel-invariant work redone per mask",
            replicates=20,
        ),
        Workload(
            "cli-sweep",
            "cli-sweep",
            "the same sweep as a user runs it: fresh process, --jobs 2 pool, per-cell JSON and CSV writes",
            replicates=10,
            jobs=2,
        ),
        Workload(
            "run-m300",
            "run",
            "one large run (m=300, 44,850 pairs) plus its artifacts; knowledge representation and serialization dominate",
            overrides={"m": 300},
        ),
        Workload(
            "run-wide",
            "run",
            "one run measuring 48 of 64 variables with 50,000 samples; mining and sampling dominate",
            overrides={"m": 64, "experiment.target_width": 48, "experiment.samples": 50000},
            export_datasets=False,
        ),
    )
}


#: Inputs per benchmark seed. One run's cost depends on what its seed draws
#: (a selection condition doubles the rows sampled, say), so each benchmark
#: seed stands for PARTS independent inputs and the timed jobs cycle
#: through them; their median then varies less from seed to seed.
PARTS = 3


def simulator_seed(seed: int, part: int) -> int:
    """Map a benchmark seed and part to a well-mixed non-negative 32-bit seed."""
    return int.from_bytes(hashlib.sha256(f"ktsim-bench:{seed}:{part}".encode()).digest()[:4], "big")


def make_spec(workload: Workload, seed: int, part: int = 0) -> dict:
    """One job's complete input, generated from the benchmark seed."""
    config = json.loads(DEFAULT_CONFIG.read_text())
    for path, value in workload.overrides.items():
        *parents, key = path.split(".")
        node = config
        for p in parents:
            node = node[p]
        node[key] = value
    sim_seed = simulator_seed(seed, part)
    config["master_seed"] = sim_seed
    return {
        "workload": workload.name,
        "part": part,
        "kind": workload.kind,
        "config": config,
        "seed": sim_seed,
        "replicates": workload.replicates,
        "jobs": workload.jobs,
        "export_datasets": workload.export_datasets,
    }


def cli_args(spec: dict, config_path: Path, out_dir: Path, jobs: int) -> list[str]:
    return [
        "sweep",
        "--config", str(config_path),
        "--replicates", str(spec["replicates"]),
        "--jobs", str(jobs),
        "--out", str(out_dir),
        "--quiet",
    ]


def output_dir(spec: dict, out_dir: Path) -> Path:
    """Where a job's sweep.csv/summary.json or result.json end up."""
    if spec["kind"] == "run":
        return out_dir
    return out_dir / spec["config"]["name"]


def execute(spec: dict, out_dir: Path) -> None:
    """Run one job in this process, writing its artifacts under ``out_dir``.

    The cli-sweep kind goes through ``ktsim.cli.main`` with ``--jobs 1``
    here; the timed runs start it as a separate process instead.
    """
    from ktsim import cli, run, scenario_from_dict, sweep, write_run_outputs, write_sweep_outputs

    kind = spec["kind"]
    if kind == "cli-sweep":
        out_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir / "config.json"
        config_path.write_text(json.dumps(spec["config"]))
        code = cli.main(cli_args(spec, config_path, out_dir, jobs=1))
        if code != 0:
            raise RuntimeError(f"ktsim sweep exited with code {code}")
        return
    cfg = scenario_from_dict(spec["config"])
    if kind == "sweep":
        write_sweep_outputs(sweep(cfg, spec["replicates"]), output_dir(spec, out_dir))
    elif kind == "run":
        result = run(cfg, spec["seed"])
        if spec["export_datasets"]:
            write_run_outputs(result, out_dir)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "result.json").write_text(result.to_json_text())
    else:
        raise ValueError(f"unknown job kind {kind!r}")


def use_checkout_source() -> None:
    """Import ktsim from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "ktsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ktsim sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ktsim

    if Path(ktsim.__file__).resolve().parent != (SRC / "ktsim").resolve():
        raise ImportError(f"ktsim was imported from {ktsim.__file__}, not from {SRC}")
