"""Tests of the benchmark itself: metric names and units, output checks,
self-time arithmetic and the useful-work ratios of a one-replicate sweep."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

import calibration
import run
import workloads
from tracing import Tracer, self_times

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

#: Tiny versions of every workload, so each job takes well under a second.
TINY = {
    "sweep-default": {"replicates": 1},
    "cli-sweep": {"replicates": 1},
    "run-m300": {"overrides": {"m": 40}},
    "run-wide": {"overrides": {"m": 20, "experiment.target_width": 12, "experiment.samples": 2000}},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    tiny_workloads = {name: replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny_workloads)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PER_JOB", 1)
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)
    return tiny_workloads


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(("workload", "trace", "section"), [
    ("cli-sweep", 0, "end_to_end"),
    ("run-m300", 0, "end_to_end"),
    ("sweep-default", 1, "per_layer"),
    ("cli-sweep", 1, "per_layer"),
])
def test_smoke_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace, section):
    result = _result(capsys, workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_sweep_csv_counts_as_failed(tiny, capsys, monkeypatch):
    real_execute = workloads.execute

    def execute_then_tamper(spec, out):
        real_execute(spec, out)
        path = workloads.output_dir(spec, out) / "sweep.csv"
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index("openness")] = str(int(rows[1][rows[0].index("openness")]) + 1)
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    monkeypatch.setattr(workloads, "execute", execute_then_tamper)
    result = _result(capsys, "sweep-default", 1)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 30, 60, 0),  # overlaps its sibling: the overlap is covered once
        ("a.1", 20, 35, 1),
        ("late", 90, 120, 0),  # runs past its parent: only [90, 100] counts
        ("other", 200, 250, -1),
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 15, 30, 15, 30, 50]


def test_one_replicate_sweep_recomputes_invariant_stages_per_mask(tmp_path):
    workloads.use_checkout_source()
    import ktsim.knowledge

    original = ktsim.knowledge.rectify
    spec = workloads.make_spec(replace(workloads.WORKLOADS["sweep-default"], replicates=1), seed=0)
    tracer = Tracer()
    with tracer.installed():
        workloads.execute(spec, tmp_path)
    assert ktsim.knowledge.rectify is original
    summary = tracer.summary()
    for stage in (
        "knowledge.build_ground_truth",
        "knowledge.sample_agent_pool",
        "knowledge.rectify",
        "experimenting.design_experiment",
        "experimenting.sample_dataset",
    ):
        assert summary[f"{stage}.useful_ratio"] == 0.125, stage
    assert summary["mining.mine.useful_ratio"] == 0.25
    assert summary["orchestrator.run.calls"] == 8
    # sweep.csv (through Path.open) and summary.json (through write_text)
    assert summary["orchestrator.write.calls"] == 2
    assert 0 < summary["orchestrator.invariant_time_share"] < 1


def test_tick_arriving_inside_a_tick_is_skipped(monkeypatch, tmp_path):
    monkeypatch.setenv(calibration.ENV, str(tmp_path))
    monkeypatch.setattr(calibration, "_log", {})
    real_kernel = calibration.kernel

    def kernel_interrupted_by_a_tick():
        calibration._on_tick(None, None)
        return real_kernel()

    monkeypatch.setattr(calibration, "kernel", kernel_interrupted_by_a_tick)
    calibration._on_tick(None, None)
    for fh in calibration._log.values():
        fh.close()
    (sample_file,) = tmp_path.glob("*.txt")
    assert len(sample_file.read_text().splitlines()) == 1
