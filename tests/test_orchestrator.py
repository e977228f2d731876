"""Tests for end-to-end runs, channel gating, and paired sweeps."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ktsim
from ktsim import config, experimenting, orchestrator
from ktsim.config import ChannelPolicy, Wiring, default_scenario, scenario_from_dict
from ktsim.errors import ConfigError
from ktsim.knowledge import Role, rectify
from ktsim.labeling import LabeledKnowledge
from ktsim.mining import phi_coefficient
from ktsim.orchestrator import (
    _encode,
    _json_line,
    _labeling_text,
    replicate_seed,
    run,
    sweep,
    write_run_outputs,
    write_sweep_outputs,
)
from claimref import pair_keys
from test_golden import READ_GRAPH_CONFIG


def small_scenario(**overrides):
    data = {
        "schema": 1,
        "name": "small",
        "m": 12,
        "tree_count": 2,
        "p_stay": 0.9,
        "agents": {"count": 6, "coverage": 0.3, "accuracy": 0.85},
        "teams": {
            "experimenting": {"count": 2, "size": 2},
            "mining": {"count": 2, "size": 2},
            "labeling": {"count": 2, "size": 2},
        },
        "experiment": {"target_width": 5, "selection_prob": 0.5, "noise_rate": 0.1, "samples": 1500},
        "replicates": 3,
        "master_seed": 77,
    }
    data.update(overrides)
    return scenario_from_dict(data)


def test_same_config_and_seed_give_byte_identical_results():
    cfg = small_scenario()
    a = run(cfg, 42)
    b = run(cfg, 42)
    assert a.to_json_text() == b.to_json_text()


def test_different_seeds_differ():
    cfg = small_scenario()
    assert run(cfg, 1).to_json_text() != run(cfg, 2).to_json_text()


def test_channels_do_not_perturb_upstream_sampling():
    cfg = small_scenario()
    all_on = run(cfg.with_channels(ChannelPolicy(True, True, True)), 5)
    all_off = run(cfg.with_channels(ChannelPolicy(False, False, False)), 5)
    assert [d.sha256 for d in all_on.datasets] == [d.sha256 for d in all_off.datasets]
    # raw phi recomputed from the shared datasets agrees exactly
    for rec_on, rec_off in zip(all_on.datasets, all_off.datasets):
        cols = rec_on.dataset.columns
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                assert phi_coefficient(rec_on.dataset, cols[i], cols[j]) == phi_coefficient(
                    rec_off.dataset, cols[i], cols[j]
                )
    # the downstream products are what differ
    assert all_on.openness != all_off.openness or all_on.labelings != all_off.labelings


def test_datasheet_contents_are_channel_invariant():
    cfg = small_scenario()
    sheets = []
    for mask in range(8):
        result = run(cfg.with_channels(ChannelPolicy.from_mask(mask)), 5)
        sheets.append([d.datasheet for d in result.datasets])
    assert all(s == sheets[0] for s in sheets[1:])


def test_closed_channel1_means_no_embedded_datasheet():
    cfg = small_scenario()
    closed = run(cfg.with_channels(ChannelPolicy(False, True, True)), 6)
    for _, info in closed.informations:
        assert info.info_sheet.upstream_datasheet is None
        assert info.info_sheet.corrections_applied == frozenset()
    opened = run(cfg.with_channels(ChannelPolicy(True, False, False)), 6)
    for _, info in opened.informations:
        assert info.info_sheet.upstream_datasheet is not None


def test_channel2_gates_the_knowledge_snapshot():
    cfg = small_scenario()
    on = run(cfg.with_channels(ChannelPolicy(False, True, False)), 7)
    off = run(cfg.with_channels(ChannelPolicy(False, False, False)), 7)
    # channel 2 adds the miner's knowledge as a layer of the labeler's
    # effective prior; the stored products are the as-mined ones either way
    assert on.openness.openness != off.openness.openness or on.labelings != off.labelings


def test_self_driving_single_team_runs_all_roles():
    cfg = small_scenario(
        self_driving=True,
        teams={
            "experimenting": {"count": 1, "size": 2},
            "mining": {"count": 1, "size": 2},
            "labeling": {"count": 1, "size": 2},
        },
    )
    result = run(cfg.with_channels(ChannelPolicy(True, True, True)), 8)
    by_role = {}
    for team in result.teams:
        by_role.setdefault(team.role, []).append(team)
    members = {tuple(t.members) for teams in by_role.values() for t in teams}
    assert len(members) == 1  # same agents hold every role
    assert len(result.labelings) == 1
    assert result.labelings[0].teams == (0, 0, 0)


def test_self_driving_rectifies_each_member_set_once(monkeypatch):
    # The three roles share each experimenting team's members, and so its knowledge.
    calls = []

    def counted(priors):
        calls.append(len(priors))
        return rectify(priors)

    monkeypatch.setattr(orchestrator, "rectify", counted)
    spec = {"count": 3, "size": 2}
    cfg = small_scenario(self_driving=True, teams={"experimenting": spec, "mining": spec, "labeling": spec})
    result = run(cfg, 8)
    assert len(calls) == cfg.teams.experimenting.count
    by_role = {role: [t.knowledge for t in result.teams if t.role is role] for role in Role}
    assert by_role[Role.MINING] == by_role[Role.LABELING] == by_role[Role.EXPERIMENTING]


def test_each_dataset_builds_its_pair_counts_once(monkeypatch):
    # Two miners read each dataset; both take its one Gram matrix.
    built = []

    def counted(rows):
        built.append(rows.shape)
        return pair_counts(rows)

    pair_counts = experimenting._pair_counts
    monkeypatch.setattr(experimenting, "_pair_counts", counted)
    result = run(default_scenario(), 3)
    assert (len(result.datasets), len(result.informations)) == (2, 4)
    assert len(built) == 2


def test_explicit_wiring_restricts_products():
    cfg = small_scenario()
    cfg = dataclasses.replace(
        cfg,
        wiring=Wiring(mining=((0, 0), (1, 1)), labeling=((0, 0, 0), (1, 1, 1))),
    )
    result = run(cfg, 9)
    assert sorted(key for key, _ in result.informations) == [(0, 0), (1, 1)]
    assert [lk.teams for lk in result.labelings] == [(0, 0, 0), (1, 1, 1)]


def test_replicate_seeds_are_distinct_and_stable():
    seeds = [replicate_seed(77, r) for r in range(64)]
    assert len(set(seeds)) == 64
    assert seeds == [replicate_seed(77, r) for r in range(64)]
    assert replicate_seed(78, 0) != replicate_seed(77, 0)


def test_sweep_emits_eight_rows_per_replicate(tmp_path):
    cfg = small_scenario()
    result = sweep(cfg, 2, out_dir=tmp_path / "s")
    assert len(result.rows) == 16
    masks = sorted({row.combo_mask for row in result.rows})
    assert masks == list(range(8))
    # paired design: one data seed per replicate, shared across combos
    for rep in (0, 1):
        seeds = {row.seed for row in result.rows if row.replicate == rep}
        assert len(seeds) == 1
    per_rep = {row.seed for row in result.rows}
    assert len(per_rep) == 2
    for mask in range(8):
        assert (tmp_path / "s" / f"combo{mask}" / "rep0.json").is_file()


def test_sweep_summary_and_csv(tmp_path):
    cfg = small_scenario()
    result = sweep(cfg, 2)
    csv_path, summary_path = write_sweep_outputs(result, tmp_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scenario,combo_mask,replicate,seed,union_size,true_count,false_count,openness,normalized"
    assert len(lines) == 17
    summary = json.loads(summary_path.read_text())
    assert len(summary["per_combo"]) == 8
    assert {"wins", "losses", "ties", "p_greater"} <= set(summary["sign_test_all_vs_none"])


def test_sweep_rejects_bad_arguments():
    cfg = small_scenario()
    with pytest.raises(ConfigError):
        sweep(cfg, 0)
    with pytest.raises(ConfigError):
        sweep(cfg, 1, jobs=0)


def test_parallel_sweep_matches_sequential():
    cfg = small_scenario()
    for replicates in (2, 3):  # 3 replicates split unevenly over 2 workers
        seq = sweep(cfg, replicates, jobs=1)
        par = sweep(cfg, replicates, jobs=2)
        assert seq.rows == par.rows


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_sweep_writes_each_upstream_once_and_cells_reassemble_into_runs(tmp_path):
    cfg = ktsim.default_scenario()
    for replicates in (2, 3):  # 3 replicates split unevenly over 2 workers
        sweep(cfg, replicates, out_dir=tmp_path / f"seq{replicates}", jobs=1)
        sweep(cfg, replicates, out_dir=tmp_path / f"par{replicates}", jobs=2)
        tree = _tree(tmp_path / f"seq{replicates}")
        assert _tree(tmp_path / f"par{replicates}") == tree
        cells = [f"combo{mask}/rep{rep}.json" for mask in range(8) for rep in range(replicates)]
        assert sorted(tree) == sorted(cells + [f"rep{rep}/upstream.json" for rep in range(replicates)])
    for rep in range(replicates):
        upstream = json.loads(tree[f"rep{rep}/upstream.json"])
        seed = replicate_seed(cfg.master_seed, rep)
        for mask in range(8):
            cell = json.loads(tree[f"combo{mask}/rep{rep}.json"])
            assert cell.pop("dataset_sha256") == [d["sha256"] for d in upstream["datasets"]]
            expected = run(cfg.with_channels(ChannelPolicy.from_mask(mask)), seed).to_json_text()
            assert json.dumps({**cell, **upstream}, sort_keys=True, separators=(",", ":")) + "\n" == expected


@pytest.fixture
def serial_pool(monkeypatch):
    """Put in the sweep's process pool a fake that records the pool size
    asked for and what each task returns, and maps in this process."""
    log = SimpleNamespace(sizes=[], tasks=[])

    class SerialPool:
        def __init__(self, max_workers):
            log.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            for args in zip(*iterables):
                log.tasks.append(fn(*args))
                yield log.tasks[-1]

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", SerialPool)
    return log


def test_sweep_pool_never_exceeds_replicates_or_cpus(serial_pool, monkeypatch):
    cfg = small_scenario()
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 64)
    pooled = sweep(cfg, 4, jobs=64)
    sweep(cfg, 1, jobs=64)  # one replicate: no pool
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 3)
    sweep(cfg, 4, jobs=64)
    sweep(cfg, 4, jobs=2)
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: None)
    serial = sweep(cfg, 4, jobs=64)  # CPU count unknown: no pool
    assert serial_pool.sizes == [4, 3, 2]
    assert pooled == serial == sweep(cfg, 4)


def test_a_sweep_task_is_one_replicate_with_its_eight_masks(serial_pool, monkeypatch):
    cfg = small_scenario()
    validated = []
    validate = config._validate_scenario
    monkeypatch.setattr(config, "_validate_scenario", lambda cfg: validated.append(cfg) or validate(cfg))
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 2)
    result = sweep(cfg, 2, jobs=2)
    assert serial_pool.sizes == [2]
    assert len(serial_pool.tasks) == 2
    for rep, rows in enumerate(serial_pool.tasks):
        assert [row.combo_mask for row in rows] == list(range(8))
        assert {(row.replicate, row.seed) for row in rows} == {(rep, replicate_seed(cfg.master_seed, rep))}
    assert result.rows == tuple(rows[mask] for mask in range(8) for rows in serial_pool.tasks)
    # The scenario is validated once per channel mask, not once per (mask, replicate).
    assert [c.channels.mask for c in validated] == list(range(8))


def test_run_outputs_include_datasets_and_result(tmp_path):
    cfg = small_scenario()
    result = run(cfg, 11)
    path = write_run_outputs(result, tmp_path)
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert payload["seed"] == 11
    assert len(payload["datasets"]) == 2
    assert payload["openness"]["true_count"] - payload["openness"]["false_count"] == payload["openness"]["openness"]
    for rec in result.datasets:
        assert (tmp_path / "datasets" / f"team{rec.datasheet.team_id}.csv").is_file()
        assert (tmp_path / "datasets" / f"team{rec.datasheet.team_id}.datasheet.json").is_file()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_outputs_write_one_team_and_one_labeling_at_a_time(tmp_path):
    # m=90: 4005 pairs. The eight labelings are 97% of the text, about 35 KB
    # each; a team is named by its digest in about 100 bytes. Holding the
    # whole text, as to_json_text must, takes over three times what writing
    # one labeling at a time does.
    result = run(scenario_from_dict({**default_scenario().to_json(), "m": 90}), 3)
    written = _peak_bytes(lambda: write_run_outputs(result, tmp_path))
    whole = _peak_bytes(result.to_json_text)
    assert written < whole / 3
    assert (tmp_path / "result.json").read_text() == result.to_json_text()


def test_writers_build_no_per_claim_record(tmp_path, monkeypatch):
    # Claims are written straight from a labeling's columns; the record view
    # ``entries`` is for readers only.
    def no_records(lk):
        raise AssertionError("a writer built the per-claim records")

    monkeypatch.setattr(LabeledKnowledge, "entries", property(no_records))
    cfg = small_scenario()
    result = run(cfg, 11)
    assert write_run_outputs(result, tmp_path / "run").read_text() == result.to_json_text()
    sweep(cfg, 1, out_dir=tmp_path / "sweep")
    assert len(list((tmp_path / "sweep").glob("combo*/rep0.json"))) == 8


def _line(doc):
    return "".join(_json_line(doc))


#: A pattern label on (0, 1) and a pass-through on (2, 3), and its JSON text.
LABELING = LabeledKnowledge.from_arrays(
    pair_keys([(0, 1), (2, 3)]), np.array([True, False]), np.array([False, True]), (0, 1, 2)
)
LABELING_TEXT = (
    '{"claims":[{"origin":"pattern","polarity":"dep","u":0,"v":1},'
    '{"origin":"prior_passthrough","polarity":"indep","u":2,"v":3}],"teams":[0,1,2]}'
)


def test_the_writer_streams_the_elements_of_top_level_iterators():
    assert _labeling_text(LABELING) == LABELING_TEXT == _encode(LABELING.to_json())
    doc = {"z": iter([LABELING, 3, {"f": [1]}]), "b": [2], "e": iter([])}
    assert _line(doc) == f'{{"b":[2],"e":[],"z":[{LABELING_TEXT},3,{{"f":[1]}}]}}\n'


@pytest.mark.parametrize("value", [
    [LABELING],
    [{"claims": LABELING}],
    {"rows": [LABELING]},
    LABELING,
    iter([{"f": LABELING}]),
], ids=["in-a-list", "in-a-dict-in-a-list", "in-a-list-in-a-dict", "a-value", "in-a-dict-in-an-iterator"])
def test_a_labeling_the_writer_hands_to_the_encoder_fails_loudly(value):
    with pytest.raises(TypeError, match="LabeledKnowledge is not JSON serializable"):
        _line({"x": value})


def _listed(doc):
    """``doc`` with every iterator listed and every labeling as its ``to_json()``."""
    def plain(value):
        return value.to_json() if isinstance(value, LabeledKnowledge) else value

    return {k: list(map(plain, v)) if isinstance(v, Iterator) else v for k, v in doc.items()}


DEFAULT = default_scenario().to_json()


@pytest.mark.parametrize("config", [
    DEFAULT,
    READ_GRAPH_CONFIG,
    {**DEFAULT, "m": 300},
    {**DEFAULT, "m": 64, "experiment": {**DEFAULT["experiment"], "target_width": 48, "samples": 2000}},
], ids=["default", "read-graph", "m300", "wide"])
def test_every_document_is_written_as_the_encoder_writes_it_listed(config):
    # m=300 gives 300 parents and the wide run 1,128 patterns per column:
    # long lists, which the writer encodes whole.
    result = run(scenario_from_dict(config), 3)
    assert len(result.ground_truth.parents) == config["m"]
    if config["m"] == 64:
        assert {len(info.patterns) for _, info in result.informations} == {1128}
    for doc in (result.doc, result.upstream_doc, result.downstream_doc):
        written, expected = _line(doc()), _encode(_listed(doc())) + "\n"
        # Where they first differ: pytest's own diff of two long lines takes minutes.
        first_difference = None if written == expected else len(os.path.commonprefix([written, expected]))
        assert first_difference is None


def test_a_labeling_is_never_written_as_a_quoted_string():
    # Its JSON form is plain JSON; the labeling itself is no str, so the encoder refuses it.
    lk = run(small_scenario(), 11).labelings[0]
    assert json.loads(json.dumps(lk.to_json())) == lk.to_json()
    with pytest.raises(TypeError, match="LabeledKnowledge is not JSON serializable"):
        json.dumps(lk)


@pytest.mark.parametrize("config", [default_scenario().to_json(), READ_GRAPH_CONFIG], ids=["default", "read-graph"])
def test_every_part_of_a_run_has_a_plain_json_form(config):
    result = run(scenario_from_dict(config), 3)
    parts = (
        result.config,
        result.ground_truth,
        *result.teams,
        *result.datasets,
        *(info for _, info in result.informations),
        *result.labelings,
        result.openness,
    )
    for part in parts:
        json.dumps(part.to_json())
    written = json.loads(result.to_json_text())
    assert written["labelings"] == [lk.to_json() for lk in result.labelings]


#: Runs the CLI's run, a one-replicate sweep and 5 validator trials on the
#: default scenario, then prints whether ``numpy.ma`` was ever imported.
_NO_MASKED_ARRAYS = """
import json, sys, tempfile
from pathlib import Path
from ktsim.cli import main
from ktsim.config import default_scenario
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(default_scenario().to_json()))
    codes = [
        main(["run", "--config", str(config), "--out", str(Path(tmp) / "run"), "--quiet"]),
        main(["sweep", "--config", str(config), "--replicates", "1", "--out", str(Path(tmp) / "sweep"), "--quiet"]),
        main(["validate", "--trials", "5", "--seed", "1", "--quiet"]),
    ]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_the_pipeline_never_imports_numpy_ma():
    # numpy.ma adds about 2 MB of resident memory to every process that
    # imports it; a plain np.unique (without a return_* option) pulls it in.
    path = os.pathsep.join([str(Path(ktsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "numpy.ma": False}
