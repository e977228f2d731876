"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import copy
import functools
import io
import json
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ktsim import orchestrator
from ktsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from ktsim.config import default_scenario
from ktsim.metrics import ORACLE_MAX_DIST, ORACLE_MAX_STEPS


@pytest.fixture
def config_path(tmp_path):
    data = default_scenario().to_json()
    data.update({
        "name": "clitest",
        "m": 12,
        "tree_count": 2,
        "agents": {"count": 6, "coverage": 0.3, "accuracy": 0.85},
        "teams": {
            "experimenting": {"count": 1, "size": 2},
            "mining": {"count": 1, "size": 2},
            "labeling": {"count": 1, "size": 2},
        },
        "experiment": {"target_width": 5, "selection_prob": 0.5, "noise_rate": 0.1, "samples": 1000},
        "replicates": 2,
        "master_seed": 5,
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_missing_config_exits_3_with_the_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == EXIT_IO
    assert str(missing) in capsys.readouterr().err


def test_config_read_from_a_pipe_runs(config_path, tmp_path, capsys):
    # What a shell passes for --config <(cat config.json): a pipe, not a regular file.
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, config_path.read_bytes())
        os.close(write_fd)
        assert main(["run", "--config", f"/dev/fd/{read_fd}", "--out", str(tmp_path / "piped"), "--quiet"]) == EXIT_OK
    finally:
        os.close(read_fd)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "file"), "--quiet"]) == EXIT_OK
    assert (tmp_path / "piped" / "result.json").read_bytes() == (tmp_path / "file" / "result.json").read_bytes()


def test_config_path_that_is_a_directory_exits_3_saying_so(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_IO
    assert capsys.readouterr().err == f"error: config path is a directory, not a file: {tmp_path}\n"


def test_invalid_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "p_stay": 2.0}))
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert "p_stay" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [b'{"name": "caf\xe9"}', b"[" * 100_000, b'{"schema": 1, "m": ' + b"9" * 5001 + b"}"],
    ids=["not-utf-8", "nested-100000-deep", "integer-of-5001-digits"],
)
@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--replicates", "1"], ["validate", "--trials", "1"]], ids=lambda c: c[0]
)
def test_unreadable_json_exits_1_with_an_error_line(tmp_path, monkeypatch, capsys, command, content):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([*command, "--config", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid JSON (")
    assert err.count("\n") == 1


DEFAULT_CONFIG = json.loads((Path(__file__).resolve().parent.parent / "configs" / "default.json").read_text())


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


_HOLE = "extreme value goes here"

#: JSON texts of extreme values. No integer in [10**7, 2**63) is drawn:
#: validation accepts such a count or sample size and the run then takes minutes.
EXTREME_VALUES = st.one_of(
    st.integers(2**63, 2**80).map(str),
    st.just("9" * 5001),
    st.just("9" * 400),
    st.integers(-(2**80), -1).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0.0", '"\\u0000"', '"\\ud800"']),
    st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth),
)


@st.composite
def extreme_config_files(draw):
    """The default config with one leaf replaced by an extreme JSON value,
    or a file of bytes that are not UTF-8."""
    if draw(st.integers(0, 9)) == 0:
        return b"\xff" + draw(st.binary(max_size=64))
    *parents, key = draw(st.sampled_from(sorted(_leaves(DEFAULT_CONFIG))))
    doc = copy.deepcopy(DEFAULT_CONFIG)
    node = doc
    for name in parents:
        node = node[name]
    node[key] = _HOLE
    return json.dumps(doc).replace(json.dumps(_HOLE), draw(EXTREME_VALUES)).encode()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=extreme_config_files())
@example(content=json.dumps({**DEFAULT_CONFIG, "m": _HOLE}).replace(json.dumps(_HOLE), "9" * 5001).encode())
@example(content=json.dumps({**DEFAULT_CONFIG, "p_stay": _HOLE}).replace(json.dumps(_HOLE), "9" * 400).encode())
def test_validate_on_a_config_with_one_extreme_value_exits_cleanly(tmp_path, capsys, content):
    path = tmp_path / "extreme.json"
    path.write_bytes(content)
    capsys.readouterr()
    code = main(["validate", "--trials", "1", "--seed", "1", "--quiet", "--config", str(path)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO)
    assert err == "" or (err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1), err


def test_run_is_deterministic_across_invocations(config_path, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_run_quiet_prints_nothing(config_path, tmp_path, capsys):
    code = main(["run", "--config", str(config_path), "--quiet", "--out", str(tmp_path / "q")])
    assert code == EXIT_OK
    out = capsys.readouterr()
    assert out.out == ""


def test_sweep_writes_csv_summary_and_per_run_files(config_path, tmp_path, capsys):
    out = tmp_path / "sweeps"
    code = main([
        "sweep", "--config", str(config_path), "--replicates", "2", "--out", str(out), "--quiet",
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    target = out / "clitest"
    rows = (target / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 8 * 2
    summary = json.loads((target / "summary.json").read_text())
    assert len(summary["per_combo"]) == 8
    assert (target / "combo0" / "rep0.json").is_file()
    assert (target / "combo7" / "rep1.json").is_file()


def test_sweep_refuses_nonempty_output_without_force(config_path, tmp_path, capsys):
    out = tmp_path / "sweeps"
    target = out / "clitest"
    target.mkdir(parents=True)
    (target / "stale.txt").write_text("leftover")
    code = main(["sweep", "--config", str(config_path), "--replicates", "1", "--out", str(out)])
    assert code == EXIT_IO
    assert "--force" in capsys.readouterr().err
    code = main([
        "sweep", "--config", str(config_path), "--replicates", "1", "--out", str(out),
        "--force", "--quiet",
    ])
    assert code == EXIT_OK
    capsys.readouterr()


def test_validate_default_labeler_passes(config_path, capsys):
    code = main([
        "validate", "--trials", "50", "--config", str(config_path), "--seed", "3", "--quiet",
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert payload["trials"] == 50
    assert payload["seed"] == 3


def test_validate_break_passthrough_exits_2_with_transcripts(config_path, capsys):
    code = main([
        "validate", "--trials", "50", "--config", str(config_path), "--seed", "3",
        "--break-passthrough",
    ])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["violations"] > 0
    assert payload["break_passthrough"] is True
    assert payload["transcripts"]
    assert "violation" in captured.err


def test_validate_zero_trials_exits_1(capsys):
    assert main(["validate", "--trials", "0", "--seed", "1"]) == EXIT_CONFIG
    capsys.readouterr()


def test_oracle_reports_analytic_and_empirical(capsys):
    code = main([
        "oracle", "--p-stay", "0.9", "--dist", "1", "--delta", "0.0",
        "--samples", "100000", "--seed", "7", "--quiet",
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["analytic"] == pytest.approx(0.8)
    assert abs(payload["empirical"] - payload["analytic"]) < 0.01
    assert payload["abs_diff"] < 0.01


def test_oracle_rejects_delta_half(capsys):
    assert main(["oracle", "--p-stay", "0.9", "--dist", "1", "--delta", "0.5"]) == EXIT_CONFIG
    capsys.readouterr()


def test_oracle_with_a_constant_endpoint_exits_1_without_printing_nan(capsys):
    # Two samples whose endpoint reads one value: the correlation is 0/0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", "--p-stay", "0.9", "--dist", "2", "--samples", "2", "--seed", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: an endpoint read one value in all 2 samples")
    assert captured.err.count("\n") == 1


def test_oracle_with_more_samples_than_numpy_can_describe_exits_1(capsys):
    # sys.maxsize + 1: numpy cannot shape an array that long.
    assert main(["oracle", "--p-stay", "0.9", "--dist", "1", "--samples", str(2**63), "--seed", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: samples must be <= {2**63 - 1}, got {2**63}\n"


@pytest.mark.parametrize(("dist", "samples", "message"), [
    # 10**12 steps: months of walking, for an analytic value that is 0.
    (10**12, 2, f"dist must be <= {ORACLE_MAX_DIST}, got {10**12}"),
    (10, ORACLE_MAX_STEPS // 10 + 1, f"dist * samples must be <= {ORACLE_MAX_STEPS}, got 10 * {ORACLE_MAX_STEPS // 10 + 1}"),
], ids=["dist", "dist-times-samples"])
def test_oracle_past_a_work_limit_exits_1(capsys, dist, samples, message):
    assert main(["oracle", "--p-stay", "0.9", "--dist", str(dist), "--samples", str(samples), "--seed", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_oracle_without_seed_prints_the_chosen_seed(capsys):
    code = main(["oracle", "--p-stay", "0.8", "--dist", "1", "--samples", "2000"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert "seed" in payload
    assert str(payload["seed"]) in captured.err


# Two replicates, so the sweep's MemoryError is raised in a pool worker.
@pytest.mark.parametrize("argv", [["run"], ["sweep", "--jobs", "2", "--replicates", "2"]], ids=["run", "sweep-jobs-2"])
def test_a_run_too_large_for_memory_exits_1(config_path, tmp_path, capsys, argv):
    # 10**17 rows of 12 variables ask for about 1 EiB, more than any address
    # space, so numpy refuses the request before allocating anything.
    data = json.loads(config_path.read_text())
    data["experiment"]["samples"] = 10**17
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: Unable to allocate ")
    assert captured.err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--jobs", "2", "--replicates", "1"]], ids=["run", "sweep-jobs-2"])
def test_samples_beyond_the_address_space_fail_validation(config_path, tmp_path, capsys, argv):
    # 10**18 rows of 12 variables need a table larger than numpy can describe
    # (sys.maxsize bytes), so validation rejects the config before any work.
    data = json.loads(config_path.read_text())
    data["experiment"]["samples"] = 10**18
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: experiment.samples: must keep the largest sampling array within ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_unknown_arguments_exit_1(capsys):
    assert main(["run", "--bogus"]) == EXIT_CONFIG
    capsys.readouterr()


def test_quiet_output_of_validate_is_pure_json(config_path, capsys):
    main(["validate", "--trials", "20", "--config", str(config_path), "--seed", "9", "--quiet"])
    captured = capsys.readouterr()
    json.loads(captured.out)  # must not raise
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["oracle", "--p-stay", "0.9", "--dist", "1", "--seed", "-5"],
    ["validate", "--trials", "2", "--seed", "-3"],
    ["run", "--seed", "seven"],
])
def test_bad_seed_exits_1_with_an_error_line(config_path, tmp_path, capsys, argv):
    if argv[0] == "run":
        argv = argv + ["--config", str(config_path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --seed:")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_negative_master_seed_exits_1_naming_the_field(config_path, tmp_path, capsys):
    data = json.loads(config_path.read_text())
    data["master_seed"] = -1
    config_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: master_seed:")


def test_forced_sweep_replaces_a_larger_earlier_sweep(config_path, tmp_path, capsys):
    out = tmp_path / "sweeps"
    target = out / "clitest"
    sweep_args = ["sweep", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(sweep_args + ["--replicates", "3"]) == EXIT_OK
    assert (target / "combo5" / "rep2.json").is_file()
    assert main(sweep_args + ["--replicates", "1", "--force"]) == EXIT_OK
    capsys.readouterr()
    for mask in range(8):
        assert sorted(p.name for p in (target / f"combo{mask}").iterdir()) == ["rep0.json"]
    assert len((target / "sweep.csv").read_text().strip().splitlines()) == 1 + 8
    assert [p.name for p in out.iterdir()] == ["clitest"]


def test_failed_forced_sweep_keeps_the_earlier_sweep(config_path, tmp_path, capsys):
    out = tmp_path / "sweeps"
    sweep_args = ["sweep", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(sweep_args + ["--replicates", "1"]) == EXIT_OK
    before = (out / "clitest" / "sweep.csv").read_bytes()
    assert main(sweep_args + ["--replicates", "0", "--force"]) == EXIT_CONFIG
    capsys.readouterr()
    assert (out / "clitest" / "sweep.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["clitest"]


def _integer_slots(doc, keys=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _integer_slots(value, keys + (key,))
        elif isinstance(value, int) and not isinstance(value, bool):
            yield keys + (key,)


@pytest.mark.parametrize("keys", list(_integer_slots(default_scenario().to_json())), ids=".".join)
def test_boolean_in_an_integer_field_exits_1_naming_the_field(tmp_path, capsys, keys):
    data = default_scenario().to_json()
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    field = ".".join(keys) if len(keys) > 1 else f"config.{keys[0]}"
    assert capsys.readouterr().err == f"error: {field}: expected int, got bool\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\0b"])
def test_sweep_name_that_is_not_one_path_component_exits_1(config_path, tmp_path, capsys, name):
    out = tmp_path / "results"
    sentinel = out / "other_scenario" / "sweep.csv"
    sentinel.parent.mkdir(parents=True)
    sentinel.write_text("keep me")
    data = json.loads(config_path.read_text())
    data["name"] = name
    config_path.write_text(json.dumps(data))
    argv = ["sweep", "--config", str(config_path), "--replicates", "1", "--out", str(out), "--force", "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: name: ")
    assert sentinel.read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "other_scenario", "results", "sweep.csv"]


@pytest.mark.parametrize("command", [["run"], ["sweep", "--replicates", "1"]], ids=lambda c: c[0])
@pytest.mark.parametrize("name", ["\ud800x", "\udcffx"], ids=["ud800x", "udcffx"])
def test_a_name_that_utf8_cannot_encode_exits_1_with_one_error_line(config_path, tmp_path, capsys, command, name):
    # A lone surrogate is valid JSON, but no directory name or sweep.csv field.
    data = json.loads(config_path.read_text())
    data["name"] = name
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: name: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(("section", "key", "entries"), [
    ("wiring", "mining", [[0, 0], [0, 1], [0, 0]]),
    ("wiring", "labeling", [[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    ("peer_access", "mining", [[0, 1], [1, 0], [0, 1]]),
    ("peer_access", "labeling", [[0, 1], [0, 0], [0, 1]]),
])
def test_repeated_wiring_or_peer_entry_exits_1(config_path, tmp_path, capsys, section, key, entries):
    data = json.loads(config_path.read_text())
    data["teams"] = {role: {"count": 2, "size": 2} for role in ("experimenting", "mining", "labeling")}
    data[section] = {key: entries}
    config_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {section}.{key}[2]: repeats an earlier entry\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("section", "key", "value"), [
    ("mining", "veto_confidence", 2.0),
    ("mining", "dep_threshold", 0.01),
    ("labeling", "veto_confidence", 0.0),
    ("labeling", "trust_confidence", 1.5),
    ("labeling", "ind_threshold", 0.5),
])
def test_range_error_in_mining_or_labeling_names_its_record(config_path, tmp_path, capsys, section, key, value):
    data = json.loads(config_path.read_text())
    data[section][key] = value
    config_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}: ")
    assert key.split("_")[0] in err
    assert not (tmp_path / "out").exists()


def test_sweep_seed_is_the_master_seed(config_path, tmp_path, capsys):
    def sweep_csv(name, *seed):
        out = tmp_path / name
        argv = ["sweep", "--config", str(config_path), "--replicates", "1", "--out", str(out), "--quiet", *seed]
        assert main(argv) == EXIT_OK
        return (out / "clitest" / "sweep.csv").read_text()

    def seeds(text):
        return {line.split(",")[3] for line in text.splitlines()[1:]}

    master_seed = json.loads(config_path.read_text())["master_seed"]
    assert seeds(sweep_csv("five", "--seed", "5")) != seeds(sweep_csv("six", "--seed", "6"))
    assert sweep_csv("omitted") == sweep_csv("master", "--seed", str(master_seed))
    capsys.readouterr()


def test_run_table_follows_a_replaced_stdout(config_path, tmp_path, capsys):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["run", "--config", str(config_path), "--seed", "1", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert any(line.split()[:1] == ["union"] for line in buffer.getvalue().splitlines())
    assert capsys.readouterr().out == ""


def _rewrite(config_path, **fields):
    data = json.loads(config_path.read_text())
    data.update(fields)
    config_path.write_text(json.dumps(data))


@pytest.mark.parametrize("command", [["run"], ["validate", "--trials", "1"]], ids=lambda c: c[0])
@pytest.mark.parametrize(
    ("m", "tree_count"), [(845, 3), (1200, 3), (2000, 3), (1200, 600), (1200, 1122), (844, 3), (5000, 2)]
)
def test_forests_too_costly_to_count_fail_validation(config_path, tmp_path, capsys, command, m, tree_count):
    # The table that once held the forest counts took 10 s, 45 s, over a
    # minute, over a minute, 9 s and 9 s to build for these shapes on a 2-core
    # x86-64 machine, and 13 s with one draw for (5000, 2); (1200, 1122) and
    # (844, 3) sit just past the limit, a conservative charge for the closed form.
    _rewrite(config_path, m=m, tree_count=tree_count)
    out = tmp_path / "out"
    argv = [*command, "--config", str(config_path)] + (["--out", str(out)] if command == ["run"] else [])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: tree_count: counting the forests of m={m} variables in {tree_count} trees")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["validate", "--trials", "1"]], ids=lambda c: c[0])
def test_as_many_trees_as_variables_still_runs_at_m_1200(config_path, tmp_path, capsys, command):
    _rewrite(config_path, m=1200, tree_count=1200, agents={"count": 6, "coverage": 0.002, "accuracy": 0.85})
    argv = [*command, "--config", str(config_path), "--seed", "3", "--quiet"]
    assert main(argv + (["--out", str(tmp_path / "out")] if command == ["run"] else [])) == EXIT_OK
    payload = capsys.readouterr().out
    if command == ["run"]:
        assert json.loads((tmp_path / "out" / "result.json").read_text())["ground_truth"]["tree_count"] == 1200
    else:
        assert json.loads(payload)["violations"] == 0


def test_a_run_replaces_the_datasets_of_an_earlier_run(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    teams = json.loads(config_path.read_text())["teams"]
    _rewrite(config_path, teams={**teams, "experimenting": {"count": 4, "size": 2}})
    assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert len(list((out / "datasets").iterdir())) == 8
    _rewrite(config_path, teams=teams)
    assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == EXIT_OK
    written = [d["team_id"] for d in json.loads((out / "result.json").read_text())["datasets"]]
    assert written == [0]
    assert sorted(p.name for p in (out / "datasets").iterdir()) == ["team0.csv", "team0.datasheet.json"]
    assert sorted(p.name for p in out.iterdir()) == ["datasets", "result.json"]


def test_a_sweep_worker_that_dies_exits_1_with_one_error_line(config_path, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def die(*args):
        # As under the OOM killer: the worker vanishes without a Python exception.
        if os.getpid() != parent:
            os._exit(9)
        raise AssertionError("a cell ran in the parent process")

    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setattr(orchestrator, "run", die)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "out"
    argv = ["sweep", "--jobs", "2", "--replicates", "2", "--config", str(config_path), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a sweep worker process died")
    assert captured.err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())
