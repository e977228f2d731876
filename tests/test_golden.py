"""Golden outputs: seeded artifacts whose bytes must not change.

The first four digests were taken from the dict-based knowledge
representation that the pair-keyed arrays replaced; the rest were taken
from the hand-written per-record ``to_json`` methods that the field-driven
``Record`` encoder replaced. A change that moves any of them must say why in
CHANGES.md; never update a digest to hide a defect.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ktsim import scenario_from_dict, sweep, write_sweep_outputs
from ktsim.cli import EXIT_OK, main

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

SWEEP_CSV_SHA256 = "608b9654c023da13402bf0b91eb24a64e817ac39f2e0baa8725cb458a9e5ea23"
SWEEP_SUMMARY_SHA256 = "c15903a7420980e79f8e355d278fce832e6311a5ec4a8f1d7922abd8e8b29092"
RUN_SEED_42_SHA256 = "80ebcbf849d02234b053b52260f700131995f035dc658c97786c64f65e5b0861"
WIDE_RUN_SEED_7_SHA256 = "9eb6a0bef7a2727c116b8b0ca7d890994b4e78766106e991d27c0b19883aa8c4"

#: Dataset exports of ``run --seed 42``: CSV and datasheet sidecar per team.
RUN_SEED_42_DATASETS_SHA256 = {
    "team0.csv": "5769b5d6585de58cb0917215d583418c9cd6f13d20ba2be5f276592a4af8d430",
    "team0.datasheet.json": "0cb5e482ce4ee5dadb73be5d066ae3b97007450fd776c38a3f6c2ab0d368aa13",
    "team1.csv": "a30f45d292bc04cad979af6e6e37b7e99298b4c93e3a9846f6213c7a063120be",
    "team1.datasheet.json": "9f669a25329f1f227fb27c5e203803e1cf8b72208c192b5093dd1b6324c2b18b",
}
VALIDATE_STDOUT_SHA256 = "dda64a139d2e12ed83f58772a73eff3fddef1b3c8e0b9ce2c4599dc50a5342d9"
ORACLE_STDOUT_SHA256 = "a0bc874c2255995a79e93b0a0167831790565dd6346c3b709c00056caa082999"
#: ``combo<mask>/rep0.json`` of a one-replicate CLI sweep of the default config.
SWEEP_REP0_SHA256 = (
    "7ba01010c89f288d473f2961b7942b7f8d3fdc0c5a1d1730331025c19a0f3d7a",
    "dd35e47a00194730ddd8c6406c2d6b150e0aee86ad967d3c845ac7eb662c4719",
    "3710caaa764482bf59765aa1380b34b8855ed1f0c81fa4ee547cb2ad806187e0",
    "e7a4179635d6cbbc1477dfcd4f03e612e26faff1d3fcbd4ec6a307918ddfd050",
    "d4e7da0e6b612356a26d42635a69af87698a5f0a36f5c24350de5fb997426afd",
    "a0dc979e03e0d07222c32ced2aa3099d68a66314c9db1d78bf926c449d0f35b9",
    "e011f542ef010a1052557ebb8563ded8d0a88509fc9c06454c0ac0bc1b21f52f",
    "a34e6961afd64313857129230a128932b4ddeb77228dc2d5f3cca68ce6c718de",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_sweep_of_10_replicates(tmp_path):
    cfg = scenario_from_dict(json.loads(DEFAULT_CONFIG.read_text()))
    csv_path, summary_path = write_sweep_outputs(sweep(cfg, 10), tmp_path)
    assert _sha256(csv_path) == SWEEP_CSV_SHA256
    assert _sha256(summary_path) == SWEEP_SUMMARY_SHA256


def test_default_run_with_seed_42(tmp_path, capsys):
    code = main(["run", "--config", str(DEFAULT_CONFIG), "--seed", "42", "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    assert _sha256(tmp_path / "result.json") == RUN_SEED_42_SHA256
    data_dir = tmp_path / "datasets"
    assert sorted(p.name for p in data_dir.iterdir()) == sorted(RUN_SEED_42_DATASETS_SHA256)
    for name, digest in RUN_SEED_42_DATASETS_SHA256.items():
        assert _sha256(data_dir / name) == digest, name


def test_wide_mining_run(tmp_path, capsys):
    # 48 of 64 variables measured: 1128 patterns per mined dataset.
    data = json.loads(DEFAULT_CONFIG.read_text())
    data["m"] = 64
    data["experiment"].update(target_width=48, samples=5000)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "7", "--out", str(out), "--quiet"]) == EXIT_OK
    assert _sha256(out / "result.json") == WIDE_RUN_SEED_7_SHA256


@pytest.mark.parametrize(("argv", "digest"), [
    (["validate", "--trials", "20", "--seed", "1"], VALIDATE_STDOUT_SHA256),
    (
        ["oracle", "--p-stay", "0.9", "--dist", "2", "--delta", "0.1", "--samples", "2000", "--seed", "1"],
        ORACLE_STDOUT_SHA256,
    ),
])
def test_json_report_on_stdout(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_per_cell_files_of_a_one_replicate_sweep(tmp_path, capsys):
    argv = ["sweep", "--config", str(DEFAULT_CONFIG), "--replicates", "1", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == EXIT_OK
    for mask, digest in enumerate(SWEEP_REP0_SHA256):
        assert _sha256(tmp_path / "default" / f"combo{mask}" / "rep0.json") == digest, mask
