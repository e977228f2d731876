"""Golden outputs: seeded artifacts whose bytes must not change.

The sweep digests and the dataset CSV digests were taken from the
dict-based knowledge representation that the pair-keyed arrays replaced; the
stdout digests were taken from the hand-written per-record ``to_json``
methods that the field-driven ``Record`` encoder replaced. The digests of
``result.json`` (default and wide run), of the two ``*.datasheet.json``
sidecars and of the eight ``combo*/rep0.json`` files were re-pinned when
``mining.report_all`` and the always-null ``knowledge_snapshot`` fields of the
info sheet and the datasheet were deleted: each of those files lost only
these keys, and every number in them stayed the same. A change that moves any
digest must say why in CHANGES.md; never update a digest to hide a defect.
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
RUN_SEED_42_SHA256 = "c17a85578f4a9813e1c2a35cd3151bb8c990ca25dc9d6cb7b133c5f71aac31b1"
WIDE_RUN_SEED_7_SHA256 = "e4ce2590d2d41ecaba9feb2b05cb1d5e897b4517dd99d6d4b2ee5ace5493d86d"

#: Dataset exports of ``run --seed 42``: CSV and datasheet sidecar per team.
RUN_SEED_42_DATASETS_SHA256 = {
    "team0.csv": "5769b5d6585de58cb0917215d583418c9cd6f13d20ba2be5f276592a4af8d430",
    "team0.datasheet.json": "4101dd31f849879e6c9d9b0b1477b40359812eb88111c4d558d148af3014e55f",
    "team1.csv": "a30f45d292bc04cad979af6e6e37b7e99298b4c93e3a9846f6213c7a063120be",
    "team1.datasheet.json": "d7de339bb6180534e45396baa95ec0f0df2be8d01c60daa9e038a269e2f9b58b",
}
VALIDATE_STDOUT_SHA256 = "dda64a139d2e12ed83f58772a73eff3fddef1b3c8e0b9ce2c4599dc50a5342d9"
ORACLE_STDOUT_SHA256 = "a0bc874c2255995a79e93b0a0167831790565dd6346c3b709c00056caa082999"
#: ``combo<mask>/rep0.json`` of a one-replicate CLI sweep of the default config.
SWEEP_REP0_SHA256 = (
    "77636b1f648b49950f2557e36df9c46e0d8c7407ba93715ba0b9c950cc2ea908",
    "c0612d8c7b410416f86d919fb474822701af38b1dbf3c79ed194fc59babd86ec",
    "054ee3046c4ace55925d804621cdc889eb605e9925f420c20ada9238fb2ce544",
    "e761ad0ad51425fc2712a6dd2e84e5bee177becea0365e55d9afc507dca68b98",
    "bd3d4d2939137d47569216034c95880699e58119d69ea03fa73715d832faa53e",
    "90d4455d0839a44fde4b1059ab409eff9925cd713ddcdace44176dc3d2b938b1",
    "80b8e113150874593e669de5412edb8e18a6c6d759f8dddfd5096bc35ee54d2a",
    "60d6661428f46ac0175ee8ea01623871e1eb3fdc4cce1ffbe6a20b0245725d6f",
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
