"""Golden outputs: seeded artifacts whose bytes must not change.

The digests were taken from the dict-based knowledge representation that
the pair-keyed arrays replaced. A change that moves any of them must say
why in CHANGES.md; never update a digest to hide a defect.
"""

import hashlib
import json
from pathlib import Path

from ktsim import scenario_from_dict, sweep, write_sweep_outputs
from ktsim.cli import EXIT_OK, main

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

SWEEP_CSV_SHA256 = "608b9654c023da13402bf0b91eb24a64e817ac39f2e0baa8725cb458a9e5ea23"
SWEEP_SUMMARY_SHA256 = "c15903a7420980e79f8e355d278fce832e6311a5ec4a8f1d7922abd8e8b29092"
RUN_SEED_42_SHA256 = "80ebcbf849d02234b053b52260f700131995f035dc658c97786c64f65e5b0861"
WIDE_RUN_SEED_7_SHA256 = "9eb6a0bef7a2727c116b8b0ca7d890994b4e78766106e991d27c0b19883aa8c4"


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
