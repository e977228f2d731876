"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; every tolerance is pinned here, nothing is calibrated later.
"""

import json
import time

import numpy as np

from ktsim.cli import EXIT_OK, main
from ktsim.config import ChannelPolicy, default_scenario
from ktsim.experimenting import ExperimentDesign, Selection, sample_dataset
from ktsim.knowledge import GroundTruth
from ktsim.labeling import EffectivePrior, LabelingParams, label, reinterpret
from ktsim.metrics import openness, validate_monotonicity
from ktsim.mining import MiningParams, mine, phi_coefficient
from ktsim.orchestrator import run, sweep

from claimref import _kb, claims_of, dependent, independent, labeling

EMPTY = _kb()


def _report(num, description, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def chain_gt(length, p_stay):
    return GroundTruth(length, (None,) + tuple(range(length - 1)), p_stay)


def test_criterion_1_analytic_correlation_oracle():
    started = time.monotonic()
    worst = 0.0
    seed = 100
    for p_stay in (0.8, 0.9):
        for dist in (1, 2, 3):
            for delta in (0.0, 0.1):
                seed += 1
                gt = chain_gt(dist + 1, p_stay)
                design = ExperimentDesign(tuple(range(dist + 1)), None, delta, 100_000)
                ds, _ = sample_dataset(gt, design, np.random.default_rng(seed))
                empirical = phi_coefficient(ds, 0, dist)
                analytic = (2 * p_stay - 1) ** dist * (1 - 2 * delta) ** 2
                worst = max(worst, abs(empirical - analytic))
    elapsed = time.monotonic() - started
    _report(
        1,
        "sampled phi tracks (2p-1)^d (1-2*delta)^2 across 12 settings at n=100000",
        worst <= 0.015 and elapsed < 30.0,
        f"worst abs diff {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_correction_round_trip():
    gt = chain_gt(2, 0.9)
    design = ExperimentDesign((0, 1), None, 0.1, 100_000)
    ds, datasheet = sample_dataset(gt, design, np.random.default_rng(11))
    via_miner = mine(ds, EMPTY, datasheet, [], MiningParams()).patterns
    corrected = via_miner.phi[0]
    recovers = abs(corrected - 0.8) <= 0.015

    uncorrected_info = mine(ds, EMPTY, None, [], MiningParams())
    via_labeler = reinterpret(uncorrected_info, EffectivePrior(EMPTY), datasheet, LabelingParams()).patterns
    max_gap = float(np.max(np.abs(via_miner.phi - via_labeler.phi)))
    _report(
        2,
        "channel-1 correction recovers clean phi; channel-3 path equals it",
        recovers and max_gap <= 1e-12,
        f"corrected {corrected:.4f} vs 0.8, path gap {max_gap:.2e}",
    )


def test_criterion_3_selection_masking_and_abstention():
    gt = chain_gt(3, 0.9)
    design = ExperimentDesign((0, 1, 2), Selection(1, 1), 0.0, 100_000)
    ds, datasheet = sample_dataset(gt, design, np.random.default_rng(12))
    masked_phi = phi_coefficient(ds, 0, 2)
    params = LabelingParams()

    informed = mine(ds, EMPTY, datasheet, [], MiningParams())
    informed_labels = label(
        reinterpret(informed, EffectivePrior(EMPTY), datasheet, params),
        EffectivePrior(EMPTY),
        params,
    )
    blind = mine(ds, EMPTY, None, [], MiningParams())
    blind_labels = label(
        reinterpret(blind, EffectivePrior(EMPTY), None, params),
        EffectivePrior(EMPTY),
        params,
    )
    abstains = all((c.u, c.v) != (0, 2) for c in claims_of(informed_labels))
    emitted = [c for c in claims_of(blind_labels) if (c.u, c.v) == (0, 2)]
    emits_false_independent = (
        len(emitted) == 1
        and emitted[0] == independent(0, 2)
        and gt.tree_ids[0] == gt.tree_ids[2]
    )
    _report(
        3,
        "masked pair reads independent; provenance-aware labeler abstains, blind one is fooled",
        abs(masked_phi) < 0.03 and abstains and emits_false_independent,
        f"|phi|={abs(masked_phi):.4f}",
    )


def test_criterion_4_monotonicity_validator_and_negative_control():
    started = time.monotonic()
    cfg = default_scenario()
    healthy = validate_monotonicity(1000, cfg, np.random.default_rng(13))
    broken = validate_monotonicity(1000, cfg, np.random.default_rng(13), break_passthrough=True)
    elapsed = time.monotonic() - started
    _report(
        4,
        "0 violations in 1000 trials; corrupted pass-through control caught",
        healthy.violations == 0 and broken.violations > 0 and elapsed < 60.0,
        f"healthy {healthy.violations}, broken {broken.violations}, {elapsed:.1f}s",
    )


def test_criterion_5_openness_grows_with_open_channels():
    started = time.monotonic()
    cfg = default_scenario()
    result = sweep(cfg, 50)
    by_mask = {c.combo_mask: c.mean_openness for c in result.per_combo}
    sign = result.sign_test_all_vs_none
    elapsed = time.monotonic() - started
    _report(
        5,
        "mean openness: all channels beat none (sign test p<0.05) and ch1 alone never hurts",
        len(result.rows) == 400
        and by_mask[7] > by_mask[0]
        and sign.p_greater < 0.05
        and by_mask[1] >= by_mask[0]
        and elapsed < 300.0,
        f"none {by_mask[0]:.1f}, ch1 {by_mask[1]:.1f}, all {by_mask[7]:.1f}, "
        f"p {sign.p_greater:.1e}, {elapsed:.0f}s",
    )


def test_criterion_6_metric_arithmetic():
    gt = GroundTruth(5, (None, 0, 1, None, 3), 0.9)
    claims = [dependent(0, 1), dependent(0, 2), independent(0, 3), independent(1, 2)]
    report = openness([labeling(claims)], gt)
    empty = openness([], gt)
    _report(
        6,
        "hand-built unions reproduce the score arithmetic exactly",
        report.openness == 2
        and report.normalized == 0.5
        and (report.true_count, report.false_count) == (3, 1)
        and empty.openness == 0
        and empty.normalized == 0.0,
        f"openness {report.openness}, normalized {report.normalized}",
    )


def test_criterion_7_determinism(tmp_path, capsys):
    cfg = default_scenario()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg.to_json()))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out1), "--quiet"])
    code2 = main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out2), "--quiet"])
    capsys.readouterr()
    identical = (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()

    from ktsim.orchestrator import replicate_seed

    seed = replicate_seed(cfg.master_seed, 0)
    hash_sets = []
    for mask in range(8):
        res = run(cfg.with_channels(ChannelPolicy.from_mask(mask)), seed)
        hash_sets.append(tuple(d.sha256 for d in res.datasets))
    hashes_equal = all(h == hash_sets[0] for h in hash_sets[1:])
    with capsys.disabled():
        _report(
            7,
            "seeded runs are byte-identical and dataset hashes match across all 8 combos",
            code1 == EXIT_OK and code2 == EXIT_OK and identical and hashes_equal,
        )
