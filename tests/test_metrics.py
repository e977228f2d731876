"""Tests for the openness score, sign test, validator, and correlation oracle."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsim import knowledge, labeling, metrics
from ktsim.config import default_scenario
from ktsim.errors import ConfigError
from ktsim.knowledge import GroundTruth, dependent, independent, negate
from ktsim.labeling import ORIGIN_PATTERN, LabeledClaim, LabeledKnowledge
from ktsim.metrics import (
    correlation_oracle,
    openness,
    paired_sign_test,
    validate_monotonicity,
)

# 0-1-2 chained, 3-4 chained: pairs within {0,1,2} and (3,4) are dependent.
GT = GroundTruth(5, (None, 0, 1, None, 3), 0.9)


def lk(claims, teams=(0, 0, 0)):
    return LabeledKnowledge(tuple(LabeledClaim(c, ORIGIN_PATTERN) for c in claims), teams)


def true_claims(gt):
    """The true claim on every pair, in pair order, read off the forest's tree ids."""
    return [
        dependent(u, v) if gt.tree_ids[u] == gt.tree_ids[v] else independent(u, v)
        for u, v in combinations(range(gt.m), 2)
    ]


# ---------------------------------------------------------------------------
# Openness arithmetic
# ---------------------------------------------------------------------------

def test_empty_labelings_score_zero():
    report = openness([], GT)
    assert report.union_size == 0
    assert report.openness == 0
    assert report.normalized == 0.0


def test_three_true_one_false_scores_two():
    claims = [dependent(0, 1), dependent(0, 2), independent(0, 3), independent(1, 2)]
    report = openness([lk(claims)], GT)
    assert report.union_size == 4
    assert (report.true_count, report.false_count) == (3, 1)
    assert report.openness == 2
    assert report.normalized == 0.5


def test_union_counts_true_plus_false():
    claims = [dependent(0, 1), independent(3, 4)]
    report = openness([lk(claims)], GT)
    assert report.true_count + report.false_count == report.union_size


def test_duplicate_labelings_change_nothing():
    claims = [dependent(0, 1), independent(0, 3)]
    one = openness([lk(claims)], GT)
    two = openness([lk(claims, (0, 0, 0)), lk(claims, (1, 1, 1))], GT)
    assert (two.union_size, two.openness) == (one.union_size, one.openness)


def test_openness_is_permutation_invariant():
    a = lk([dependent(0, 1)], (0, 0, 0))
    b = lk([independent(0, 3), dependent(1, 2)], (1, 0, 1))
    fwd = openness([a, b], GT)
    rev = openness([b, a], GT)
    assert fwd.openness == rev.openness
    assert fwd.union_size == rev.union_size


def test_opposite_polarities_from_two_triples_both_count():
    a = lk([dependent(0, 1)], (0, 0, 0))   # true
    b = lk([independent(0, 1)], (1, 1, 1))  # false, same pair
    report = openness([a, b], GT)
    assert report.union_size == 2
    assert (report.true_count, report.false_count) == (1, 1)
    assert report.openness == 0


def test_per_triple_breakdown():
    a = lk([dependent(0, 1), independent(0, 1)][0:1], (0, 1, 0))
    b = lk([independent(0, 4)], (1, 1, 1))
    report = openness([a, b], GT)
    assert len(report.per_triple) == 2
    assert report.per_triple[0].teams == (0, 1, 0)
    assert report.per_triple[0].openness == 1
    assert report.per_triple[1].openness == 1


def test_adding_only_true_claims_never_decreases_openness():
    K = true_claims(GT)
    base = [lk([dependent(0, 1), negate(K[3])], (0, 0, 0))]
    before = openness(base, GT).openness
    extra = lk(K[:5], (1, 1, 1))
    after = openness(base + [extra], GT).openness
    assert after >= before


def test_adding_only_false_claims_never_increases_openness():
    K = true_claims(GT)
    base = [lk(K[:4], (0, 0, 0))]
    before = openness(base, GT).openness
    extra = lk([negate(c) for c in K[4:8]], (1, 1, 1))
    after = openness(base + [extra], GT).openness
    assert after <= before


def test_out_of_range_claims_are_rejected():
    with pytest.raises(ConfigError):
        openness([lk([dependent(0, 99)])], GT)


# ---------------------------------------------------------------------------
# Sign test
# ---------------------------------------------------------------------------

def test_sign_test_counts_and_tail_probability():
    result = paired_sign_test([2, 3, 4, 5], [1, 1, 1, 9])
    assert (result.wins, result.losses, result.ties) == (3, 1, 0)
    assert result.p_greater == pytest.approx((4 + 1) / 16)


def test_sign_test_all_ties_gives_p_one():
    result = paired_sign_test([1, 1], [1, 1])
    assert result.ties == 2
    assert result.p_greater == 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=30))
def test_sign_test_p_is_a_probability(diffs):
    first = [d if d > 0 else 0 for d in diffs]
    second = [-d if d < 0 else 0 for d in diffs]
    result = paired_sign_test(first, second)
    assert 0.0 <= result.p_greater <= 1.0


# ---------------------------------------------------------------------------
# Monotonicity validator
# ---------------------------------------------------------------------------

def test_validator_rejects_zero_trials():
    with pytest.raises(ConfigError):
        validate_monotonicity(0, default_scenario(), np.random.default_rng(0))


def test_validator_finds_no_violations_in_the_default_labeler():
    report = validate_monotonicity(150, default_scenario(), np.random.default_rng(1))
    assert report.trials == 150
    assert report.violations == 0
    assert report.transcripts == ()


def test_validator_reports_violations_of_a_broken_labeler():
    report = validate_monotonicity(150, default_scenario(), np.random.default_rng(1), break_passthrough=True)
    assert report.violations > 0
    assert report.transcripts


def test_validator_draws_every_layer_of_the_effective_prior(monkeypatch):
    calls = {"rectify": 0, "priors": []}

    def recording_rectify(member_priors):
        calls["rectify"] += 1
        return knowledge.rectify(member_priors)

    def recording_prior(own, delivered_miner, delivered_exp, peers=()):
        calls["priors"].append((own, delivered_miner, delivered_exp, list(peers)))
        return labeling.build_effective_prior(own, delivered_miner, delivered_exp, peers)

    monkeypatch.setattr(metrics, "rectify", recording_rectify)
    monkeypatch.setattr(metrics, "build_effective_prior", recording_prior)
    report = validate_monotonicity(40, default_scenario(), np.random.default_rng(4))
    assert report.violations == 0
    assert len(calls["priors"]) == 40
    # Three role bases per trial plus each peer base, all rectified.
    assert calls["rectify"] == 3 * 40 + sum(len(peers) for *_, peers in calls["priors"])
    assert any(exp is not None and len(exp) for _, _, exp, _ in calls["priors"])
    assert any(exp is None for _, _, exp, _ in calls["priors"])
    assert any(peers and all(len(kb) for kb in peers) for *_, peers in calls["priors"])
    assert any(not peers for *_, peers in calls["priors"])


def test_validator_is_deterministic_given_a_seed():
    a = validate_monotonicity(40, default_scenario(), np.random.default_rng(9))
    b = validate_monotonicity(40, default_scenario(), np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------------------
# Correlation oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_the_edge_law():
    report = correlation_oracle(0.9, 1, 0.0, 100_000, np.random.default_rng(2))
    assert report.analytic == pytest.approx(0.8)
    assert report.abs_diff < 0.01


def test_oracle_matches_the_path_product_law():
    report = correlation_oracle(0.9, 2, 0.0, 100_000, np.random.default_rng(3))
    assert report.analytic == pytest.approx(0.64)
    assert report.abs_diff < 0.01


def test_oracle_applies_noise_attenuation():
    report = correlation_oracle(0.9, 1, 0.1, 100_000, np.random.default_rng(4))
    assert report.analytic == pytest.approx(0.512)
    assert report.abs_diff < 0.01


def test_oracle_rejects_out_of_range_parameters():
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigError):
        correlation_oracle(0.9, 1, 0.5, 100, rng)
    with pytest.raises(ConfigError):
        correlation_oracle(0.4, 1, 0.0, 100, rng)
    with pytest.raises(ConfigError):
        correlation_oracle(0.9, 0, 0.0, 100, rng)
