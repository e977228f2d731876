"""Tests for effective priors, reinterpretation, and monotone labeling."""

from itertools import combinations

import numpy as np
import pytest

from ktsim.experimenting import ExperimentDesign, Selection, sample_dataset
from ktsim.knowledge import AgentSpec, GroundTruth, build_ground_truth, sample_agent_prior, split_keys
from ktsim.labeling import (
    ORIGIN_PATTERN,
    ORIGIN_PRIOR,
    EffectivePrior,
    LabelingParams,
    build_effective_prior,
    label,
    reinterpret,
)
from ktsim.metrics import negate_passthrough
from ktsim.mining import (
    TAG_BITS,
    TAG_SELECTION_CONDITIONED,
    Information,
    InfoSheet,
    MiningParams,
    PatternTable,
    mine,
)

from claimref import EMPTY, _kb, claims_of, dependent, independent, negate, pair_keys, truth

PARAMS = LabelingParams()


def _info(patterns, datasheet=None, corrections=()):
    sheet = InfoSheet(
        team_id=0,
        params=MiningParams(),
        corrections_applied=frozenset(corrections),
        upstream_datasheet=datasheet,
    )
    table = PatternTable.from_arrays(
        pair_keys([(u, v) for u, v, _, _ in patterns]),
        np.array([phi for _, _, phi, _ in patterns], dtype=np.float64),
        np.array([sum(int(TAG_BITS[t]) for t in tags) for _, _, _, tags in patterns], dtype=np.uint8),
        1000,
    )
    return Information(table, sheet)


def _pattern(u, v, phi, tags=()):
    return (u, v, phi, tags)


def _pairs(keys):
    us, vs = split_keys(keys)
    return list(zip(us.tolist(), vs.tolist()))


# ---------------------------------------------------------------------------
# Effective prior
# ---------------------------------------------------------------------------

def test_own_knowledge_alone_passes_through_unchanged():
    own = _kb((dependent(0, 1), 0.7))
    assert build_effective_prior(own, None, None).claims == own


def test_own_knowledge_outranks_the_miners():
    own = _kb((dependent(0, 1), 0.6))
    miner = _kb((independent(0, 1), 0.99))
    prior = build_effective_prior(own, miner, None)
    assert dependent(0, 1) in claims_of(prior.claims)


def test_precedence_labeler_miner_experimenter_peers():
    own = _kb((dependent(0, 1), 0.6))
    miner = _kb((independent(0, 1), 0.9), (dependent(2, 3), 0.9))
    exp = _kb((independent(2, 3), 0.9), (dependent(4, 5), 0.9))
    peer0 = _kb((independent(4, 5), 0.9), (dependent(6, 7), 0.9))
    peer1 = _kb((independent(6, 7), 0.9))
    prior = build_effective_prior(own, miner, exp, [peer0, peer1])
    assert dependent(0, 1) in claims_of(prior.claims)  # labeler wins
    assert dependent(2, 3) in claims_of(prior.claims)  # miner beats experimenter
    assert dependent(4, 5) in claims_of(prior.claims)  # experimenter beats peers
    assert dependent(6, 7) in claims_of(prior.claims)  # earlier peer beats later


def test_closed_channels_leave_only_own_and_peers():
    own = _kb((dependent(0, 1), 0.6))
    peer = _kb((independent(4, 5), 0.8))
    prior = build_effective_prior(own, None, None, [peer])
    assert _pairs(prior.claims.keys) == [(0, 1), (4, 5)]


# ---------------------------------------------------------------------------
# Reinterpretation
# ---------------------------------------------------------------------------

def test_confident_prior_removes_a_contradicting_pattern():
    prior = EffectivePrior(_kb((independent(0, 1), 0.9)))
    info = _info([_pattern(0, 1, 0.9)])
    params = LabelingParams(veto_confidence=0.8)
    out = reinterpret(info, prior, None, params)
    assert len(out.patterns) == 0


def test_weak_prior_does_not_remove_patterns():
    prior = EffectivePrior(_kb((independent(0, 1), 0.5)))
    info = _info([_pattern(0, 1, 0.9)])
    out = reinterpret(info, prior, None, LabelingParams(veto_confidence=0.8))
    assert len(out.patterns) == 1


def test_no_datasheet_and_empty_prior_is_identity():
    info = _info([_pattern(0, 1, 0.4), _pattern(0, 2, 0.01)])
    out = reinterpret(info, EffectivePrior(EMPTY), None, PARAMS)
    assert out == info


def test_labeler_correction_equals_the_miner_path_exactly():
    # channel 3 open with channel 1 closed must reproduce the channel 1 phi
    # values to the last bit, because both routes share the same algebra.
    gt = GroundTruth(4, (None, 0, 1, 2), 0.9)
    design = ExperimentDesign((0, 1, 2, 3), None, 0.1, 20_000)
    ds, datasheet = sample_dataset(gt, design, np.random.default_rng(0))
    via_miner = mine(ds, EMPTY, datasheet, [], MiningParams())
    via_labeler = reinterpret(
        mine(ds, EMPTY, None, [], MiningParams()),
        EffectivePrior(EMPTY),
        datasheet,
        PARAMS,
    )
    assert len(via_labeler.patterns) == 6
    assert via_labeler.patterns == via_miner.patterns
    assert via_labeler.info_sheet.corrections_applied == frozenset({"noise_corrected"})


def test_datasheet_reveals_selection_the_miner_missed():
    datasheet_info = sample_dataset(
        GroundTruth(3, (None, 0, 1), 0.9),
        ExperimentDesign((0, 1, 2), Selection(1, 1), 0.0, 1000),
        np.random.default_rng(1),
    )[1]
    info = _info([_pattern(0, 2, 0.01), _pattern(0, 1, 0.4)])
    out = reinterpret(info, EffectivePrior(EMPTY), datasheet_info, PARAMS)
    assert _pairs(out.patterns.keys) == [(0, 2), (0, 1)]
    assert out.patterns.has(TAG_SELECTION_CONDITIONED).tolist() == [True, False]


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------

def test_high_phi_labels_dependent():
    info = _info([_pattern(0, 1, 0.8)])
    out = label(info, EffectivePrior(EMPTY), LabelingParams(dep_threshold=0.3))
    assert claims_of(out) == [dependent(0, 1)]
    assert out.entries == [{"u": 0, "v": 1, "polarity": "dep", "origin": ORIGIN_PATTERN}]


def test_low_phi_labels_independent_unless_selection_conditioned():
    plain = _info([_pattern(0, 1, 0.01)])
    out = label(plain, EffectivePrior(EMPTY), PARAMS)
    assert claims_of(out) == [independent(0, 1)]
    masked = _info([_pattern(0, 1, 0.01, tags={TAG_SELECTION_CONDITIONED})])
    out2 = label(masked, EffectivePrior(EMPTY), PARAMS)
    assert claims_of(out2) == []


def test_selection_tag_does_not_block_dependent_labels():
    info = _info([_pattern(0, 1, 0.7, tags={TAG_SELECTION_CONDITIONED})])
    out = label(info, EffectivePrior(EMPTY), PARAMS)
    assert claims_of(out) == [dependent(0, 1)]


def test_ambiguous_degenerate_and_disputed_patterns_abstain():
    info = _info([
        _pattern(0, 1, 0.15),                      # between the thresholds
        _pattern(0, 2, 0.0, tags={"degenerate"}),
        _pattern(1, 2, 0.9, tags={"disputed"}),
    ])
    out = label(info, EffectivePrior(EMPTY), PARAMS)
    assert claims_of(out) == []


def test_trusted_prior_claims_pass_through():
    prior = EffectivePrior(_kb((dependent(4, 5), 0.95)))
    out = label(_info([]), prior, LabelingParams(trust_confidence=0.9))
    assert out.entries == [{"u": 4, "v": 5, "polarity": "dep", "origin": ORIGIN_PRIOR}]


def test_pass_through_overwrites_pattern_labels():
    prior = EffectivePrior(_kb((independent(0, 1), 0.95)))
    info = _info([_pattern(0, 1, 0.9)])
    out = label(info, prior, PARAMS)
    assert claims_of(out) == [independent(0, 1)]
    assert out.from_prior.tolist() == [True]


def test_untrusted_prior_claims_do_not_pass_through():
    prior = EffectivePrior(_kb((dependent(4, 5), 0.5)))
    out = label(_info([]), prior, LabelingParams(trust_confidence=0.9))
    assert claims_of(out) == []


def test_labeled_knowledge_never_repeats_a_pair():
    prior = EffectivePrior(_kb((dependent(0, 1), 0.95), (independent(2, 3), 0.95)))
    info = _info([_pattern(0, 1, 0.01), _pattern(2, 3, 0.9)])
    out = label(info, prior, PARAMS, teams=(1, 2, 3))
    pairs = [(e["u"], e["v"]) for e in out.entries]
    assert len(pairs) == len(set(pairs))
    assert out.teams == (1, 2, 3)


def test_label_is_deterministic():
    prior = EffectivePrior(_kb((dependent(0, 1), 0.95)))
    info = _info([_pattern(0, 1, 0.5), _pattern(1, 2, 0.02)])
    assert label(info, prior, PARAMS) == label(info, prior, PARAMS)


def test_self_driving_reinterpret_is_identity_on_corrected_information():
    # One team plays every role with all channels open: the information
    # already carries the corrections and dispute tags its own knowledge
    # implies, so re-reading it under the same knowledge changes nothing.
    rng = np.random.default_rng(2)
    gt = build_ground_truth(8, 2, 0.9, rng)
    kb = sample_agent_prior(gt, AgentSpec(coverage=0.5, accuracy=0.8), rng)
    design = ExperimentDesign(tuple(range(8)), Selection(3, 1), 0.1, 5000)
    ds, datasheet = sample_dataset(gt, design, rng)
    info = mine(ds, kb, datasheet, [], MiningParams())
    prior = build_effective_prior(kb, kb, kb)
    out = reinterpret(info, prior, datasheet, PARAMS)
    assert out.patterns == info.patterns


# ---------------------------------------------------------------------------
# Monotonicity of the labeling stage
# ---------------------------------------------------------------------------

def _count_side(lk, gt, true_side):
    return sum(1 for c in claims_of(lk) if (c == truth(gt, c.u, c.v)) == true_side)


@pytest.mark.parametrize("want_true", [True, False])
def test_adding_a_conflict_free_claim_never_shrinks_its_own_side(want_true):
    rng = np.random.default_rng(3 if want_true else 4)
    floor = max(PARAMS.veto_confidence, PARAMS.trust_confidence)
    for _ in range(80):
        gt = build_ground_truth(10, 2, 0.9, rng)
        kb = sample_agent_prior(gt, AgentSpec(coverage=0.3, accuracy=0.8), rng)
        design = ExperimentDesign(
            tuple(range(10)),
            Selection(int(rng.integers(10)), 1) if rng.random() < 0.5 else None,
            0.1 if rng.random() < 0.5 else 0.0,
            2000,
        )
        ds, datasheet = sample_dataset(gt, design, rng)
        delivered = datasheet if rng.random() < 0.5 else None
        info = mine(ds, sample_agent_prior(gt, AgentSpec(coverage=0.2, accuracy=0.8), rng), delivered, [], MiningParams())
        prior = build_effective_prior(kb, None, None)
        covered = set(_pairs(prior.claims.keys))
        free = [p for p in combinations(range(gt.m), 2) if p not in covered]
        if not free:
            continue
        true_claim = truth(gt, *free[int(rng.integers(len(free)))])
        claim = true_claim if want_true else negate(true_claim)
        confidence = float(rng.uniform(floor, 1.0))

        before = label(reinterpret(info, prior, None, PARAMS), prior, PARAMS)
        grown = EffectivePrior(
            prior.claims.extended(claim.u, claim.v, claim.dep, confidence)
        )
        after = label(reinterpret(info, grown, None, PARAMS), grown, PARAMS)
        assert _count_side(after, gt, want_true) >= _count_side(before, gt, want_true)


def test_broken_pass_through_can_shrink_the_true_side():
    # Negative control: the validator's corrupted pass-through must be able to
    # replace a correct pattern label with its negation.
    gt = GroundTruth(2, (None, 0), 0.9)
    info = _info([_pattern(0, 1, 0.8)])
    prior = EffectivePrior(EMPTY)
    before = negate_passthrough(label(reinterpret(info, prior, None, PARAMS), prior, PARAMS))
    grown = EffectivePrior(_kb((dependent(0, 1), 0.95)))
    after = negate_passthrough(label(reinterpret(info, grown, None, PARAMS), grown, PARAMS))
    assert _count_side(before, gt, True) == 1
    assert _count_side(after, gt, True) == 0
