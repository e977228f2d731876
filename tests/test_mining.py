"""Tests for pattern extraction, provenance corrections, and dispute tagging."""

import numpy as np
import pytest

from ktsim.experimenting import Dataset, Datasheet, ExperimentDesign, Selection, sample_dataset
from ktsim.knowledge import GroundTruth, split_keys
from ktsim.mining import (
    TAG_DEGENERATE,
    TAG_DISPUTED,
    TAG_NOISE_CORRECTED,
    TAG_SELECTION_CONDITIONED,
    MiningParams,
    correct_attenuation,
    mine,
    phi_coefficient,
)

from claimref import EMPTY, _kb, dependent, independent


PARAMS = MiningParams()


def make_dataset(cols, rows):
    return Dataset(cols, np.array(rows, dtype=np.uint8))


def pairs(keys):
    us, vs = split_keys(keys)
    return list(zip(us.tolist(), vs.tolist()))


def sheet(noise_rate=0.0, selection=None, measured=(0, 1)):
    return Datasheet(
        team_id=0,
        measured=tuple(measured),
        selection=selection,
        noise_rate=noise_rate,
        samples=4,
        seed_fingerprint="test",
    )


# ---------------------------------------------------------------------------
# phi coefficient
# ---------------------------------------------------------------------------

def test_identical_columns_give_phi_one():
    ds = make_dataset((0, 1), [[0, 0], [1, 1], [0, 0], [1, 1]])
    assert phi_coefficient(ds, 0, 1) == 1.0


def test_complementary_columns_give_phi_minus_one():
    ds = make_dataset((0, 1), [[0, 1], [1, 0], [0, 1], [1, 0]])
    assert phi_coefficient(ds, 0, 1) == -1.0


def test_exact_independence_table_gives_zero():
    ds = make_dataset((0, 1), [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert phi_coefficient(ds, 0, 1) == 0.0


def test_constant_column_is_degenerate():
    ds = make_dataset((0, 1), [[1, 0], [1, 1], [1, 0]])
    assert phi_coefficient(ds, 0, 1) is None


def test_phi_is_symmetric_in_the_pair():
    rng = np.random.default_rng(0)
    ds = make_dataset((0, 1), rng.integers(0, 2, size=(50, 2)))
    assert phi_coefficient(ds, 0, 1) == phi_coefficient(ds, 1, 0)


def test_phi_equals_pearson_correlation_on_binary_columns():
    # Independent route: for 0/1 data the contingency formula must agree
    # with the plain Pearson correlation coefficient.
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.integers(0, 2, size=400)
        y = (x ^ (rng.random(400) < rng.uniform(0.05, 0.95))).astype(np.uint8)
        if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
            continue
        ds = make_dataset((0, 1), np.column_stack([x, y]))
        pearson = float(np.corrcoef(x.astype(float), y.astype(float))[0, 1])
        assert phi_coefficient(ds, 0, 1) == pytest.approx(pearson, abs=1e-12)


# ---------------------------------------------------------------------------
# Attenuation correction
# ---------------------------------------------------------------------------

def test_correction_inverts_the_attenuation_law():
    assert correct_attenuation(0.512, 0.1) == pytest.approx(0.8, abs=1e-12)


def test_correction_clamps_to_unit_interval():
    assert correct_attenuation(0.9, 0.2) == 1.0
    assert correct_attenuation(-0.9, 0.2) == -1.0


def test_correction_of_an_array_applies_the_law_to_each_coefficient():
    phi = np.array([0.512, 0.9, -0.9, 0.0, -0.3, 0.36])
    assert correct_attenuation(phi, 0.2).tolist() == [max(-1.0, min(1.0, x / 0.36)) for x in phi.tolist()]


# ---------------------------------------------------------------------------
# mine()
# ---------------------------------------------------------------------------

def test_mine_yields_one_pattern_per_pair():
    rng = np.random.default_rng(1)
    ds = make_dataset((0, 1, 2, 3), rng.integers(0, 2, size=(100, 4)))
    info = mine(ds, EMPTY, None, [], PARAMS)
    assert len(info.patterns) == 6
    assert pairs(info.patterns.keys) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert info.patterns.support == 100


def test_pairs_follow_the_column_order_and_are_canonical():
    rng = np.random.default_rng(1)
    ds = make_dataset((7, 2, 5), rng.integers(0, 2, size=(100, 3)))
    info = mine(ds, EMPTY, None, [], PARAMS)
    assert pairs(info.patterns.keys) == [(2, 7), (5, 7), (2, 5)]
    assert info.patterns.phi.tolist() == [phi_coefficient(ds, u, v) for u, v in [(7, 2), (7, 5), (2, 5)]]


def test_mine_without_datasheet_reports_raw_phi():
    rng = np.random.default_rng(2)
    ds = make_dataset((0, 1), rng.integers(0, 2, size=(200, 2)))
    info = mine(ds, EMPTY, None, [], PARAMS)
    assert info.patterns.phi.tolist() == [phi_coefficient(ds, 0, 1)]
    assert info.patterns.tags.tolist() == [0]
    assert info.info_sheet.upstream_datasheet is None
    assert info.info_sheet.corrections_applied == frozenset()


def test_mine_with_noisy_datasheet_corrects_and_tags():
    gt = GroundTruth(2, (None, 0), 0.9)
    design = ExperimentDesign((0, 1), None, 0.1, 100_000)
    ds, delivered = sample_dataset(gt, design, np.random.default_rng(3))
    raw = phi_coefficient(ds, 0, 1)
    info = mine(ds, EMPTY, delivered, [], PARAMS)
    (phi,) = info.patterns.phi
    assert phi == pytest.approx(raw / 0.64, abs=1e-12)
    assert phi == pytest.approx(0.8, abs=0.015)
    assert info.patterns.has(TAG_NOISE_CORRECTED).tolist() == [True]
    assert info.info_sheet.corrections_applied == frozenset({TAG_NOISE_CORRECTED})
    assert info.info_sheet.upstream_datasheet == delivered


def test_zero_noise_datasheet_changes_only_the_provenance():
    rng = np.random.default_rng(4)
    ds = make_dataset((0, 1, 2), rng.integers(0, 2, size=(300, 3)))
    plain = mine(ds, EMPTY, None, [], PARAMS)
    with_sheet = mine(ds, EMPTY, sheet(noise_rate=0.0, measured=(0, 1, 2)), [], PARAMS)
    assert with_sheet.patterns == plain.patterns
    assert with_sheet.info_sheet.corrections_applied == frozenset()
    assert with_sheet.info_sheet.upstream_datasheet is not None


def test_selection_tags_every_pattern_not_involving_the_variable():
    rng = np.random.default_rng(5)
    ds = make_dataset((0, 1, 2), rng.integers(0, 2, size=(300, 3)))
    delivered = sheet(selection=Selection(1, 1), measured=(0, 1, 2))
    info = mine(ds, EMPTY, delivered, [], PARAMS)
    tagged = info.patterns.keys[info.patterns.has(TAG_SELECTION_CONDITIONED)]
    assert pairs(tagged) == [(0, 2)]


def test_degenerate_columns_never_abort_mining():
    ds = make_dataset((0, 1, 2), [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]])
    info = mine(ds, EMPTY, sheet(noise_rate=0.2, measured=(0, 1, 2)), [], PARAMS)
    assert pairs(info.patterns.keys) == [(0, 1), (0, 2), (1, 2)]
    assert info.patterns.has(TAG_DEGENERATE).tolist() == [True, True, False]
    assert info.patterns.phi[0] == 0.0
    # degenerate patterns are not noise corrected, live ones are
    assert info.patterns.has(TAG_NOISE_CORRECTED).tolist() == [False, False, True]


def test_corrected_phi_is_clamped():
    ds = make_dataset((0, 1), [[0, 0], [1, 1], [0, 0], [1, 1], [0, 1]])
    info = mine(ds, EMPTY, sheet(noise_rate=0.2), [], PARAMS)
    (phi,) = info.patterns.phi
    assert abs(phi) <= 1.0


def test_contradicted_patterns_are_tagged_disputed():
    ds = make_dataset((0, 1), [[0, 0], [1, 1], [0, 0], [1, 1]])  # phi = 1
    miner_kb = _kb((independent(0, 1), 0.95))
    info = mine(ds, miner_kb, None, [], PARAMS)
    assert info.patterns.has(TAG_DISPUTED)[0]
    # below the veto confidence nothing is disputed
    weak = _kb((independent(0, 1), 0.5))
    info2 = mine(ds, weak, None, [], PARAMS)
    assert not info2.patterns.has(TAG_DISPUTED)[0]
    # agreement is not a dispute
    agreeing = _kb((dependent(0, 1), 0.99))
    info3 = mine(ds, agreeing, None, [], PARAMS)
    assert not info3.patterns.has(TAG_DISPUTED)[0]


def test_peer_knowledge_can_also_dispute():
    ds = make_dataset((0, 1), [[0, 0], [1, 1], [0, 0], [1, 1]])
    peer = _kb((independent(0, 1), 0.92))
    info = mine(ds, EMPTY, None, [peer], PARAMS)
    assert info.patterns.has(TAG_DISPUTED)[0]


def test_mining_is_deterministic():
    rng = np.random.default_rng(6)
    ds = make_dataset((0, 1, 2), rng.integers(0, 2, size=(500, 3)))
    kb = _kb((dependent(0, 1), 0.91))
    a = mine(ds, kb, sheet(noise_rate=0.1, measured=(0, 1, 2)), [], PARAMS)
    b = mine(ds, kb, sheet(noise_rate=0.1, measured=(0, 1, 2)), [], PARAMS)
    assert a == b


def test_channel1_correction_beats_raw_estimates_on_noisy_chains():
    # delta = 0.2 attenuates the edge correlation 0.9 down to 0.324; ask how
    # often the corrected estimate lands closer to 0.9 than the raw one.
    gt = GroundTruth(2, (None, 0), 0.95)
    design = ExperimentDesign((0, 1), None, 0.2, 20_000)
    closer = 0
    for seed in range(100):
        ds, delivered = sample_dataset(gt, design, np.random.default_rng(1000 + seed))
        raw = phi_coefficient(ds, 0, 1)
        corrected = mine(ds, EMPTY, delivered, [], PARAMS).patterns.phi[0]
        if abs(corrected - 0.9) < abs(raw - 0.9):
            closer += 1
    assert closer >= 95
