"""Scoring and validation: openness against ground truth, growth checks, oracles.

The openness score of a set of labelings is the number of distinct labeled
claims that are true minus the number that are false, computed over the union
of all producing triples' outputs. Opposite-polarity claims on the same pair
emitted by different triples both enter the union and each counts on its own
side. Only this module consults the exact membership oracle; agent-side code
never can.

The monotonicity validator stress-tests the labeling stage's two growth
properties on randomized pipeline states, and the correlation oracle provides
an implementation-independent Monte Carlo check of the chain correlation and
noise attenuation laws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError
from .experimenting import design_experiment, sample_dataset
from .knowledge import (
    GroundTruth,
    KnowledgeBase,
    all_pair_keys,
    build_ground_truth,
    rectify,
    sample_agent_prior,
    split_keys,
)
from .labeling import EffectivePrior, LabeledKnowledge, build_effective_prior, label, reinterpret
from .mining import mine
from .records import Record


@dataclass(frozen=True)
class Score(Record):
    """The openness of a set of distinct claims: how many there are, how many
    of them are true and false, true minus false, and that per claim."""

    union_size: int
    true_count: int
    false_count: int
    openness: int
    normalized: float


@dataclass(frozen=True)
class TripleReport(Score):
    teams: tuple[int, int, int]


@dataclass(frozen=True)
class OpennessReport(Score):
    per_triple: tuple[TripleReport, ...]


def _claim_codes(lk: LabeledKnowledge) -> np.ndarray:
    """Claims of one labeling (distinct: one per pair) as ``key << 1 | dep``."""
    return lk.keys << 1 | lk.dep


def _distinct(codes: np.ndarray) -> np.ndarray:
    # Sort and drop repeats: a plain np.unique call imports numpy.ma, which
    # adds about 2 MB to every process that scores a run.
    codes = np.sort(codes)
    keep = np.ones(codes.shape, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _counts(codes: np.ndarray, gt: GroundTruth) -> dict:
    """The ``Score`` fields of distinct claim codes, by name."""
    true_count = int(np.count_nonzero(gt.same_tree_keys(codes >> 1) == (codes & 1).astype(bool)))
    false_count = len(codes) - true_count
    return {
        "union_size": len(codes),
        "true_count": true_count,
        "false_count": false_count,
        "openness": true_count - false_count,
        "normalized": (true_count - false_count) / len(codes) if len(codes) else 0.0,
    }


def openness(labelings: Sequence[LabeledKnowledge], gt: GroundTruth) -> OpennessReport:
    """True-minus-false count over the deduplicated union of all labelings."""
    per_labeling = [_claim_codes(lk) for lk in labelings]
    per_triple = tuple(
        TripleReport(teams=lk.teams, **_counts(codes, gt)) for lk, codes in zip(labelings, per_labeling)
    )
    union = _distinct(np.concatenate([np.zeros(0, dtype=np.int64), *per_labeling]))
    return OpennessReport(**_counts(union, gt), per_triple=per_triple)


# ---------------------------------------------------------------------------
# Paired sign test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTestResult(Record):
    wins: int
    losses: int
    ties: int
    p_greater: float


def paired_sign_test(first: Sequence[float], second: Sequence[float]) -> SignTestResult:
    """One-sided sign test that ``first`` tends to exceed ``second``.

    Ties are dropped; the p-value is the exact binomial tail probability of
    at least the observed number of wins under a fair coin.
    """
    if len(first) != len(second):
        raise ConfigError("paired sign test needs sequences of equal length")
    wins = sum(1 for a, b in zip(first, second) if a > b)
    losses = sum(1 for a, b in zip(first, second) if a < b)
    n = wins + losses
    if n == 0:
        p = 1.0
    else:
        # Exact int division, rounded once: 2.0 ** n overflows from n = 1024.
        p = sum(math.comb(n, k) for k in range(wins, n + 1)) / (1 << n)
    return SignTestResult(wins, losses, len(first) - n, p)


# ---------------------------------------------------------------------------
# Monotonicity validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport(Record):
    trials: int
    violations: int
    transcripts: tuple[str, ...]


def _count_side(lk: LabeledKnowledge, gt: GroundTruth, true_side: bool) -> int:
    return _counts(_claim_codes(lk), gt)["true_count" if true_side else "false_count"]


def negate_passthrough(lk: LabeledKnowledge) -> LabeledKnowledge:
    """The validator's negative control: ``lk`` with each prior pass-through
    claim negated. Pass-through already overwrote the pattern label on those
    pairs, so this is the output of a labeler whose pass-through emits the
    negation of every trusted prior claim."""
    return LabeledKnowledge.from_arrays(lk.keys, lk.dep ^ lk.from_prior, lk.from_prior, lk.teams)


def validate_monotonicity(
    trials: int,
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    *,
    break_passthrough: bool = False,
) -> MonotonicityReport:
    """Randomized check of the labeling stage's growth guarantees.

    Each trial builds a fresh pipeline state: ground truth; the labeler,
    miner, experimenter and zero to two peer bases, each rectified from the
    priors of as many agents as the scenario's team of that role has; and a
    mined information product under random channels, which decide whether
    the miner and experimenter layers join the effective prior. It then draws
    a claim on a pair the effective prior does not cover with confidence at
    or above both the veto and trust thresholds, and labels before and after
    adding it. A violation is a drop in the count of labeled claims on the
    added claim's own side of the truth (true side for a true claim, false
    side for a false one). With ``break_passthrough`` every labeling goes
    through ``negate_passthrough`` first, a negative control the check must
    catch; it reports rather than hides what it finds.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    params = scenario.labeling
    floor = max(params.veto_confidence, params.trust_confidence)
    agents, teams = scenario.agents, scenario.teams

    def team_base(gt: GroundTruth, size: int, trial_rng: np.random.Generator) -> KnowledgeBase:
        return rectify([sample_agent_prior(gt, agents.coverage, agents.accuracy, trial_rng) for _ in range(size)])

    violations = 0
    transcripts = []
    for trial in range(trials):
        trial_rng = np.random.default_rng(rng.integers(0, 2**63, dtype=np.uint64))
        gt = build_ground_truth(scenario.m, scenario.tree_count, scenario.p_stay, trial_rng)
        exp_kb = team_base(gt, teams.experimenting.size, trial_rng)
        miner_kb = team_base(gt, teams.mining.size, trial_rng)
        own_kb = team_base(gt, teams.labeling.size, trial_rng)
        design = design_experiment(
            exp_kb,
            scenario.m,
            scenario.experiment.target_width,
            scenario.experiment.selection_prob,
            scenario.experiment.noise_rate,
            scenario.experiment.samples,
            trial_rng,
        )
        dataset, datasheet = sample_dataset(gt, design, trial_rng)
        ch1, ch2, ch3 = (bool(trial_rng.integers(2)) for _ in range(3))
        peers = [team_base(gt, teams.mining.size, trial_rng) for _ in range(int(trial_rng.integers(3)))]
        info = mine(dataset, miner_kb, datasheet if ch1 else None, [], scenario.mining)
        prior = build_effective_prior(own_kb, miner_kb if ch2 else None, exp_kb if ch3 else None, peers)
        exp_sheet = datasheet if ch3 else None

        # Pattern pairs in mined order and free pairs in key order, each
        # without the pairs the effective prior already holds.
        pattern_keys = info.patterns.keys[~prior.claims.held(info.patterns.keys)]
        all_keys = all_pair_keys(gt.m)
        free_keys = all_keys[~prior.claims.held(all_keys)]
        if not free_keys.size:
            continue
        candidates = pattern_keys if pattern_keys.size and trial_rng.random() < 0.5 else free_keys
        row = int(trial_rng.integers(candidates.size))
        key = candidates[row : row + 1]
        negated = trial_rng.random() < 0.5
        dep = bool(gt.same_tree_keys(key)[0]) ^ negated
        confidence = float(trial_rng.uniform(floor, 1.0)) if floor < 1.0 else 1.0
        u, v = (int(ids[0]) for ids in split_keys(key))

        before = label(reinterpret(info, prior, exp_sheet, params), prior, params)
        grown = EffectivePrior(prior.claims.extended(u, v, dep, confidence))
        after = label(reinterpret(info, grown, exp_sheet, params), grown, params)
        if break_passthrough:
            before, after = negate_passthrough(before), negate_passthrough(after)

        n_before = _count_side(before, gt, not negated)
        n_after = _count_side(after, gt, not negated)
        if n_after < n_before:
            violations += 1
            if len(transcripts) < 20:
                side = "in_kc" if negated else "in_k"
                transcripts.append(
                    f"trial {trial}: added {'dep' if dep else 'indep'}({u},{v}) (confidence {confidence:.3f}, "
                    f"{side}) and the {side} count fell {n_before} -> {n_after}"
                )
    return MonotonicityReport(trials, violations, tuple(transcripts))


# ---------------------------------------------------------------------------
# Chain correlation oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport(Record):
    p_stay: float
    dist: int
    delta: float
    samples: int
    analytic: float
    empirical: float
    abs_diff: float


#: Work limits of the oracle's walk, which takes ``dist`` steps over all
#: ``samples`` at once. A step measured about 5 us plus 5 ns per sample on
#: one x86 core, so each limit stands for at most a few seconds of walking.
ORACLE_MAX_DIST = 10**6
ORACLE_MAX_STEPS = 10**9


def correlation_oracle(
    p_stay: float,
    dist: int,
    delta: float,
    samples: int,
    rng: np.random.Generator,
) -> OracleReport:
    """Monte Carlo check of phi = (2p - 1)^d * (1 - 2*delta)^2 on a chain.

    Deliberately bypasses the production sampler and the contingency-table
    formula: the chain is walked directly and the coefficient comes from the
    Pearson correlation of the two endpoint columns.
    """
    if not (0.5 < p_stay < 1.0):
        raise ConfigError(f"p_stay must lie in (0.5, 1), got {p_stay}")
    if dist < 1:
        raise ConfigError(f"dist must be >= 1, got {dist}")
    if not (0.0 <= delta < 0.5):
        raise ConfigError(f"delta must lie in [0, 0.5), got {delta}")
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    # numpy cannot even describe an array of more than sys.maxsize elements.
    if samples > sys.maxsize:
        raise ConfigError(f"samples must be <= {sys.maxsize}, got {samples}")
    if dist > ORACLE_MAX_DIST:
        raise ConfigError(f"dist must be <= {ORACLE_MAX_DIST}, got {dist}")
    if dist * samples > ORACLE_MAX_STEPS:
        raise ConfigError(f"dist * samples must be <= {ORACLE_MAX_STEPS}, got {dist} * {samples} = {dist * samples}")
    start = rng.integers(0, 2, size=samples, dtype=np.uint8)
    end = start.copy()
    for _ in range(dist):
        end = end ^ (rng.random(samples) < (1.0 - p_stay)).astype(np.uint8)
    if delta > 0.0:
        start = start ^ (rng.random(samples) < delta).astype(np.uint8)
        end = end ^ (rng.random(samples) < delta).astype(np.uint8)
    if start.min() == start.max() or end.min() == end.max():
        raise ConfigError(
            f"an endpoint read one value in all {samples} samples, so the empirical "
            "correlation is undefined; draw more samples"
        )
    empirical = float(np.corrcoef(start.astype(float), end.astype(float))[0, 1])
    analytic = (2.0 * p_stay - 1.0) ** dist * (1.0 - 2.0 * delta) ** 2
    return OracleReport(p_stay, dist, delta, samples, analytic, empirical, abs(empirical - analytic))
