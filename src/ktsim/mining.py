"""Mining stage: exhaustive pairwise association patterns with provenance care.

Every unordered pair of measured variables yields one pattern carrying the
phi coefficient of its 2x2 contingency table. When the upstream datasheet was
delivered, two corrections become possible: dividing phi by (1 - 2*delta)^2
undoes symmetric bit-flip noise, and a recorded selection condition marks all
patterns not involving the selected variable as conditioned (their apparent
independence may be an artifact of the selection). Prior knowledge never
alters a statistic; it only tags patterns as disputed so the conflict stays
auditable downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .experimenting import Dataset, Datasheet
from .knowledge import KnowledgeBase, Polarity, check_confidence, pair_key
from .records import Record

TAG_NOISE_CORRECTED = "noise_corrected"
TAG_SELECTION_CONDITIONED = "selection_conditioned"
TAG_DEGENERATE = "degenerate"
TAG_DISPUTED = "disputed"

DEFAULT_DEP_THRESHOLD = 0.3
DEFAULT_IND_THRESHOLD = 0.05

#: Rows per block of the Gram matrix in ``mine``; bounds the float copy of
#: the dataset and keeps every block's counts exact in float64.
_GRAM_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class MiningParams(Record):
    veto_confidence: float = 0.9
    dep_threshold: float = DEFAULT_DEP_THRESHOLD
    ind_threshold: float = DEFAULT_IND_THRESHOLD

    def __post_init__(self) -> None:
        check_params(self)


def check_params(params) -> None:
    """Range checks shared by MiningParams and LabelingParams: the veto
    confidence lies in (0, 1] and 0 <= ind_threshold < dep_threshold <= 1."""
    check_confidence("veto_confidence", params.veto_confidence)
    if not (0.0 <= params.ind_threshold < params.dep_threshold <= 1.0):
        raise ConfigError(
            "thresholds must satisfy 0 <= ind_threshold < dep_threshold <= 1, "
            f"got ind={params.ind_threshold} dep={params.dep_threshold}"
        )


@dataclass(frozen=True)
class Pattern:
    pair: tuple[int, int]
    phi: float
    support: int
    tags: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", (int(self.pair[0]), int(self.pair[1])))
        object.__setattr__(self, "tags", frozenset(self.tags))
        if abs(self.phi) > 1.0:
            raise ConfigError(f"|phi| must not exceed 1, got {self.phi}")

    def implied_polarity(self, dep_threshold: float, ind_threshold: float) -> Optional[Polarity]:
        """Polarity this pattern suggests, or None in the abstention band."""
        if TAG_DEGENERATE in self.tags:
            return None
        if abs(self.phi) >= dep_threshold:
            return Polarity.DEPENDENT
        if abs(self.phi) <= ind_threshold:
            return Polarity.INDEPENDENT
        return None

    def to_json(self) -> dict:
        return {
            "u": self.pair[0],
            "v": self.pair[1],
            "phi": self.phi,
            "support": self.support,
            "tags": sorted(self.tags),
        }


@dataclass(frozen=True)
class InfoSheet(Record):
    team_id: int
    params: MiningParams
    corrections_applied: frozenset[str]
    upstream_datasheet: Optional[Datasheet]


@dataclass(frozen=True)
class Information(Record):
    patterns: tuple[Pattern, ...]
    info_sheet: InfoSheet


def phi_coefficient(ds: Dataset, u: int, v: int) -> Optional[float]:
    """2x2 association coefficient (ad - bc) / sqrt of the margin product.

    Returns None when any margin is zero (a constant column); callers tag the
    corresponding pattern degenerate instead of aborting.
    """
    x = ds.column(u)
    y = ds.column(v)
    return _phi(x.shape[0], int((x & y).sum()), int(x.sum()), int(y.sum()))


def _phi(n: int, a: int, row1: int, col1: int) -> Optional[float]:
    """phi from the row count, the 11 count and both column sums (exact ints)."""
    b = row1 - a  # 10
    c = col1 - a  # 01
    d = n - row1 - col1 + a  # 00
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return None
    return (a * d - b * c) / math.sqrt(denom)


def correct_attenuation(phi: float, noise_rate: float) -> float:
    """Invert symmetric bit-flip attenuation; result clamped to [-1, 1]."""
    if not (0.0 <= noise_rate < 0.5):
        raise ConfigError(f"noise_rate must lie in [0, 0.5), got {noise_rate}")
    factor = (1.0 - 2.0 * noise_rate) ** 2
    return max(-1.0, min(1.0, phi / factor))


_NO_TAGS = frozenset()
_DEGENERATE_TAGS = frozenset({TAG_DEGENERATE})


def datasheet_corrections(
    pair: tuple[int, int],
    phi: float,
    tags: frozenset[str],
    datasheet: Datasheet,
    correct_noise: bool,
) -> tuple[float, frozenset[str]]:
    """The phi and tags of one pattern after the corrections a datasheet
    proves: with ``correct_noise``, a non-degenerate phi is divided by the
    recorded attenuation and tagged; a recorded selection tags every pair
    without the selected variable as conditioned. Shared by the miner and by
    the labeler's reinterpretation, so both routes give identical patterns.
    """
    if correct_noise and TAG_DEGENERATE not in tags:
        phi = correct_attenuation(phi, datasheet.noise_rate)
        tags = tags | {TAG_NOISE_CORRECTED}
    selection = datasheet.selection
    if selection is not None and selection.variable not in pair:
        tags = tags | {TAG_SELECTION_CONDITIONED}
    return phi, tags


def contradicted_patterns(patterns: Sequence[Pattern], bases: Sequence[KnowledgeBase], params) -> list[bool]:
    """Per pattern, whether any base holds a claim on its pair with at least
    ``params.veto_confidence`` and the polarity opposite to the one the
    pattern implies under ``params``' thresholds (a pattern in the abstention
    band is never contradicted). ``params`` is a MiningParams or a
    LabelingParams.
    """
    keys = np.array([pair_key(*p.pair) for p in patterns], dtype=np.int64)
    strength = np.abs(np.array([p.phi for p in patterns], dtype=np.float64))
    degenerate = np.array([TAG_DEGENERATE in p.tags for p in patterns], dtype=bool)
    dep = strength >= params.dep_threshold
    hit = np.zeros(keys.shape, dtype=bool)
    for base in bases:
        hit |= base.contradicted(keys, dep, params.veto_confidence)
    return (hit & ~degenerate & (dep | (strength <= params.ind_threshold))).tolist()


def _gram(rows: np.ndarray) -> list[list[int]]:
    """Exact ``XᵀX`` of a 0/1 matrix: pairwise 11 counts, column sums on the
    diagonal. Summed over row blocks, so no full float copy is made."""
    gram = np.zeros((rows.shape[1], rows.shape[1]), dtype=np.int64)
    for start in range(0, rows.shape[0], _GRAM_BLOCK_ROWS):
        block = rows[start:start + _GRAM_BLOCK_ROWS].astype(np.float64)
        gram += (block.T @ block).astype(np.int64)
    return gram.tolist()


def mine(
    ds: Dataset,
    miner_kb: KnowledgeBase,
    delivered: Optional[Datasheet],
    peer_kbs: Sequence[KnowledgeBase],
    params: MiningParams,
    *,
    team_id: int = 0,
) -> Information:
    """Extract one pattern per measured pair, correcting only what the
    delivered datasheet proves: noise inversion when delta > 0 was recorded,
    selection tags when a selection condition was recorded. Without the
    datasheet the raw statistics pass through untouched.
    """
    apply_noise = delivered is not None and delivered.noise_rate > 0.0
    patterns = []
    cols = ds.columns
    counts = _gram(ds.rows)
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            (u, x), (v, y) = sorted(((cols[i], i), (cols[j], j)))
            raw = _phi(ds.n, counts[i][j], counts[x][x], counts[y][y])
            phi, tags = (0.0, _DEGENERATE_TAGS) if raw is None else (raw, _NO_TAGS)
            if delivered is not None:
                phi, tags = datasheet_corrections((u, v), phi, tags, delivered, apply_noise)
            patterns.append(Pattern((u, v), phi, ds.n, tags))
    disputed = contradicted_patterns(patterns, [miner_kb, *peer_kbs], params)
    patterns = [
        replace(p, tags=p.tags | {TAG_DISPUTED}) if flag else p
        for p, flag in zip(patterns, disputed)
    ]
    sheet = InfoSheet(
        team_id=team_id,
        params=params,
        corrections_applied=frozenset({TAG_NOISE_CORRECTED} if apply_noise else ()),
        upstream_datasheet=delivered,
    )
    return Information(tuple(patterns), sheet)
