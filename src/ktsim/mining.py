"""Mining stage: exhaustive pairwise association patterns with provenance care.

Every unordered pair of measured variables yields one pattern carrying the
phi coefficient of its 2x2 contingency table. When the upstream datasheet was
delivered, two corrections become possible: dividing phi by (1 - 2*delta)^2
undoes symmetric bit-flip noise, and a recorded selection condition marks all
patterns not involving the selected variable as conditioned (their apparent
independence may be an artifact of the selection). Prior knowledge never
alters a statistic; it only tags patterns as disputed so the conflict stays
auditable downstream.

An information's patterns form one ``PatternTable`` (see
``knowledge.PairColumns``), and every step works on whole columns.
``implied_polarity`` states the polarity a pattern implies once, for the
dispute and veto checks and for the labeler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .experimenting import Dataset, Datasheet
from .knowledge import KnowledgeBase, PairColumns, check_confidence, join_keys, split_keys
from .records import Record

TAG_NOISE_CORRECTED = "noise_corrected"
TAG_SELECTION_CONDITIONED = "selection_conditioned"
TAG_DEGENERATE = "degenerate"
TAG_DISPUTED = "disputed"

#: Rows per block of the Gram matrix in ``mine``; bounds the float copy of
#: the dataset and keeps every block's counts exact in float64.
_GRAM_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class MiningParams(Record):
    """The polarity thresholds and the veto confidence; ``LabelingParams``
    extends them."""

    veto_confidence: float = 0.9
    dep_threshold: float = 0.3
    ind_threshold: float = 0.05

    def __post_init__(self) -> None:
        """The veto confidence lies in (0, 1] and 0 <= ind_threshold < dep_threshold <= 1."""
        check_confidence("veto_confidence", self.veto_confidence)
        if not (0.0 <= self.ind_threshold < self.dep_threshold <= 1.0):
            raise ConfigError(
                "thresholds must satisfy 0 <= ind_threshold < dep_threshold <= 1, "
                f"got ind={self.ind_threshold} dep={self.dep_threshold}"
            )


#: Tag ``TAG_NAMES[i]`` is bit ``1 << i`` of ``PatternTable.tags``, names in sorted order.
TAG_NAMES = (TAG_DEGENERATE, TAG_DISPUTED, TAG_NOISE_CORRECTED, TAG_SELECTION_CONDITIONED)
TAG_BITS = {name: np.uint8(1 << i) for i, name in enumerate(TAG_NAMES)}


class PatternTable(PairColumns):
    """The patterns of one information in mining order: ``keys``, ``phi``
    (float64) and ``tags`` (uint8, one bit per ``TAG_NAMES`` entry), plus
    ``support``, their dataset's rows."""

    COLUMNS = ("keys", "phi", "tags")
    FIELDS = ("support",)
    __slots__ = COLUMNS + FIELDS

    def has(self, tag: str) -> np.ndarray:
        """Mask of the patterns tagged ``tag``."""
        return (self.tags & TAG_BITS[tag]) != 0


@dataclass(frozen=True)
class InfoSheet(Record):
    team_id: int
    params: MiningParams
    corrections_applied: frozenset[str]
    upstream_datasheet: Optional[Datasheet]


@dataclass(frozen=True)
class Information(Record):
    patterns: PatternTable
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


def correct_attenuation(phi, noise_rate: float):
    """Invert symmetric bit-flip attenuation of a phi or an array; clamped to [-1, 1]."""
    if not (0.0 <= noise_rate < 0.5):
        raise ConfigError(f"noise_rate must lie in [0, 0.5), got {noise_rate}")
    factor = (1.0 - 2.0 * noise_rate) ** 2
    return np.clip(phi / factor, -1.0, 1.0)


def datasheet_corrections(
    patterns: PatternTable, datasheet: Optional[Datasheet], applied: frozenset[str] = frozenset()
) -> tuple[PatternTable, frozenset[str]]:
    """The patterns after the corrections a datasheet proves, and the
    corrections ``applied`` to them so far, this call's included. Without a
    datasheet nothing is proven. Noise is corrected when the datasheet
    records a rate above 0 and ``applied`` does not hold it yet: every
    non-degenerate phi is divided by the recorded attenuation and tagged. A
    recorded selection tags every pair without the selected variable as
    conditioned. The miner and the labeler's reinterpretation both call
    this, so both routes give identical patterns.
    """
    if datasheet is None:
        return patterns, applied
    phi, tags = patterns.phi, patterns.tags
    if datasheet.noise_rate > 0.0 and TAG_NOISE_CORRECTED not in applied:
        live = ~patterns.has(TAG_DEGENERATE)
        phi = np.where(live, correct_attenuation(phi, datasheet.noise_rate), phi)
        tags = tags | live * TAG_BITS[TAG_NOISE_CORRECTED]
        applied = applied | {TAG_NOISE_CORRECTED}
    selection = datasheet.selection
    if selection is not None:
        us, vs = split_keys(patterns.keys)
        outside = (us != selection.variable) & (vs != selection.variable)
        tags = tags | outside * TAG_BITS[TAG_SELECTION_CONDITIONED]
    return PatternTable.from_arrays(patterns.keys, phi, tags, patterns.support), applied


def implied_polarity(patterns: PatternTable, params: MiningParams) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the patterns that imply a polarity and of those that imply
    Dependent under ``params``' thresholds (a ``MiningParams``, or a
    ``LabelingParams``, which extends it): a degenerate pattern implies none,
    |phi| >= dep_threshold Dependent, |phi| <= ind_threshold Independent and
    the band between them none."""
    strength = np.abs(patterns.phi)
    dep = strength >= params.dep_threshold
    implied = ~patterns.has(TAG_DEGENERATE) & (dep | (strength <= params.ind_threshold))
    return implied, dep


def contradicted_patterns(patterns: PatternTable, bases: Sequence[KnowledgeBase], params: MiningParams) -> np.ndarray:
    """Mask of the patterns for which some base holds a claim on their pair
    with at least ``params.veto_confidence`` and the polarity opposite to the
    one the pattern implies (a pattern that implies none is never contradicted)."""
    implied, dep = implied_polarity(patterns, params)
    hit = np.zeros(len(patterns), dtype=bool)
    for base in bases:
        hit |= base.contradicted(patterns.keys, dep, params.veto_confidence)
    return hit & implied


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
    delivered datasheet proves (``datasheet_corrections``), and tag the
    patterns that the miner's or a peer's knowledge disputes. Without the
    datasheet the raw statistics pass through untouched.
    """
    counts = _gram(ds.rows)
    first, second = np.triu_indices(len(ds.columns), 1)
    raw = [_phi(ds.n, counts[i][j], counts[i][i], counts[j][j]) for i, j in zip(first.tolist(), second.tolist())]
    cols = np.array(ds.columns, dtype=np.int64)
    patterns = PatternTable.from_arrays(
        join_keys(cols[first], cols[second]),
        np.array([0.0 if r is None else r for r in raw], dtype=np.float64),
        np.array([r is None for r in raw], dtype=bool) * TAG_BITS[TAG_DEGENERATE],
        ds.n,
    )
    patterns, applied = datasheet_corrections(patterns, delivered)
    disputed = contradicted_patterns(patterns, [miner_kb, *peer_kbs], params)
    tags = patterns.tags | disputed * TAG_BITS[TAG_DISPUTED]
    patterns = PatternTable.from_arrays(patterns.keys, patterns.phi, tags, ds.n)
    sheet = InfoSheet(team_id=team_id, params=params, corrections_applied=applied, upstream_datasheet=delivered)
    return Information(patterns, sheet)
