"""Mining stage: exhaustive pairwise association patterns with provenance care.

Every unordered pair of measured variables yields one pattern carrying the
phi coefficient of its 2x2 contingency table. When the upstream datasheet was
delivered, two corrections become possible: dividing phi by (1 - 2*delta)^2
undoes symmetric bit-flip noise, and a recorded selection condition marks all
patterns not involving the selected variable as conditioned (their apparent
independence may be an artifact of the selection). Prior knowledge never
alters a statistic; it only tags patterns as disputed so the conflict stays
auditable downstream.

``mine`` takes every pair's 2x2 counts from ``Dataset.pair_counts``,
which each dataset builds once for all its miners, and derives every phi
from them in one array pass that rounds as ``_phi`` does, so both agree bit
for bit.

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


def _phis(n: int, both: np.ndarray, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_phi`` of many pairs of an ``n``-row dataset at once, from int64
    arrays of their 11 counts and of both column sums: the phis, 0.0 where a
    margin is zero, and the mask of those degenerate pairs. The numerator
    ``n*a - row1*col1`` equals ``_phi``'s ``ad - bc``, and it and the margin
    product are exact Python ints in object arrays, so each conversion to
    float, the square root and the division round once, as in ``_phi``."""
    a, row1, col1 = (x.astype(object) for x in (both, first, second))
    numerator = (n * a - row1 * col1).astype(np.float64)
    denom = (row1 * (n - row1) * col1 * (n - col1)).astype(np.float64)
    degenerate = denom == 0.0
    phi = np.divide(numerator, np.sqrt(denom), out=np.zeros(len(denom)), where=~degenerate)
    return phi, degenerate


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
    counts = ds.pair_counts()
    first, second = np.triu_indices(len(ds.columns), 1)
    phi, degenerate = _phis(ds.n, counts[first, second], counts[first, first], counts[second, second])
    cols = np.array(ds.columns, dtype=np.int64)
    patterns = PatternTable.from_arrays(
        join_keys(cols[first], cols[second]), phi, degenerate * TAG_BITS[TAG_DEGENERATE], ds.n
    )
    patterns, applied = datasheet_corrections(patterns, delivered)
    disputed = contradicted_patterns(patterns, [miner_kb, *peer_kbs], params)
    tags = patterns.tags | disputed * TAG_BITS[TAG_DISPUTED]
    patterns = PatternTable.from_arrays(patterns.keys, patterns.phi, tags, ds.n)
    sheet = InfoSheet(team_id=team_id, params=params, corrections_applied=applied, upstream_datasheet=delivered)
    return Information(patterns, sheet)
