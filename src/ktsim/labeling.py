"""Labeling stage: reinterpretation under an effective prior, then claim emission.

The labeler first merges every knowledge base it was granted into a single
effective prior (own knowledge outranks the miner's, which outranks the
experimenter's, which outranks peers). Reinterpretation then applies any
correction the miner missed, provided a datasheet reached this stage by some
channel, and drops patterns that contradict a confidently held prior claim.

Labeling itself is built to keep two growth properties by construction: a new
true prior claim on a fresh pair can only add a true labeled claim or replace
a false one, and dually for false claims. High-confidence prior claims pass
through into the output and take precedence over pattern-derived labels on
the same pair; ambiguous, degenerate, disputed, or selection-compromised
patterns yield no claim at all.

Both steps read polarity through ``mining.implied_polarity``, whose params
are a ``MiningParams``, or a ``LabelingParams``, which extends it with the
pass-through trust confidence. A labeling is a ``LabeledKnowledge`` (see
``knowledge.PairColumns``). Its JSON form holds its claims under ``claims``,
one ``{origin, polarity, u, v}`` record per claim: ``entries``. The result
writer, ``orchestrator._json_line``, renders that text straight from the
columns (``orchestrator._labeling_text``), so writing a result builds no record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .experimenting import Datasheet
from .knowledge import KnowledgeBase, PairColumns, check_confidence, split_keys
from .mining import (
    TAG_DISPUTED,
    TAG_SELECTION_CONDITIONED,
    Information,
    MiningParams,
    PatternTable,
    contradicted_patterns,
    datasheet_corrections,
    implied_polarity,
)

ORIGIN_PATTERN = "pattern"
ORIGIN_PRIOR = "prior_passthrough"


@dataclass(frozen=True)
class LabelingParams(MiningParams):
    """The mining thresholds, plus the confidence at which a prior claim
    passes through."""

    trust_confidence: float = 0.9

    def __post_init__(self) -> None:
        super().__post_init__()
        check_confidence("trust_confidence", self.trust_confidence)


@dataclass(frozen=True)
class EffectivePrior:
    """One claim per pair, already resolved across all granted sources."""

    claims: KnowledgeBase


class LabeledKnowledge(PairColumns):
    """One labeling's claims, at most one per pair: ``keys`` in ascending
    order, ``dep`` (True for a Dependent claim) and ``from_prior`` (True for
    a prior pass-through, False for a pattern label), plus the (experimenter,
    miner, labeler) ``teams`` that produced it. ``entries`` is the record
    view of the same claims, and ``to_json`` is ``teams`` and ``entries``
    under ``claims``; the result writer renders that JSON from the columns.
    """

    COLUMNS = ("keys", "dep", "from_prior")
    FIELDS = ("teams",)
    __slots__ = COLUMNS + FIELDS

    @property
    def entries(self) -> list[dict]:
        """One ``{u, v, polarity, origin}`` record per claim, in key order."""
        us, vs = split_keys(self.keys)
        return [
            {"u": u, "v": v, "polarity": "dep" if d else "indep", "origin": ORIGIN_PRIOR if p else ORIGIN_PATTERN}
            for u, v, d, p in zip(us.tolist(), vs.tolist(), self.dep.tolist(), self.from_prior.tolist())
        ]

    def __repr__(self) -> str:
        return f"LabeledKnowledge({len(self)} claims, teams={self.teams})"

    def to_json(self) -> dict:
        return {"teams": list(self.teams), "claims": self.entries}


def build_effective_prior(
    own: KnowledgeBase,
    delivered_miner: Optional[KnowledgeBase],
    delivered_exp: Optional[KnowledgeBase],
    peers: Sequence[KnowledgeBase] = (),
) -> EffectivePrior:
    """Union of every delivered base; per-pair conflicts go to the strongest
    source (labeler, then miner, then experimenter, then peers in list order).
    """
    layers = [kb for kb in (own, delivered_miner, delivered_exp, *peers) if kb is not None]
    # Strongest first, as in ``label``: np.unique keeps the first claim on each pair.
    keys, first = np.unique(np.concatenate([kb.keys for kb in layers]), return_index=True)
    dep = np.concatenate([kb.dep for kb in layers])[first]
    conf = np.concatenate([kb.conf for kb in layers])[first]
    return EffectivePrior(KnowledgeBase.from_arrays(keys, dep, conf))


def reinterpret(
    info: Information,
    prior: EffectivePrior,
    delivered_exp_datasheet: Optional[Datasheet],
    params: LabelingParams,
) -> Information:
    """Re-read information with everything the labeler knows.

    The datasheet is the one delivered directly, or else the one the info
    sheet embeds because the miner had it. ``datasheet_corrections`` applies
    whatever it proves that the info sheet's ``corrections_applied`` lacks
    (the algebra is the miner's, so both routes give identical values) and
    propagates selection tags for a condition the miner did not know about.
    Patterns whose implied polarity contradicts a prior claim held with
    confidence at or above the veto threshold are removed, except patterns
    the miner already marked disputed (that conflict is recorded; stripping
    the pattern as well would erase the audit trail and, when one team plays
    every role, make the reinterpretation diverge from the information it
    already produced).
    """
    sheet = info.info_sheet
    datasheet = delivered_exp_datasheet if delivered_exp_datasheet is not None else sheet.upstream_datasheet
    patterns, corrections = datasheet_corrections(info.patterns, datasheet, sheet.corrections_applied)

    kept = patterns.has(TAG_DISPUTED) | ~contradicted_patterns(patterns, [prior.claims], params)
    patterns = PatternTable.from_arrays(patterns.keys[kept], patterns.phi[kept], patterns.tags[kept], patterns.support)
    return Information(patterns, replace(sheet, corrections_applied=corrections))


def label(
    info: Information,
    prior: EffectivePrior,
    params: LabelingParams,
    *,
    teams: tuple[int, int, int] = (0, 0, 0),
) -> LabeledKnowledge:
    """Turn reinterpreted patterns plus trusted prior claims into new claims.

    Pattern rule: a pattern labels the polarity it implies
    (``implied_polarity``), except that a selection-conditioned pattern never
    labels Independent (apparent independence may be masking) and a disputed
    pattern yields no claim. Prior claims at or above the trust threshold
    pass through. As in the effective prior, the strongest claim on a pair is
    kept: a pass-through over its pair's pattern labels, the last of those
    over the rest.
    """
    patterns = info.patterns
    implied, dep = implied_polarity(patterns, params)
    emits = implied & ~patterns.has(TAG_DISPUTED) & (dep | ~patterns.has(TAG_SELECTION_CONDITIONED))
    kb = prior.claims
    trusted = kb.conf >= params.trust_confidence
    # Strongest first, as in the effective prior: pass-throughs, then the
    # pattern labels from last to first.
    all_keys = np.concatenate([kb.keys[trusted], patterns.keys[emits][::-1]])
    all_dep = np.concatenate([kb.dep[trusted], dep[emits][::-1]])
    keys, first = np.unique(all_keys, return_index=True)
    return LabeledKnowledge.from_arrays(keys, all_dep[first], first < np.count_nonzero(trusted), teams)
