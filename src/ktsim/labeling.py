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
``knowledge.PairColumns``). A result file holds its claims under ``claims``,
one ``{origin, polarity, u, v}`` record per claim, rendered straight from the
columns; ``entries`` is the same records as dicts, which tests and the
benchmark's tracer read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .experimenting import Datasheet
from .knowledge import KnowledgeBase, PairColumns, check_confidence, split_keys
from .mining import (
    TAG_DISPUTED,
    TAG_NOISE_CORRECTED,
    TAG_SELECTION_CONDITIONED,
    Information,
    MiningParams,
    PatternTable,
    contradicted_patterns,
    datasheet_corrections,
    implied_polarity,
)
from .records import JSONFragment

ORIGIN_PATTERN = "pattern"
ORIGIN_PRIOR = "prior_passthrough"

#: One claim record per code ``2 * from_prior + dep``, keys in sorted order as
#: the result encoder writes them, with ``%d`` in place of ``u`` and ``v``.
_CLAIM_TEMPLATES = tuple(
    f'{{"origin":"{origin}","polarity":"{polarity}","u":%d,"v":%d}}'
    for origin in (ORIGIN_PATTERN, ORIGIN_PRIOR)
    for polarity in ("indep", "dep")
)


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
    view of the same claims, which tests and the benchmark's tracer read;
    ``to_json`` writes those records without building them.
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
        """``teams``, and under ``claims`` the JSON text of ``entries``: each
        claim fills its code's template with its ids, so no record is built."""
        us, vs = split_keys(self.keys)
        codes = 2 * self.from_prior + self.dep
        records = ",".join(map(_CLAIM_TEMPLATES.__getitem__, codes.tolist()))
        ids = tuple(np.column_stack((us, vs)).ravel().tolist())
        return {"teams": list(self.teams), "claims": JSONFragment(f"[{records % ids}]")}


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
    # Strongest first: np.unique keeps the first occurrence of every key.
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

    If a datasheet is visible at this stage (delivered directly, or embedded
    in the info sheet because the miner had it) and the noise correction has
    not been applied yet, apply it here; the algebra is shared with the mining
    stage, so both routes produce identical values. Patterns whose implied
    polarity contradicts a prior claim held with confidence at or above the
    veto threshold are removed, except patterns the miner already marked
    disputed (that conflict is recorded; stripping the pattern as well would
    erase the audit trail and, when one team plays every role, make the
    reinterpretation diverge from the information it already produced).
    Selection tags are propagated when the datasheet reveals a condition the
    miner did not know about.
    """
    sheet = info.info_sheet
    datasheet = delivered_exp_datasheet if delivered_exp_datasheet is not None else sheet.upstream_datasheet
    patterns = info.patterns
    corrections = sheet.corrections_applied

    if datasheet is not None:
        correct_noise = datasheet.noise_rate > 0.0 and TAG_NOISE_CORRECTED not in corrections
        patterns = datasheet_corrections(patterns, datasheet, correct_noise)
        if correct_noise:
            corrections = corrections | {TAG_NOISE_CORRECTED}

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
    pass through afterwards and overwrite pattern labels on their pair.
    """
    patterns = info.patterns
    implied, dep = implied_polarity(patterns, params)
    emits = implied & ~patterns.has(TAG_DISPUTED) & (dep | ~patterns.has(TAG_SELECTION_CONDITIONED))
    kb = prior.claims
    trusted = kb.conf >= params.trust_confidence
    # Pattern labels first, pass-throughs after. The stable sort keeps that
    # order within a pair and the last claim on a pair is kept, so a
    # pass-through overwrites the pattern label on its pair.
    all_keys = np.concatenate([patterns.keys[emits], kb.keys[trusted]])
    all_dep = np.concatenate([dep[emits], kb.dep[trusted]])
    from_prior = np.arange(all_keys.size) >= np.count_nonzero(emits)
    order = np.argsort(all_keys, kind="stable")
    all_keys = all_keys[order]
    last = np.ones(all_keys.shape, dtype=bool)
    last[:-1] = all_keys[1:] != all_keys[:-1]
    kept = order[last]
    return LabeledKnowledge.from_arrays(all_keys[last], all_dep[kept], from_prior[kept], teams)
