"""The array-backed knowledge operations against plain per-claim references.

Each reference below is the straightforward dict/per-pair version of the
algorithm: one claim tuple per pair, Python sums, one contingency table per
pattern. Hypothesis draws small bases (m <= 8, empty bases and exact vote
ties included) and every result must match the reference exactly, floats
bit for bit.
"""

import json
import math
from collections import namedtuple
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktsim.errors import ConfigError
from ktsim.experimenting import _GRAM_BLOCK_ROWS, Dataset, Datasheet, Selection
from ktsim.knowledge import KnowledgeBase, build_ground_truth, rectify, sorted_pair_keys, split_keys
from ktsim.labeling import (
    ORIGIN_PATTERN,
    ORIGIN_PRIOR,
    EffectivePrior,
    LabeledKnowledge,
    LabelingParams,
    build_effective_prior,
    label,
    reinterpret,
)
from ktsim import metrics
from ktsim.metrics import negate_passthrough, openness
from ktsim.mining import (
    TAG_BITS,
    TAG_DEGENERATE,
    TAG_DISPUTED,
    TAG_NAMES,
    TAG_NOISE_CORRECTED,
    TAG_SELECTION_CONDITIONED,
    Information,
    InfoSheet,
    MiningParams,
    PatternTable,
    datasheet_corrections,
    mine,
    phi_coefficient,
)
from ktsim.orchestrator import _encode, _json_line, _labeling_text

from claimref import _kb, claim, claims_of, labeling, negate, pair_keys, truth, weighted_claims

SETTINGS = settings(max_examples=100, deadline=None)

#: One claim of the references and its confidence.
WeightedClaim = namedtuple("WeightedClaim", "claim confidence")

#: Threshold values are drawn often so comparisons at the boundary are hit.
CONFIDENCES = st.one_of(st.sampled_from([0.5, 0.9, 0.95, 1.0]), st.floats(0.01, 1.0))
PHIS = st.one_of(st.sampled_from([0.0, 0.05, -0.05, 0.3, -0.3, 0.1, 1.0]), st.floats(-1.0, 1.0))
TAGS = st.just(frozenset()) | st.frozensets(st.sampled_from(TAG_NAMES))


@st.composite
def claim_lists(draw, m):
    """Weighted claims on distinct pairs of m variables, in drawn order."""
    pairs = list(combinations(range(m), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return [WeightedClaim(claim(u, v, draw(st.booleans())), draw(CONFIDENCES)) for u, v in chosen]


def _as_dict(claims):
    return {(wc.claim.u, wc.claim.v): wc for wc in claims}


def _rows(claims):
    """(u, v, dep, confidence) per weighted claim, sorted by pair."""
    return sorted((c.u, c.v, c.dep, conf) for c, conf in claims)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def ref_rectify(members):
    bases = [_as_dict(claims) for claims in members]
    merged = []
    for pair in sorted(set().union(*bases)):
        votes = [base[pair] for base in bases if pair in base]
        deps = [wc for wc in votes if wc.claim.dep]
        inds = [wc for wc in votes if not wc.claim.dep]
        if len(deps) == len(inds):
            continue
        winners = deps if len(deps) > len(inds) else inds
        merged.append(WeightedClaim(winners[0].claim, sum(wc.confidence for wc in winners) / len(winners)))
    return merged


def ref_effective_prior(own, miner, exp, peers):
    merged = {}
    for base in [*reversed(peers), exp or [], miner or [], own]:
        merged.update(_as_dict(base))
    return list(merged.values())


#: One pattern of the references: its pair, phi and frozenset of tag names.
Ref = namedtuple("Ref", "pair phi tags")


def ref_implied(pattern, params):
    """True for Dependent, False for Independent, None for no polarity."""
    if TAG_DEGENERATE in pattern.tags:
        return None
    if abs(pattern.phi) >= params.dep_threshold:
        return True
    if abs(pattern.phi) <= params.ind_threshold:
        return False
    return None


def ref_corrections(pattern, datasheet, correct_noise):
    phi, tags = pattern.phi, pattern.tags
    if correct_noise and TAG_DEGENERATE not in tags:
        phi = max(-1.0, min(1.0, phi / (1.0 - 2.0 * datasheet.noise_rate) ** 2))
        tags = tags | {TAG_NOISE_CORRECTED}
    if datasheet.selection is not None and datasheet.selection.variable not in pattern.pair:
        tags = tags | {TAG_SELECTION_CONDITIONED}
    return Ref(pattern.pair, phi, tags)


def ref_contradicted(pattern, base, params):
    implied = ref_implied(pattern, params)
    wc = base.get(pattern.pair)
    return (
        implied is not None
        and wc is not None
        and wc.confidence >= params.veto_confidence
        and wc.claim.dep != implied
    )


def ref_label(patterns, prior, params):
    chosen = {}
    for p in patterns:
        if TAG_DEGENERATE in p.tags or TAG_DISPUTED in p.tags:
            continue
        implied = ref_implied(p, params)
        if implied is None or (not implied and TAG_SELECTION_CONDITIONED in p.tags):
            continue
        chosen[p.pair] = (claim(*p.pair, implied), ORIGIN_PATTERN)
    for wc in prior:
        if wc.confidence >= params.trust_confidence:
            chosen[(wc.claim.u, wc.claim.v)] = (wc.claim, ORIGIN_PRIOR)
    return [chosen[pair] for pair in sorted(chosen)]


def ref_score(claims, gt):
    true_count = sum(1 for c in claims if c == truth(gt, c.u, c.v))
    return true_count, len(claims) - true_count


def ref_mine(rows, columns, datasheet, bases, params):
    """One pattern per pair of dataset columns, in column-pair order."""
    found = []
    for i, j in combinations(range(len(columns)), 2):
        phi = ref_phi(rows, i, j)
        pattern = Ref(tuple(sorted((columns[i], columns[j]))), 0.0, frozenset({TAG_DEGENERATE}))
        if phi is not None:
            pattern = Ref(pattern.pair, phi, frozenset())
        if datasheet is not None:
            pattern = ref_corrections(pattern, datasheet, datasheet.noise_rate > 0.0)
        if any(ref_contradicted(pattern, _as_dict(base), params) for base in bases):
            pattern = Ref(pattern.pair, pattern.phi, pattern.tags | {TAG_DISPUTED})
        found.append(pattern)
    return found


def ref_phi(rows, i, j):
    x = [r[i] for r in rows]
    y = [r[j] for r in rows]
    a = sum(1 for p, q in zip(x, y) if p and q)
    b = sum(1 for p, q in zip(x, y) if p and not q)
    c = sum(1 for p, q in zip(x, y) if q and not p)
    d = len(rows) - a - b - c
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    return None if denom == 0 else (a * d - b * c) / math.sqrt(denom)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data(), st.integers(2, 8), st.integers(1, 5))
def test_rectify_matches_the_reference(data, m, count):
    members = [data.draw(claim_lists(m)) for _ in range(count)]
    if data.draw(st.booleans()):
        # An exact tie: two members that disagree on every pair of the first.
        first = members[0]
        members[1:1] = [[WeightedClaim(negate(wc.claim), wc.confidence) for wc in first]]
    merged = rectify([_kb(*claims) for claims in members])
    assert _rows(weighted_claims(merged)) == _rows(ref_rectify(members))
    assert merged == _kb(*ref_rectify(members))


@SETTINGS
@given(st.data(), st.integers(2, 8))
def test_effective_prior_matches_the_reference(data, m):
    own = data.draw(claim_lists(m))
    miner = data.draw(st.none() | claim_lists(m))
    exp = data.draw(st.none() | claim_lists(m))
    peers = data.draw(st.lists(claim_lists(m), max_size=3))
    prior = build_effective_prior(
        _kb(*own),
        None if miner is None else _kb(*miner),
        None if exp is None else _kb(*exp),
        [_kb(*p) for p in peers],
    )
    assert _rows(weighted_claims(prior.claims)) == _rows(ref_effective_prior(own, miner, exp, peers))


#: Noise rates, with the values that make the correction clamp or vanish.
NOISE = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.45]), st.floats(0.0, 0.49))


@st.composite
def datasheets(draw, variables):
    """A datasheet recording noise above 0, a selection on one of
    ``variables``, or both."""
    selection = draw(st.none() | st.builds(Selection, st.sampled_from(variables), st.integers(0, 1)))
    noise = draw(NOISE if selection is not None else NOISE.filter(lambda rate: rate > 0.0))
    return Datasheet(tuple(variables), selection, noise, 1, team_id=0, seed_fingerprint="ref")


@st.composite
def patterns(draw, m, unique=True):
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(m), 2))), unique=unique, max_size=40))
    return [Ref(pair, draw(PHIS), draw(TAGS)) for pair in pairs]


def table(found, support=100):
    """The pattern table holding ``found`` in order."""
    return PatternTable.from_arrays(
        pair_keys([p.pair for p in found]),
        np.array([p.phi for p in found], dtype=np.float64),
        np.array([sum(int(TAG_BITS[t]) for t in p.tags) for p in found], dtype=np.uint8),
        support,
    )


def refs(patterns):
    """The rows of a pattern table as references."""
    us, vs = split_keys(patterns.keys)
    return [
        Ref((u, v), phi, frozenset(name for name in TAG_NAMES if code & TAG_BITS[name]))
        for u, v, phi, code in zip(us.tolist(), vs.tolist(), patterns.phi.tolist(), patterns.tags.tolist())
    ]


def _record(c, origin):
    return {"u": c.u, "v": c.v, "polarity": "dep" if c.dep else "indep", "origin": origin}


def _info(patterns, datasheet=None, corrections=frozenset()):
    sheet = InfoSheet(
        team_id=0, params=MiningParams(), corrections_applied=corrections, upstream_datasheet=datasheet
    )
    return Information(table(patterns), sheet)


@SETTINGS
@given(st.data(), st.integers(2, 5))
def test_label_matches_the_reference(data, m):
    found = data.draw(patterns(m))
    prior = data.draw(claim_lists(m))
    params = LabelingParams()
    out = label(_info(found), EffectivePrior(_kb(*prior)), params)
    assert out.entries == [_record(c, o) for c, o in ref_label(found, prior, params)]


@SETTINGS
@given(st.data(), st.integers(2, 5))
def test_label_with_repeated_pattern_pairs_keeps_the_last_label(data, m):
    # A pair may carry several patterns; as in a dict, the last one that
    # labels wins, and a trusted prior claim still overwrites them all.
    found = data.draw(patterns(m, unique=False))
    prior = data.draw(claim_lists(m))
    params = LabelingParams()
    out = label(_info(found), EffectivePrior(_kb(*prior)), params)
    assert out.entries == [_record(c, o) for c, o in ref_label(found, prior, params)]
    assert (out.keys.dtype, out.dep.dtype, out.from_prior.dtype) == (np.int64, bool, bool)


@SETTINGS
@given(st.data(), st.integers(2, 5))
def test_labeling_arrays_match_per_entry_references(data, m):
    found = data.draw(patterns(m))
    prior = data.draw(claim_lists(m))
    params = LabelingParams()
    teams = data.draw(st.tuples(*[st.integers(0, 3)] * 3))
    out = label(_info(found), EffectivePrior(_kb(*prior)), params, teams=teams)
    expected = ref_label(found, prior, params)
    # PairColumns equality ignores dtype, so an integer column would pass every other assert.
    assert (out.keys.dtype, out.dep.dtype, out.from_prior.dtype) == (np.int64, bool, bool)
    written = json.loads(_encode(out.to_json()))
    assert written == {"teams": list(teams), "claims": [_record(c, o) for c, o in expected]}
    negated = [(negate(c) if o == ORIGIN_PRIOR else c, o) for c, o in expected]
    assert negate_passthrough(out).entries == [_record(c, o) for c, o in negated]
    assert negate_passthrough(negate_passthrough(out)) == out
    # Claims keyed by sorted_pair_keys in any order give the same columns.
    shuffled = data.draw(st.permutations(expected))
    assert labeling([c for c, _ in shuffled], teams, [o == ORIGIN_PRIOR for _, o in shuffled]) == out
    assert LabeledKnowledge.from_arrays(out.keys, out.dep, out.from_prior, teams) == out
    gt = build_ground_truth(m, data.draw(st.integers(1, m)), 0.9, np.random.default_rng(data.draw(st.integers(0, 99))))
    for true_side in (True, False):
        expected_side = sum(1 for c in claims_of(out) if (c == truth(gt, c.u, c.v)) == true_side)
        assert metrics._count_side(out, gt, true_side) == expected_side


#: Variable ids: small ones, so pairs collide, and any up to the largest a key holds.
_IDS = st.integers(0, 6) | st.integers(0, 2**31 - 1)


@st.composite
def labelings(draw):
    """A labeling of up to 20 claims on distinct pairs, each claim's
    polarity and origin drawn."""
    pairs = draw(st.lists(
        st.tuples(_IDS, _IDS).filter(lambda p: p[0] != p[1]), unique_by=lambda p: (min(p), max(p)), max_size=20
    ))
    claims = [claim(u, v, draw(st.booleans())) for u, v in pairs]
    from_prior = draw(st.lists(st.booleans(), min_size=len(claims), max_size=len(claims)))
    return labeling(claims, draw(st.tuples(*[st.integers(0, 3)] * 3)), from_prior)


@SETTINGS
@given(labelings())
@example(labeling([]))
@example(labeling(
    [claim(0, 2**31 - 1, True), claim(1, 2, False), claim(2**31 - 2, 2**31 - 1, True), claim(3, 4, False)],
    (3, 0, 2),
    [True, True, False, False],
))
def test_labeling_json_text_is_the_encoding_of_its_records(lk):
    expected = _encode({"teams": list(lk.teams), "claims": lk.entries})
    assert _labeling_text(lk) == _encode(lk.to_json()) == expected
    assert "".join(_json_line({"labelings": iter([lk])})) == f'{{"labelings":[{expected}]}}\n'


def _column_values(cls):
    """Freshly allocated columns, then fields, of a two-row ``cls``."""
    keys = pair_keys([(0, 1), (2, 3)])
    return {
        KnowledgeBase: (keys, np.array([True, False]), np.array([0.75, 1.0])),
        PatternTable: (keys, np.array([0.5, -0.25]), np.array([2, 0], dtype=np.uint8), 100),
        LabeledKnowledge: (keys, np.array([True, False]), np.array([False, True]), (0, 1, 2)),
    }[cls]


def _changed(value):
    """``value`` with one entry changed: an array's first, a tuple's last, or a number plus one."""
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[0] = not value[0] if value.dtype == bool else value[0] + 1
        return value
    return value[:-1] + (value[-1] + 1,) if isinstance(value, tuple) else value + 1


COLUMN_CLASSES = (KnowledgeBase, PatternTable, LabeledKnowledge)


@pytest.mark.parametrize("cls", COLUMN_CLASSES, ids=lambda cls: cls.__name__)
def test_pair_columns_equality_covers_every_column_and_field(cls):
    a = cls.from_arrays(*_column_values(cls))
    assert a == cls.from_arrays(*_column_values(cls))
    for at, name in enumerate(cls.COLUMNS + cls.FIELDS):
        values = list(_column_values(cls))
        values[at] = _changed(values[at])
        assert a != cls.from_arrays(*values), name
    assert a != cls.from_arrays(*(v[:1] if isinstance(v, np.ndarray) else v for v in _column_values(cls)))
    assert all(not getattr(a, name).flags.writeable for name in cls.COLUMNS)
    for other in COLUMN_CLASSES:
        if other is not cls:
            assert a != other.from_arrays(a.keys, *_column_values(other)[1:])
    assert a != cls.__name__
    with pytest.raises(TypeError):
        hash(a)


@SETTINGS
@given(st.data(), st.integers(2, 8))
def test_sorted_pair_keys_rejects_a_repeated_pair_in_any_order(data, m):
    pairs = [(wc.claim.u, wc.claim.v) for wc in data.draw(claim_lists(m).filter(bool))]
    u, v = data.draw(st.sampled_from(pairs))
    rows = data.draw(st.permutations(pairs + [(v, u)]))
    with pytest.raises(ConfigError, match=rf"labeled knowledge holds more than one claim for pair \({u}, {v}\)"):
        sorted_pair_keys([a for a, _ in rows], [b for _, b in rows], "labeled knowledge")
    # With a second pair repeated too, the message names the smaller key.
    x, y = data.draw(st.sampled_from(pairs))
    rows = data.draw(st.permutations(pairs + [(v, u), (y, x)]))
    u, v = min((u, v), (x, y))
    with pytest.raises(ConfigError, match=rf"labeled knowledge holds more than one claim for pair \({u}, {v}\)"):
        sorted_pair_keys([a for a, _ in rows], [b for _, b in rows], "labeled knowledge")


@SETTINGS
@given(st.data(), st.integers(2, 5))
def test_veto_matches_the_reference(data, m):
    found = data.draw(patterns(m))
    prior = data.draw(claim_lists(m))
    corrections = data.draw(st.sampled_from([frozenset(), frozenset({TAG_NOISE_CORRECTED})]))
    upstream, delivered = (data.draw(st.none() | datasheets(list(range(m)))) for _ in range(2))
    params = LabelingParams()
    out = reinterpret(_info(found, upstream, corrections), EffectivePrior(_kb(*prior)), delivered, params)
    datasheet = delivered if delivered is not None else upstream
    correct_noise = datasheet is not None and datasheet.noise_rate > 0.0 and TAG_NOISE_CORRECTED not in corrections
    fixed = found if datasheet is None else [ref_corrections(p, datasheet, correct_noise) for p in found]
    # The corrections alone, and again with the set they return: the second pass changes nothing.
    corrected, applied = datasheet_corrections(table(found), datasheet, corrections)
    assert refs(corrected) == fixed
    assert datasheet_corrections(corrected, datasheet, applied) == (corrected, applied)
    base = _as_dict(prior)
    assert refs(out.patterns) == [p for p in fixed if TAG_DISPUTED in p.tags or not ref_contradicted(p, base, params)]
    assert out.patterns.support == 100
    assert out.info_sheet.corrections_applied == corrections | ({TAG_NOISE_CORRECTED} if correct_noise else set())


@SETTINGS
@given(st.data(), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_openness_matches_the_reference(data, m, seed):
    gt = build_ground_truth(m, data.draw(st.integers(1, m)), 0.9, np.random.default_rng(seed))
    labelings = []
    for t in range(data.draw(st.integers(0, 3))):
        labelings.append(labeling([wc.claim for wc in data.draw(claim_lists(m))], (t, 0, 0)))
    report = openness(labelings, gt)
    union = set().union(*(set(claims_of(lk)) for lk in labelings))
    assert (report.true_count, report.false_count) == ref_score(union, gt)
    assert report.union_size == len(union)
    for lk, triple in zip(labelings, report.per_triple):
        assert (triple.true_count, triple.false_count) == ref_score(claims_of(lk), gt)
        assert triple.union_size == len(lk.keys)
    assert report.normalized == ((report.openness / len(union)) if union else 0.0)


def _draw_dataset(data, width, n, m=8):
    """Distinct columns among m variables and n random 0/1 rows."""
    columns = data.draw(st.lists(st.integers(0, m - 1), min_size=width, max_size=width, unique=True))
    bits = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=n, max_size=n))
    rows = [[word >> k & 1 for k in range(width)] for word in bits]
    return columns, rows, Dataset(columns, np.array(rows, dtype=np.uint8).reshape(n, width))


@SETTINGS
@given(st.data(), st.integers(2, 6), st.integers(0, 40))
def test_mined_phi_and_disputes_match_per_pair_references(data, width, n):
    columns, rows, ds = _draw_dataset(data, width, n)
    datasheet = data.draw(st.none() | datasheets(columns))
    miner = data.draw(claim_lists(8))
    peers = data.draw(st.lists(claim_lists(8), max_size=2))
    params = MiningParams()
    info = mine(ds, _kb(*miner), datasheet, [_kb(*p) for p in peers], params)
    assert len(info.patterns) == width * (width - 1) // 2
    assert refs(info.patterns) == ref_mine(rows, columns, datasheet, [miner, *peers], params)
    assert info.patterns.support == n
    noise = datasheet is not None and datasheet.noise_rate > 0.0
    assert info.info_sheet.corrections_applied == ({TAG_NOISE_CORRECTED} if noise else set())


@SETTINGS
@given(st.data(), st.integers(2, 5))
def test_pattern_table_json_matches_per_pattern_records(data, m):
    found = data.draw(patterns(m, unique=False))
    support = data.draw(st.integers(0, 10**6))
    assert table(found, support).to_json() == {
        "u": [p.pair[0] for p in found],
        "v": [p.pair[1] for p in found],
        "phi": [p.phi for p in found],
        "tags": [sum(int(TAG_BITS[t]) for t in p.tags) for p in found],
        "support": support,
    }
    assert refs(table(found, support)) == found


def test_mined_phi_is_exact_over_several_row_blocks():
    # float32 block sums are exact up to 2**24; the all-ones column makes one reach the block size.
    assert _GRAM_BLOCK_ROWS <= 2**24
    rng = np.random.default_rng(5)
    rows = (rng.random((20_000, 5)) < [0.5, 0.3, 0.02, 0.9, 1.0]).astype(np.uint8)
    rows[:, 1] |= rows[:, 0]
    ds = Dataset((3, 0, 7, 5, 9), rows)
    wide = rows.astype(np.int64)
    assert np.array_equal(ds.pair_counts(), wide.T @ wide)
    info = mine(ds, _kb(), None, [], MiningParams())
    for pattern in refs(info.patterns):
        expected = phi_coefficient(ds, *pattern.pair)
        assert (pattern.phi, TAG_DEGENERATE in pattern.tags) == (expected or 0.0, expected is None)


@SETTINGS
@given(st.data(), st.integers(2, 8))
def test_a_repeated_pair_is_still_rejected(data, m):
    claims = data.draw(claim_lists(m).filter(bool))
    repeat = data.draw(st.sampled_from(claims))
    u, v = repeat.claim.u, repeat.claim.v
    twin = WeightedClaim(claim(v, u, data.draw(st.booleans())), data.draw(CONFIDENCES))
    order = data.draw(st.permutations(claims + [twin]))
    with pytest.raises(ConfigError, match=rf"pair \({u}, {v}\)"):
        _kb(*order)


@SETTINGS
@given(st.data(), st.integers(2, 8))
def test_extended_inserts_one_claim_like_the_checked_constructor(data, m):
    claims = data.draw(claim_lists(m))
    kb = _kb(*claims)
    taken = {(wc.claim.u, wc.claim.v) for wc in claims}
    u, v = data.draw(st.sampled_from([pair for pair in combinations(range(m + 2), 2) if pair not in taken]))
    if data.draw(st.booleans()):
        u, v = v, u
    wc = WeightedClaim(claim(u, v, data.draw(st.booleans())), data.draw(CONFIDENCES))
    grown = kb.extended(u, v, wc.claim.dep, wc.confidence)
    assert grown == _kb(*weighted_claims(kb), wc)
    assert not grown.keys.flags.writeable and not grown.dep.flags.writeable and not grown.conf.flags.writeable
    assert kb == _kb(*claims)
    if claims:
        held = data.draw(st.sampled_from(claims)).claim
        a, b = (held.u, held.v) if data.draw(st.booleans()) else (held.v, held.u)
        held_twice = rf"knowledge base holds more than one claim for pair \({held.u}, {held.v}\)"
        with pytest.raises(ConfigError, match=held_twice):
            kb.extended(a, b, data.draw(st.booleans()), data.draw(CONFIDENCES))


def test_extended_rejects_a_variable_id_the_keys_cannot_hold():
    with pytest.raises(ConfigError, match=r"variable ids must lie below 2\*\*31"):
        _kb().extended(0, 2**31, True, 0.9)
