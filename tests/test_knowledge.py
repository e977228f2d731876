"""Tests for the knowledge universe: claims, forests, priors, rectification."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktsim.errors import ConfigError
from ktsim.knowledge import (
    FOREST_WORK_LIMIT,
    Claim,
    GroundTruth,
    KnowledgeBase,
    Polarity,
    _forest_table,
    all_pair_keys,
    build_ground_truth,
    dependent,
    forest_table_work,
    independent,
    negate,
    pair_key,
    rectify,
    sample_agent_prior,
    split_keys,
)
from ktsim.metrics import _counts


class DisjointSet:
    """Independent connectivity oracle for forest edges."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def connected(self, a, b):
        return self.find(a) == self.find(b)


def chain_gt(length, p_stay=0.9):
    parents = (None,) + tuple(range(length - 1))
    return GroundTruth(length, parents, p_stay)


def _kb(*claims):
    """Knowledge base of ``(claim, confidence)`` pairs, read through ``from_json``."""
    return KnowledgeBase.from_json({
        "u": [c.u for c, _ in claims],
        "v": [c.v for c, _ in claims],
        "dep": [c.polarity is Polarity.DEPENDENT for c, _ in claims],
        "conf": [conf for _, conf in claims],
    })


def _claims(kb):
    """``(claim, confidence)`` of every row of ``kb``, in key order."""
    us, vs = split_keys(kb.keys)
    return [
        (Claim(u, v, Polarity.DEPENDENT if dep else Polarity.INDEPENDENT), conf)
        for u, v, dep, conf in zip(us.tolist(), vs.tolist(), kb.dep.tolist(), kb.conf.tolist())
    ]


def true_knowledge(gt):
    """The complete set of true claims: one per pair, polarity by ``same_tree_keys``."""
    keys = all_pair_keys(gt.m)
    return {c for c, _ in _claims(KnowledgeBase.from_arrays(keys, gt.same_tree_keys(keys), np.ones(keys.size)))}


def in_k(claim, gt):
    """Whether the scorer counts ``claim`` on the true side."""
    code = pair_key(claim.u, claim.v) << 1 | (claim.polarity is Polarity.DEPENDENT)
    return _counts(np.array([code], dtype=np.int64), gt)["true_count"] == 1


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

def test_claim_canonicalizes_pair_order():
    assert Claim(7, 2, Polarity.DEPENDENT) == dependent(2, 7)
    assert dependent(2, 7).pair == (2, 7)


def test_claim_rejects_self_pair():
    with pytest.raises(ConfigError):
        Claim(3, 3, Polarity.DEPENDENT)


def test_negate_flips_polarity_and_keeps_pair():
    c = dependent(0, 1)
    assert negate(c) == independent(0, 1)


@given(st.integers(0, 50), st.integers(0, 50), st.booleans())
def test_negate_is_an_involution(u, v, dep):
    if u == v:
        return
    c = Claim(u, v, Polarity.DEPENDENT if dep else Polarity.INDEPENDENT)
    assert negate(negate(c)) == c


def test_weighted_claim_confidence_range():
    for conf in (0.0, 1.2, float("nan")):
        with pytest.raises(ConfigError, match="confidence must lie in"):
            _kb((dependent(0, 1), conf))
        with pytest.raises(ConfigError, match="confidence must lie in"):
            _kb().extended(0, 1, True, conf)
    assert _claims(_kb((dependent(0, 1), 1.0))) == [(dependent(0, 1), 1.0)]


def test_knowledge_base_rejects_duplicate_pairs():
    with pytest.raises(ConfigError, match=r"more than one claim for pair \(0, 1\)"):
        _kb((dependent(0, 1), 0.7), (independent(1, 0), 0.9))


def test_knowledge_base_round_trips_json():
    kb = _kb((independent(5, 2), 0.6), (dependent(0, 1), 0.7))
    assert KnowledgeBase.from_json(kb.to_json()) == kb
    assert kb.to_json() == {"u": [0, 2], "v": [1, 5], "dep": [True, False], "conf": [0.7, 0.6]}
    assert _claims(kb) == [(dependent(0, 1), 0.7), (independent(2, 5), 0.6)]
    assert KnowledgeBase.from_json({"u": [5, 1], "v": [2, 0], "dep": [False, True], "conf": [0.6, 0.7]}) == kb


@st.composite
def knowledge_bases(draw):
    ids = st.integers(0, 40)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=30))
    claims = {}
    for u, v in pairs:
        claim = Claim(u, v, draw(st.sampled_from(Polarity)))
        claims.setdefault(claim.pair, (claim, draw(st.floats(5e-324, 1.0))))
    return _kb(*claims.values())


@settings(max_examples=100, deadline=None)
@given(knowledge_bases())
@example(_kb())
@example(_kb((dependent(0, 1), 0.1 + 0.2), (independent(0, 2), 1.0), (dependent(1, 2), 5e-324)))
def test_knowledge_base_json_round_trip_is_exact(kb):
    assert KnowledgeBase.from_json(json.loads(json.dumps(kb.to_json()))) == kb


@pytest.mark.parametrize(("column", "value", "message"), [
    ("u", [0, 1, 2], "differ in length"),
    ("dep", [True], "differ in length"),
    ("v", [1, 1], "more than one claim for pair"),
    ("dep", [1, "false"], "must hold booleans"),
    ("conf", [0.5, 0.0], "confidence must lie in"),
    ("conf", [1.5, 0.5], "confidence must lie in"),
    ("conf", None, "missing columns \\['conf'\\]"),
    ("v", [0, 2], "variable ids must lie below 2\\*\\*32, be non-negative and differ"),
    ("u", [-1, 0], "variable ids must lie below 2\\*\\*32, be non-negative and differ"),
    ("v", [1, 2**32], "variable ids must lie below 2\\*\\*32, be non-negative and differ"),
    ("v", [1, 2**64], "must be integers"),
    ("u", [0.0, 0.0], "must be integers"),
    ("u", [[0], [0]], "must be integers"),
    ("conf", [0.5, "0.5"], "must hold numbers"),
])
def test_knowledge_base_from_json_rejects_malformed_columns(column, value, message):
    doc = {"u": [0, 0], "v": [1, 2], "dep": [True, False], "conf": [0.5, 0.5]}
    if value is None:
        del doc[column]
    else:
        doc[column] = value
    with pytest.raises(ConfigError, match=message):
        KnowledgeBase.from_json(doc)


# ---------------------------------------------------------------------------
# Ground truth construction
# ---------------------------------------------------------------------------

def test_forest_with_tree_count_equal_m_has_no_edges():
    gt = build_ground_truth(2, 2, 0.9, np.random.default_rng(0))
    assert gt.parents == (None, None)
    assert true_knowledge(gt) == frozenset({independent(0, 1)})


def test_single_tree_has_m_minus_one_edges():
    gt = build_ground_truth(3, 1, 0.8, np.random.default_rng(1))
    edges = sum(1 for p in gt.parents if p is not None)
    assert edges == 2
    assert gt.tree_count == 1


# Hundreds of trees must not exhaust the stack while the forests are counted.
@pytest.mark.parametrize("m,k", [(6, 2), (12, 5), (20, 4), (505, 500), (1000, 1000)])
def test_forest_tree_count_and_edge_count(m, k):
    gt = build_ground_truth(m, k, 0.9, np.random.default_rng(m * 31 + k))
    assert gt.tree_count == k
    assert sum(1 for p in gt.parents if p is not None) == m - k


def test_forest_is_deterministic_under_fixed_seed():
    a = build_ground_truth(20, 4, 0.9, np.random.default_rng(7))
    b = build_ground_truth(20, 4, 0.9, np.random.default_rng(7))
    assert a.parents == b.parents


def _edge_signature(gt):
    return tuple(sorted((min(v, p), max(v, p)) for v, p in enumerate(gt.parents) if p is not None))


def test_forests_are_sampled_uniformly_on_small_cases():
    # m=3, k=2 has exactly 3 forests; m=4, k=1 has 16 trees (Cayley). Counts
    # must sit near uniform (bounds are ~5 sigma for the fixed seeds).
    rng = np.random.default_rng(0)
    counts = {}
    for _ in range(3000):
        sig = _edge_signature(build_ground_truth(3, 2, 0.9, rng))
        counts[sig] = counts.get(sig, 0) + 1
    assert len(counts) == 3
    assert all(880 <= c <= 1120 for c in counts.values())

    rng = np.random.default_rng(1)
    counts = {}
    for _ in range(4800):
        sig = _edge_signature(build_ground_truth(4, 1, 0.9, rng))
        counts[sig] = counts.get(sig, 0) + 1
    assert len(counts) == 16
    assert all(215 <= c <= 385 for c in counts.values())


def test_build_ground_truth_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        build_ground_truth(5, 0, 0.9, rng)
    with pytest.raises(ConfigError):
        build_ground_truth(5, 6, 0.9, rng)
    with pytest.raises(ConfigError):
        build_ground_truth(5, 2, 0.5, rng)
    with pytest.raises(ConfigError):
        build_ground_truth(5, 2, 1.0, rng)


def test_ground_truth_rejects_cycles():
    with pytest.raises(ConfigError):
        GroundTruth(3, (1, 2, 0), 0.9)


# ---------------------------------------------------------------------------
# True knowledge against an independent connectivity oracle
# ---------------------------------------------------------------------------

def test_true_knowledge_matches_union_find_on_100_random_forests():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(2, 16))
        k = int(rng.integers(1, m + 1))
        gt = build_ground_truth(m, k, 0.9, rng)
        dsu = DisjointSet(m)
        for v, p in enumerate(gt.parents):
            if p is not None:
                dsu.union(v, p)
        claims = {c.pair: c.polarity for c in true_knowledge(gt)}
        assert len(claims) == m * (m - 1) // 2
        assert all(in_k(Claim(u, v, pol), gt) for (u, v), pol in claims.items())
        for u in range(m):
            for v in range(u + 1, m):
                expected = Polarity.DEPENDENT if dsu.connected(u, v) else Polarity.INDEPENDENT
                assert claims[(u, v)] is expected


def test_forest_counts_match_brute_force_enumeration():
    # Independent oracle: enumerate every acyclic edge subset on n labeled
    # vertices and bucket by component count, then compare with the counting
    # recursion the sampler draws from.
    from itertools import combinations as combos

    from ktsim.knowledge import _forest_count

    for n in (2, 3, 4, 5):
        all_edges = list(combos(range(n), 2))
        by_components = {}
        for mask in range(1 << len(all_edges)):
            dsu = DisjointSet(n)
            acyclic = True
            edges = 0
            for idx, (u, v) in enumerate(all_edges):
                if mask >> idx & 1:
                    if dsu.connected(u, v):
                        acyclic = False
                        break
                    dsu.union(u, v)
                    edges += 1
            if acyclic:
                comps = n - edges
                by_components[comps] = by_components.get(comps, 0) + 1
        for k in range(1, n + 1):
            assert _forest_count(n, k) == by_components.get(k, 0)


def test_k_and_complement_partition_all_claims():
    gt = build_ground_truth(10, 3, 0.9, np.random.default_rng(3))
    K = true_knowledge(gt)
    complement = {negate(c) for c in K}
    assert K.isdisjoint(complement)
    assert len(K) == len(complement) == 45
    for c in K:
        assert in_k(c, gt)
        assert not in_k(negate(c), gt)


def test_membership_agrees_with_materialized_set():
    # The scorer's verdict on every claim against the set that a
    # full-coverage, full-accuracy prior materializes.
    rng = np.random.default_rng(4)
    gt = build_ground_truth(12, 4, 0.9, rng)
    K = {c for c, _ in _claims(sample_agent_prior(gt, 1.0, 1.0, rng))}
    assert len(K) == 66
    for u in range(gt.m):
        for v in range(u + 1, gt.m):
            for pol in Polarity:
                c = Claim(u, v, pol)
                assert in_k(c, gt) == (c in K)


def test_membership_range_check():
    gt = chain_gt(3)
    with pytest.raises(ConfigError, match="outside the variable range"):
        gt.same_tree_keys(np.array([pair_key(0, 9)], dtype=np.int64))


# ---------------------------------------------------------------------------
# Agent priors
# ---------------------------------------------------------------------------

def test_zero_coverage_gives_empty_prior():
    gt = build_ground_truth(8, 2, 0.9, np.random.default_rng(5))
    kb = sample_agent_prior(gt, 0.0, 0.9, np.random.default_rng(6))
    assert len(kb) == 0


def test_full_coverage_full_accuracy_reproduces_k():
    gt = build_ground_truth(8, 2, 0.9, np.random.default_rng(5))
    kb = sample_agent_prior(gt, 1.0, 1.0, np.random.default_rng(6))
    assert {c for c, _ in _claims(kb)} == true_knowledge(gt)
    assert all(0.5 <= conf <= 1.0 for _, conf in _claims(kb))


def test_prior_accuracy_fraction_matches_binomial_expectation():
    # m = 142 gives 10011 pairs; at coverage 0.5 / accuracy 0.8 the observed
    # true fraction should sit within 0.8 +/- 0.02 (binomial tolerance).
    rng = np.random.default_rng(99)
    gt = build_ground_truth(142, 3, 0.9, rng)
    kb = sample_agent_prior(gt, 0.5, 0.8, rng)
    truths = [in_k(c, gt) for c, _ in _claims(kb)]
    frac = sum(truths) / len(truths)
    assert abs(frac - 0.8) < 0.02
    assert abs(len(kb) / 10011 - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Rectification
# ---------------------------------------------------------------------------

def test_rectify_majority_wins_with_mean_confidence():
    merged = rectify([
        _kb((dependent(0, 1), 0.6)),
        _kb((independent(0, 1), 0.9)),
        _kb((dependent(0, 1), 0.8)),
    ])
    [(claim, conf)] = _claims(merged)
    assert claim == dependent(0, 1)
    assert conf == pytest.approx(0.7)


def test_rectify_drops_exact_ties():
    merged = rectify([_kb((dependent(0, 1), 0.9)), _kb((independent(0, 1), 0.9))])
    assert len(merged) == 0


def test_rectify_single_base_is_identity():
    kb = _kb((dependent(0, 1), 0.6), (independent(2, 3), 0.55))
    assert rectify([kb]) == kb


def test_rectify_requires_input():
    with pytest.raises(ConfigError):
        rectify([])


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(4))))
def test_rectify_is_permutation_invariant(order):
    bases = [
        _kb((dependent(0, 1), 0.6), (dependent(1, 2), 0.7)),
        _kb((independent(0, 1), 0.8)),
        _kb((dependent(0, 1), 0.9), (independent(3, 4), 0.6)),
        _kb((independent(1, 2), 0.95)),
    ]
    assert rectify([bases[i] for i in order]) == rectify(bases)


def test_rectify_never_emits_both_polarities():
    rng = np.random.default_rng(11)
    gt = build_ground_truth(10, 2, 0.9, rng)
    bases = [sample_agent_prior(gt, 0.6, 0.7, rng) for _ in range(5)]
    merged = rectify(bases)
    pairs = [c.pair for c, _ in _claims(merged)]
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("m,k", [(2, 2), (6, 2), (12, 5), (30, 3), (40, 40), (60, 17)])
def test_forest_table_work_counts_the_products_of_the_table(m, k):
    # Row j >= 2 of the table takes one product per first-tree size, n - j + 1 of them per entry n.
    table = _forest_table(m, k)
    products = sum(n - j + 1 for j in range(2, k + 1) for n in table[j])
    assert forest_table_work(m, k) == products * (m - k + 1) * m.bit_length()


def test_forest_work_limit_sits_between_accepted_and_rejected_configs():
    assert forest_table_work(1200, 1200) < forest_table_work(844, 3) <= FOREST_WORK_LIMIT
    assert FOREST_WORK_LIMIT < forest_table_work(845, 3) < forest_table_work(1200, 1122)
    assert forest_table_work(1200, 1123) <= FOREST_WORK_LIMIT
