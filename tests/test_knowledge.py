"""Tests for the knowledge universe: claims, forests, priors, rectification."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktsim.errors import ConfigError
from ktsim.knowledge import (
    Claim,
    GroundTruth,
    KnowledgeBase,
    Membership,
    Polarity,
    WeightedClaim,
    build_ground_truth,
    dependent,
    independent,
    membership,
    negate,
    rectify,
    sample_agent_prior,
    true_knowledge,
)


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
    with pytest.raises(ConfigError):
        WeightedClaim(dependent(0, 1), 0.0)
    with pytest.raises(ConfigError):
        WeightedClaim(dependent(0, 1), 1.2)


def test_knowledge_base_rejects_duplicate_pairs():
    with pytest.raises(ConfigError):
        KnowledgeBase([WeightedClaim(dependent(0, 1), 0.7), WeightedClaim(independent(0, 1), 0.9)])


def test_knowledge_base_round_trips_json():
    kb = KnowledgeBase([WeightedClaim(independent(5, 2), 0.6), WeightedClaim(dependent(0, 1), 0.7)])
    assert KnowledgeBase.from_json(kb.to_json()) == kb
    assert kb.to_json() == {"u": [0, 2], "v": [1, 5], "dep": [True, False], "conf": [0.7, 0.6]}


@st.composite
def knowledge_bases(draw):
    ids = st.integers(0, 40)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=30))
    claims = {}
    for u, v in pairs:
        claim = Claim(u, v, draw(st.sampled_from(Polarity)))
        claims.setdefault(claim.pair, WeightedClaim(claim, draw(st.floats(5e-324, 1.0))))
    return KnowledgeBase(claims.values())


@settings(max_examples=100, deadline=None)
@given(knowledge_bases())
@example(KnowledgeBase())
@example(KnowledgeBase([
    WeightedClaim(dependent(0, 1), 0.1 + 0.2),
    WeightedClaim(independent(0, 2), 1.0),
    WeightedClaim(dependent(1, 2), 5e-324),
]))
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
        assert membership(c, gt) is Membership.IN_K
        assert membership(negate(c), gt) is Membership.IN_KC


def test_membership_agrees_with_materialized_set():
    rng = np.random.default_rng(4)
    gt = build_ground_truth(12, 4, 0.9, rng)
    K = true_knowledge(gt)
    for u in range(gt.m):
        for v in range(u + 1, gt.m):
            for pol in Polarity:
                c = Claim(u, v, pol)
                assert (membership(c, gt) is Membership.IN_K) == (c in K)


def test_membership_range_check():
    gt = chain_gt(3)
    with pytest.raises(ConfigError):
        membership(dependent(0, 9), gt)


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
    assert {wc.claim for wc in kb} == set(true_knowledge(gt))
    assert all(0.5 <= wc.confidence <= 1.0 for wc in kb)


def test_prior_accuracy_fraction_matches_binomial_expectation():
    # m = 142 gives 10011 pairs; at coverage 0.5 / accuracy 0.8 the observed
    # true fraction should sit within 0.8 +/- 0.02 (binomial tolerance).
    rng = np.random.default_rng(99)
    gt = build_ground_truth(142, 3, 0.9, rng)
    kb = sample_agent_prior(gt, 0.5, 0.8, rng)
    truths = [membership(wc.claim, gt) is Membership.IN_K for wc in kb]
    frac = sum(truths) / len(truths)
    assert abs(frac - 0.8) < 0.02
    assert abs(len(kb) / 10011 - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Rectification
# ---------------------------------------------------------------------------

def _kb(*claims):
    return KnowledgeBase([WeightedClaim(c, conf) for c, conf in claims])


def test_rectify_majority_wins_with_mean_confidence():
    merged = rectify([
        _kb((dependent(0, 1), 0.6)),
        _kb((independent(0, 1), 0.9)),
        _kb((dependent(0, 1), 0.8)),
    ])
    wc = merged.get(0, 1)
    assert wc.claim == dependent(0, 1)
    assert wc.confidence == pytest.approx(0.7)


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
    pairs = [wc.claim.pair for wc in merged]
    assert len(pairs) == len(set(pairs))
