"""Tests for the knowledge universe: claims, forests, priors, rectification."""

import hashlib
import json
import math
import struct
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktsim import knowledge
from ktsim.errors import ConfigError
from ktsim.knowledge import (
    FOREST_WORK_LIMIT,
    AgentSpec,
    GroundTruth,
    KnowledgeBase,
    _forest_count,
    build_ground_truth,
    forest_table_work,
    rectify,
    sample_agent_prior,
    sorted_pair_keys,
)
from ktsim.metrics import _counts, negate_passthrough

from claimref import (
    Claim,
    _kb,
    chain_gt,
    claim,
    claims_of,
    dependent,
    independent,
    labeling,
    negate,
    pair_keys,
    true_claims,
    weighted_claims,
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


def in_k(claim, gt):
    """Whether the scorer counts ``claim`` on the true side."""
    code = int(pair_keys([(claim.u, claim.v)])[0]) << 1 | claim.dep
    return _counts(np.array([code], dtype=np.int64), gt)["true_count"] == 1


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

def test_claim_rejects_self_pair():
    # The equal and negative id checks of every claim reader.
    for u, v in ((3, 3), (-1, 2), (2, -1)):
        with pytest.raises(ConfigError, match="be non-negative and differ"):
            sorted_pair_keys([u], [v], "knowledge base")
        with pytest.raises(ConfigError, match="be non-negative and differ"):
            _kb((Claim(u, v, True), 0.9))


def test_negate_flips_polarity_and_keeps_pair():
    # The validator's negated pass-through flips the polarity of prior
    # pass-throughs only, on the same pairs.
    lk = labeling([dependent(0, 1), independent(2, 3), dependent(1, 4)], (1, 2, 3), [True, True, False])
    flipped = negate_passthrough(lk)
    assert claims_of(flipped) == [independent(0, 1), dependent(1, 4), dependent(2, 3)]
    assert np.array_equal(flipped.keys, lk.keys) and np.array_equal(flipped.from_prior, lk.from_prior)
    assert flipped.teams == lk.teams


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(lambda p: p[0] != p[1]),
        unique_by=lambda p: (min(p), max(p)),
        max_size=20,
    ),
    st.data(),
)
def test_negate_is_an_involution(pairs, data):
    flags = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    lk = labeling([claim(u, v, dep) for (u, v), dep in zip(pairs, data.draw(flags))], (1, 2, 3), data.draw(flags))
    assert negate_passthrough(negate_passthrough(lk)) == lk


def test_weighted_claim_confidence_range():
    for conf in (0.0, 1.2, float("nan")):
        with pytest.raises(ConfigError, match="confidence must lie in"):
            _kb((dependent(0, 1), conf))
        with pytest.raises(ConfigError, match="confidence must lie in"):
            _kb().extended(0, 1, True, conf)
    assert weighted_claims(_kb((dependent(0, 1), 1.0))) == [(dependent(0, 1), 1.0)]


def test_knowledge_base_rejects_duplicate_pairs():
    with pytest.raises(ConfigError, match=r"more than one claim for pair \(0, 1\)"):
        _kb((dependent(0, 1), 0.7), (independent(1, 0), 0.9))


def test_knowledge_base_round_trips_json():
    kb = _kb((independent(5, 2), 0.6), (dependent(0, 1), 0.7))
    assert KnowledgeBase.from_json(kb.to_json()) == kb
    assert kb.to_json() == {"u": [0, 2], "v": [1, 5], "dep": [True, False], "conf": [0.7, 0.6]}
    assert weighted_claims(kb) == [(dependent(0, 1), 0.7), (independent(2, 5), 0.6)]
    assert KnowledgeBase.from_json({"u": [5, 1], "v": [2, 0], "dep": [False, True], "conf": [0.6, 0.7]}) == kb


@st.composite
def knowledge_bases(draw):
    ids = st.integers(0, 40)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=30))
    claims = {}
    for u, v in pairs:
        c = claim(u, v, draw(st.booleans()))
        claims.setdefault((c.u, c.v), (c, draw(st.floats(5e-324, 1.0))))
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
    ("v", [0, 2], "variable ids must lie below 2\\*\\*31, be non-negative and differ"),
    ("u", [-1, 0], "variable ids must lie below 2\\*\\*31, be non-negative and differ"),
    ("v", [1, 2**31], "variable ids must lie below 2\\*\\*31, be non-negative and differ"),
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


@pytest.mark.parametrize("pair", [(2**31, 2**31 + 1), (2**32 - 2, 2**32 - 1)])
def test_knowledge_base_from_json_rejects_ids_whose_key_would_reach_the_sign_bit(pair):
    # The smaller id of each pair, shifted 32 bits, would wrap into the int64 sign bit.
    doc = {"u": [pair[0], 3], "v": [pair[1], 4], "dep": [True, False], "conf": [0.9, 0.8]}
    with pytest.raises(ConfigError, match=r"variable ids must lie below 2\*\*31, be non-negative and differ"):
        KnowledgeBase.from_json(doc)
    largest = {"u": [2**31 - 2, 3], "v": [2**31 - 1, 4], "dep": [True, False], "conf": [0.9, 0.8]}
    assert KnowledgeBase.from_json(largest).to_json()["u"] == [3, 2**31 - 2]


def test_knowledge_base_sha256_hashes_the_documented_layout():
    header = b"ktsim knowledge base: keys <i8, dep u1, conf <f8\n"
    kb = _kb((independent(5, 2), 0.6), (dependent(0, 1), 0.7))
    data = header + struct.pack("<2q", 0 << 32 | 1, 2 << 32 | 5) + bytes([1, 0]) + struct.pack("<2d", 0.7, 0.6)
    assert kb.sha256() == hashlib.sha256(data).hexdigest()
    assert _kb().sha256() == hashlib.sha256(header).hexdigest()


@settings(max_examples=50, deadline=None)
@given(knowledge_bases())
@example(_kb())
def test_equal_knowledge_bases_hash_equal(kb):
    assert KnowledgeBase.from_json(kb.to_json()).sha256() == kb.sha256()


@pytest.mark.parametrize(("column", "change"), [
    ("conf", lambda conf: np.nextafter(conf, 0.0)),
    ("dep", lambda dep: not dep),
    ("keys", lambda key: key + 1),
], ids=["conf-one-ulp", "dep-flipped", "key-changed"])
def test_any_change_to_a_claim_changes_the_sha256(column, change):
    kb = _kb((dependent(0, 1), 0.7), (independent(2, 5), 0.6))
    columns = {name: getattr(kb, name).copy() for name in kb.COLUMNS}
    columns[column][0] = change(columns[column][0])
    moved = KnowledgeBase.from_arrays(*columns.values())
    assert moved != kb
    assert moved.sha256() != kb.sha256()


# ---------------------------------------------------------------------------
# Ground truth construction
# ---------------------------------------------------------------------------

def test_forest_with_tree_count_equal_m_has_no_edges():
    gt = build_ground_truth(2, 2, 0.9, np.random.default_rng(0))
    assert gt.parents == (None, None)
    assert true_claims(gt) == [independent(0, 1)]


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
        claims = {(c.u, c.v): c.dep for c in true_claims(gt)}
        assert len(claims) == m * (m - 1) // 2
        assert all(in_k(Claim(u, v, dep), gt) for (u, v), dep in claims.items())
        for u in range(m):
            for v in range(u + 1, m):
                assert claims[(u, v)] == dsu.connected(u, v)


def test_forest_counts_match_brute_force_enumeration():
    # Independent oracle: enumerate every acyclic edge subset on n labeled
    # vertices and bucket by component count, then compare with the closed
    # form the sampler draws from.
    from itertools import combinations as combos

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


# The forest counts as they were built before the closed form, by a
# bottom-up big-integer recursion over the size of the tree through the
# lowest vertex: the reference the closed form and its draws must reproduce.


@lru_cache(maxsize=None)
def _ref_tree_count_on(n: int) -> int:
    # Cayley: n^(n-2) labeled trees on n >= 2 vertices, one on a single vertex.
    return 1 if n <= 2 else n ** (n - 2)


def _ref_first_tree_weights(n: int, k: int, fewer: dict[int, int]) -> Iterator[int]:
    """For s = 1 .. n-k+1, the number of labeled forests on n vertices with k
    trees whose tree through the lowest vertex has s vertices: its other s-1
    vertices, a tree on them, and one of ``fewer[n - s]`` (k-1)-tree forests
    on the rest."""
    for s in range(1, n - k + 2):
        yield math.comb(n - 1, s - 1) * _ref_tree_count_on(s) * fewer[n - s]


@lru_cache(maxsize=None)
def _ref_forest_table(m: int, tree_count: int) -> tuple[dict[int, int], ...]:
    """``table[k][n]``: labeled forests on n vertices with exactly k trees, for
    every (n, k) that sampling a ``tree_count``-tree forest on m vertices
    reaches. Built bottom-up, one tree count at a time; n - k never exceeds
    m - tree_count, and the top count only needs n = m."""
    spare = m - tree_count
    table = [{n: int(n == 0) for n in range(spare + 1)}]
    for k in range(1, tree_count + 1):
        sizes = range(m if k == tree_count else k, k + spare + 1)
        if k == 1:
            table.append({n: _ref_tree_count_on(n) for n in sizes})
        else:
            table.append({n: sum(_ref_first_tree_weights(n, k, table[k - 1])) for n in sizes})
    return tuple(table)


forest_shapes = st.integers(1, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m)))


@settings(max_examples=200, deadline=None)
@given(forest_shapes)
def test_closed_form_forest_counts_match_the_recursion(shape):
    table = _ref_forest_table(*shape)
    for k in range(1, len(table)):
        for n, count in table[k].items():
            assert _forest_count(n, k) == count


# The forest sampler as it was written with edge lists and one global
# breadth-first re-rooting, and GroundTruth's walks over explicit roots and
# children: independent references for the rooted sampler and its one-pass
# order and tree ids.


def _ref_decode_pruefer(seq, size):
    degree = [1] * size
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(size) if degree[i] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return edges


def _ref_random_tree_edges(labels, rng):
    s = len(labels)
    if s == 1:
        return []
    if s == 2:
        return [(labels[0], labels[1])]
    seq = [int(x) for x in rng.integers(0, s, size=s - 2)]
    return [(labels[a], labels[b]) for a, b in _ref_decode_pruefer(seq, s)]


def _ref_sample_forest_parents(m, tree_count, rng):
    table = _ref_forest_table(m, tree_count)
    remaining = list(range(m))
    k = tree_count
    adjacency = [[] for _ in range(m)]
    while remaining:
        n = len(remaining)
        anchor = remaining[0]
        r = knowledge._rand_below(rng, table[k][n])
        acc = 0
        size = n - k + 1
        for s, weight in enumerate(_ref_first_tree_weights(n, k, table[k - 1]), start=1):
            acc += weight
            if r < acc:
                size = s
                break
        others = remaining[1:]
        if size > 1:
            picked = rng.choice(len(others), size=size - 1, replace=False)
            members = sorted([anchor] + [others[int(i)] for i in picked])
        else:
            members = [anchor]
        for a, b in _ref_random_tree_edges(members, rng):
            adjacency[a].append(b)
            adjacency[b].append(a)
        member_set = set(members)
        remaining = [v for v in remaining if v not in member_set]
        k -= 1

    # Root every component at its smallest vertex.
    parents = [None] * m
    seen = [False] * m
    for v in range(m):
        if seen[v]:
            continue
        seen[v] = True
        queue = [v]
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(adjacency[cur]):
                if not seen[nxt]:
                    seen[nxt] = True
                    parents[nxt] = cur
                    queue.append(nxt)
    return tuple(parents)


def _ref_walks(gt):
    """``topo_order`` by a queue from the sorted roots, and ``tree_ids`` by a
    depth-first walk from each root in turn."""
    roots = tuple(v for v, p in enumerate(gt.parents) if p is None)
    kids = [[] for _ in range(gt.m)]
    for v, p in enumerate(gt.parents):
        if p is not None:
            kids[p].append(v)
    children = tuple(tuple(sorted(k)) for k in kids)
    order = []
    queue = list(roots)
    while queue:
        v = queue.pop(0)
        order.append(v)
        queue.extend(children[v])
    ids = [-1] * gt.m
    for tree_index, root in enumerate(roots):
        stack = [root]
        while stack:
            v = stack.pop()
            ids[v] = tree_index
            stack.extend(children[v])
    return tuple(order), tuple(ids), len(roots)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))), st.integers(0, 2**64 - 1))
def test_rooted_sampler_draws_the_edge_list_forest(shape, seed):
    m, tree_count = shape
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    parents = knowledge._sample_forest_parents(m, tree_count, rng)
    assert parents == _ref_sample_forest_parents(m, tree_count, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    gt = GroundTruth(m, parents, 0.9)
    assert (gt.topo_order, gt.tree_ids, gt.tree_count) == _ref_walks(gt)
    assert gt.tree_count == tree_count


# sha256 of ``repr(_sample_forest_parents(m, k, default_rng(0)))`` as the
# recursion drew it, at shapes beyond the property above; pinned, since the
# recursion takes up to 8 s per shape.
LARGE_FOREST_SHA256 = {
    (300, 3): "03fc49e47d58fb60af64a1df02c228174502cfa415d991c2ae021829df9a340a",
    (300, 10): "72d3662664ab4fe74c0d6f8be6ce45094db53e1d8507d23b53a1ee91669fa9f4",
    (320, 160): "ccfd53c0575423b35e07476cbe06b9949b9953c4dfe23f3beb5f2984a05bc356",
    (843, 3): "1d920bced748813b4b01e5f4073cb3c217836477d515c22770b8913688e1687b",
    (1200, 1123): "43a36c2cabc58c38376b9d98f31f8684fb85b38eeb89e6fd1878fa6a397d8624",
}


@pytest.mark.parametrize("m,k", list(LARGE_FOREST_SHA256))
def test_large_forests_are_the_recursion_draws(m, k):
    parents = knowledge._sample_forest_parents(m, k, np.random.default_rng(0))
    assert hashlib.sha256(repr(parents).encode()).hexdigest() == LARGE_FOREST_SHA256[m, k]


@st.composite
def rooted_forests(draw):
    """Parents of a forest with any roots: vertices join in a drawn order,
    each a new root or a child of a vertex that joined before it."""
    m = draw(st.integers(1, 30))
    joined = draw(st.permutations(range(m)))
    parents = [None] * m
    for place, v in enumerate(joined[1:], start=1):
        parents[v] = draw(st.one_of(st.none(), st.sampled_from(joined[:place])))
    return parents


@example([3, None, 1, None, 2])
@given(rooted_forests())
def test_order_and_tree_ids_match_the_queue_and_stack_walks(parents):
    gt = GroundTruth(len(parents), parents, 0.9)
    assert (gt.topo_order, gt.tree_ids, gt.tree_count) == _ref_walks(gt)


def test_trees_are_numbered_by_their_roots_not_their_smallest_vertices():
    # Tree {0, 3} is rooted at 3 and tree {1, 2, 4} at 1, so tree 0 is the one through 1.
    gt = GroundTruth(5, (3, None, 1, None, 2), 0.9)
    assert gt.topo_order == (1, 3, 2, 0, 4)
    assert gt.tree_ids == (1, 0, 0, 1, 0)
    assert gt.tree_count == 2


def test_k_and_complement_partition_all_claims():
    gt = build_ground_truth(10, 3, 0.9, np.random.default_rng(3))
    K = set(true_claims(gt))
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
    K = set(claims_of(sample_agent_prior(gt, AgentSpec(coverage=1.0, accuracy=1.0), rng)))
    assert len(K) == 66
    for u in range(gt.m):
        for v in range(u + 1, gt.m):
            for dep in (True, False):
                c = Claim(u, v, dep)
                assert in_k(c, gt) == (c in K)


def test_membership_range_check():
    gt = chain_gt(3)
    with pytest.raises(ConfigError, match="outside the variable range"):
        gt.same_tree_keys(pair_keys([(0, 9)]))


# ---------------------------------------------------------------------------
# Agent priors
# ---------------------------------------------------------------------------

def test_zero_coverage_gives_empty_prior():
    gt = build_ground_truth(8, 2, 0.9, np.random.default_rng(5))
    kb = sample_agent_prior(gt, AgentSpec(coverage=0.0, accuracy=0.9), np.random.default_rng(6))
    assert len(kb) == 0


def test_full_coverage_full_accuracy_reproduces_k():
    gt = build_ground_truth(8, 2, 0.9, np.random.default_rng(5))
    kb = sample_agent_prior(gt, AgentSpec(coverage=1.0, accuracy=1.0), np.random.default_rng(6))
    assert claims_of(kb) == true_claims(gt)
    assert all(0.5 <= conf <= 1.0 for conf in kb.conf.tolist())


def test_prior_accuracy_fraction_matches_binomial_expectation():
    # m = 142 gives 10011 pairs; at coverage 0.5 / accuracy 0.8 the observed
    # true fraction should sit within 0.8 +/- 0.02 (binomial tolerance).
    rng = np.random.default_rng(99)
    gt = build_ground_truth(142, 3, 0.9, rng)
    kb = sample_agent_prior(gt, AgentSpec(coverage=0.5, accuracy=0.8), rng)
    truths = [in_k(c, gt) for c in claims_of(kb)]
    frac = sum(truths) / len(truths)
    assert abs(frac - 0.8) < 0.02
    assert abs(len(kb) / 10011 - 0.5) < 0.02


def reference_agent_prior(gt, agents, rng):
    """``(claim, confidence)`` of every covered pair, pair by pair: one
    coverage draw for every pair in ``combinations`` order, then one truth
    draw and then one confidence draw for each covered pair, in that order.
    A true claim is Dependent exactly when the pair shares a tree."""
    forest = DisjointSet(gt.m)
    for v, p in enumerate(gt.parents):
        if p is not None:
            forest.union(v, p)
    pairs = [(u, v) for u in range(gt.m) for v in range(u + 1, gt.m)]
    covered = [pair for pair, x in zip(pairs, rng.random(len(pairs)).tolist()) if x < agents.coverage]
    truthful = [x < agents.accuracy for x in rng.random(len(covered)).tolist()]
    confidence = rng.uniform(0.5, 1.0, len(covered)).tolist()
    return [
        (Claim(u, v, (forest.find(u) == forest.find(v)) == t), c)
        for (u, v), t, c in zip(covered, truthful, confidence, strict=True)
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.sampled_from([0.0, 0.85, 1.0]),
    st.integers(0, 2**32 - 1),
)
@example((30, 3), 0.2, 0.85, 1)
@example((1, 1), 1.0, 1.0, 2)
def test_agent_prior_matches_the_pair_by_pair_reference(shape, coverage, accuracy, seed):
    gt = build_ground_truth(*shape, 0.9, np.random.default_rng(seed))
    agents = AgentSpec(coverage=coverage, accuracy=accuracy)
    rng, reference = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert weighted_claims(sample_agent_prior(gt, agents, rng)) == reference_agent_prior(gt, agents, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# Rectification
# ---------------------------------------------------------------------------

def test_rectify_majority_wins_with_mean_confidence():
    merged = rectify([
        _kb((dependent(0, 1), 0.6)),
        _kb((independent(0, 1), 0.9)),
        _kb((dependent(0, 1), 0.8)),
    ])
    [(claim, conf)] = weighted_claims(merged)
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
    bases = [sample_agent_prior(gt, AgentSpec(coverage=0.6, accuracy=0.7), rng) for _ in range(5)]
    merged = rectify(bases)
    pairs = [(c.u, c.v) for c in claims_of(merged)]
    assert len(pairs) == len(set(pairs))


CHARGED_SHAPES = [(2, 2), (6, 2), (12, 5), (30, 3), (40, 40), (60, 17), (30, 1), (50, 2)]


def _charged_units(m, k):
    # The table's products (row j >= 2 took one per first-tree size, n - j + 1 of them per
    # entry n), m - k + 1 powers n ** (n - 2) and m first-tree weights.
    products = sum(n - j + 1 for j in range(2, k + 1) for n in _ref_forest_table(m, k)[j])
    return products + (m - k + 1) + m


@pytest.mark.parametrize("m,k", CHARGED_SHAPES)
def test_forest_table_work_counts_the_products_of_the_table(m, k):
    bits = (m - k + 1) * m.bit_length()
    wide = knowledge._WIDE_COUNT_BITS
    assert forest_table_work(m, k) == _charged_units(m, k) * bits * max(bits, wide) // wide


@pytest.mark.parametrize("m,k", CHARGED_SHAPES)
def test_forest_work_charge_covers_the_counts_and_weights_of_a_draw(m, k, monkeypatch):
    # A draw takes one first-tree weight per vertex of every tree but the last and computes
    # each forest count it reads once, so the charge bounds both together.
    taken = []
    first_tree_weights = knowledge._first_tree_weights

    def counted(*args):
        for weight in first_tree_weights(*args):
            taken.append(weight)
            yield weight

    monkeypatch.setattr(knowledge, "_first_tree_weights", counted)
    _forest_count.cache_clear()
    gt = GroundTruth(m, knowledge._sample_forest_parents(m, k, np.random.default_rng(0)), 0.9)
    last = gt.tree_ids.count(k - 1)
    assert len(taken) == m - last
    assert _forest_count.cache_info().misses + len(taken) <= _charged_units(m, k)


def test_forest_count_cache_is_bounded_and_holds_a_benchmark_draw():
    # A (2500, 2) draw reads 2500 one-tree counts of up to 28,000 bits each.
    _forest_count.cache_clear()
    knowledge._sample_forest_parents(2500, 2, np.random.default_rng(0))
    info = _forest_count.cache_info()
    assert info.currsize <= info.maxsize
    # Every count a (300, 3) draw reads stays cached for the next one.
    _forest_count.cache_clear()
    knowledge._sample_forest_parents(300, 3, np.random.default_rng(0))
    misses = _forest_count.cache_info().misses
    knowledge._sample_forest_parents(300, 3, np.random.default_rng(0))
    assert _forest_count.cache_info().misses == misses


def test_forest_work_limit_sits_between_accepted_and_rejected_configs():
    # The charge was fitted to the table that once held the forest counts, which took 7.6 s to
    # build and draw from at (843, 3) and 8.4 s at (4594, 2) on a 2-core x86-64 machine. The
    # closed form draws one forest in 0.06 s at (843, 3), 4.6 s at (4594, 2), 0.17 s at
    # (1200, 1123), 0.07 s at (320, 160) and 0.03 s at (5258, 1): a conservative bound, kept
    # until validation bounds the memory of the knowledge arrays.
    assert forest_table_work(1200, 1200) < forest_table_work(843, 3) <= FOREST_WORK_LIMIT
    assert FOREST_WORK_LIMIT < forest_table_work(844, 3) < forest_table_work(1200, 1122)
    assert forest_table_work(1200, 1123) <= FOREST_WORK_LIMIT
    assert forest_table_work(5000, 1) <= FOREST_WORK_LIMIT < forest_table_work(5000, 2)
