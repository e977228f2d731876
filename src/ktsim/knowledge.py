"""Knowledge universe: dependence claims over a hidden forest of binary variables.

The simulated world is a set of ``m`` binary variables arranged in a forest.
Two variables are genuinely dependent exactly when they sit in the same tree,
so the full set of true claims is finite and enumerable: one claim per
unordered variable pair, polarity ``dep`` when the pair shares a tree and
``indep`` otherwise. False knowledge is the polarity complement of true
knowledge, which makes membership of any claim exactly decidable by the
simulator (and only by the simulator; agents never see the forest).

Agents hold weighted subsets of the claim universe as priors, and teams merge
member priors by strict majority vote (rectify).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .records import Record, jsonable


def check_confidence(name: str, value: float) -> None:
    if not (0.0 < value <= 1.0):
        raise ConfigError(f"{name} must lie in (0, 1], got {value}")


def check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")


def check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


#: Bits a variable id occupies in a pair key ``u << 32 | v``.
_KEY_SHIFT = 32
_KEY_MASK = (1 << _KEY_SHIFT) - 1
#: Ids lie below 2**31, so the smaller id of a pair, shifted, stays clear of the int64 sign bit.
_ID_BITS = 31


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both variable ids of every pair key."""
    return keys >> _KEY_SHIFT, keys & _KEY_MASK


def join_keys(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Pair key ``u << 32 | v`` of every pair {us[i], vs[i]} of int64 ids
    below 2**31, smaller id in the high bits, so ascending keys give the
    ``combinations`` order of pairs."""
    return np.minimum(us, vs) << _KEY_SHIFT | np.maximum(us, vs)


def sorted_pair_keys(us: Sequence[int], vs: Sequence[int], holder: str) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the pairs {us[i], vs[i]} in ascending order, and the input
    row of each key. Ids that are not integers, a pair of equal ids,
    an id below 0 or of 2**31 or more, and a pair given twice raise
    ConfigError naming ``holder``."""
    us, vs = np.asarray(us), np.asarray(vs)
    for ids in (us, vs):
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ConfigError(f"{holder} variable ids must be integers in [0, 2**{_ID_BITS})")
    bad = np.flatnonzero((us == vs) | (np.minimum(us, vs) < 0) | (np.maximum(us, vs) >= 1 << _ID_BITS))
    if bad.size:
        pair = (int(us[bad[0]]), int(vs[bad[0]]))
        raise ConfigError(
            f"{holder} pair {pair}: variable ids must lie below 2**{_ID_BITS}, be non-negative and differ"
        )
    keys = join_keys(us.astype(np.int64), vs.astype(np.int64))
    keys, order, counts = np.unique(keys, return_index=True, return_counts=True)
    if np.any(counts > 1):
        u, v = split_keys(keys[counts > 1][:1])
        raise ConfigError(f"{holder} holds more than one claim for pair {(int(u[0]), int(v[0]))}")
    return keys, order


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class PairColumns:
    """Aligned read-only numpy columns keyed by pair, plus plain fields.

    A subclass names its array columns in ``COLUMNS``, ``keys`` (int64 pair
    keys, see ``join_keys``) first, and its plain values in ``FIELDS``.
    ``from_arrays`` is the one trusted constructor: it freezes every column
    and checks nothing. Two objects are equal when they are of one class and
    every column and field is equal, so none is hashable. ``to_json`` writes
    ``keys`` as ``u`` and ``v``, the other columns as lists, then the fields.
    """

    __slots__ = ()
    COLUMNS: tuple[str, ...]
    FIELDS: tuple[str, ...] = ()

    @classmethod
    def from_arrays(cls, *values):
        """Wrap the columns and then the fields, in ``COLUMNS + FIELDS`` order."""
        obj = cls.__new__(cls)
        for name, value in zip(cls.COLUMNS + cls.FIELDS, values, strict=True):
            setattr(obj, name, _frozen(value) if name in cls.COLUMNS else value)
        return obj

    def __len__(self) -> int:
        return self.keys.shape[0]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.FIELDS) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.COLUMNS
        )

    def to_json(self) -> dict:
        us, vs = split_keys(self.keys)
        return {
            "u": us.tolist(), "v": vs.tolist(),
            **{name: getattr(self, name).tolist() for name in self.COLUMNS[1:]},
            **{name: getattr(self, name) for name in self.FIELDS},
        }


#: First line of the bytes ``KnowledgeBase.sha256`` hashes: the column layout.
_SHA256_HEADER = b"ktsim knowledge base: keys <i8, dep u1, conf <f8\n"


class KnowledgeBase(PairColumns):
    """Conflict-free collection of weighted claims, at most one per pair:
    ``keys`` in ascending order, ``dep`` (True for a Dependent claim) and
    ``conf`` (float64 confidence), so any serialization derived from a
    knowledge base is deterministic. ``from_json`` and ``extended`` check
    their input.
    """

    COLUMNS = ("keys", "dep", "conf")
    __slots__ = COLUMNS

    def __repr__(self) -> str:
        return f"KnowledgeBase({len(self)} claims)"

    def sha256(self) -> str:
        """Hex sha256 of the header line ``_SHA256_HEADER``, then every key
        as a little-endian int64, every ``dep`` as one byte (1 for a
        Dependent claim, else 0) and every ``conf`` as a little-endian
        float64, each column whole and in pair-key order."""
        h = hashlib.sha256(_SHA256_HEADER)
        for column, dtype in zip((self.keys, self.dep, self.conf), ("<i8", "u1", "<f8")):
            h.update(np.ascontiguousarray(column, dtype=dtype))
        return h.hexdigest()

    def extended(self, u: int, v: int, dep: bool, conf: float) -> "KnowledgeBase":
        """New base with one extra claim; the pair must be free. Makes the
        checks of ``from_json``."""
        us, vs = split_keys(self.keys)
        columns = {"u": np.append(us, u), "v": np.append(vs, v)}
        return KnowledgeBase.from_json({**columns, "dep": np.append(self.dep, dep), "conf": np.append(self.conf, conf)})

    def _rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row of each pair key in this non-empty base (clipped to the last),
        and whether the base holds the key there."""
        rows = np.minimum(np.searchsorted(self.keys, keys), len(self) - 1)
        return rows, self.keys[rows] == keys

    def held(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the pair keys this base holds a claim on."""
        return self._rows(keys)[1] if len(self) else np.zeros(keys.shape, dtype=bool)

    def contradicted(self, keys: np.ndarray, dep: np.ndarray, min_confidence: float) -> np.ndarray:
        """Mask of the claims given as pair keys and polarities that this base
        holds with the opposite polarity and at least ``min_confidence``."""
        if not len(self):
            return np.zeros(keys.shape, dtype=bool)
        rows, held = self._rows(keys)
        return held & (self.conf[rows] >= min_confidence) & (self.dep[rows] != dep)

    @staticmethod
    def from_json(obj: dict) -> "KnowledgeBase":
        """Read ``to_json``'s columns (lists or arrays, claims in any order)
        back, checking every claim."""
        missing = sorted({"u", "v", "dep", "conf"} - obj.keys())
        if missing:
            raise ConfigError(f"knowledge base is missing columns {missing}")
        columns = (obj["u"], obj["v"], obj["dep"], obj["conf"])
        if len({len(column) for column in columns}) != 1:
            raise ConfigError(f"knowledge base columns differ in length: {[len(c) for c in columns]}")
        us, vs, dep, conf = (np.asarray(column) for column in columns)
        if dep.size and dep.dtype != bool:
            raise ConfigError("knowledge base column dep must hold booleans")
        if conf.size and conf.dtype.kind not in "fiu":
            raise ConfigError("knowledge base column conf must hold numbers")
        conf = conf.astype(np.float64)
        bad = np.flatnonzero(~((conf > 0.0) & (conf <= 1.0)))
        if bad.size:
            check_confidence("confidence", float(conf[bad[0]]))
        keys, order = sorted_pair_keys(us, vs, "knowledge base")
        return KnowledgeBase.from_arrays(keys, dep.astype(bool)[order], conf[order])


@dataclass(frozen=True)
class GroundTruth:
    """Forest-structured generative model over ``m`` binary variables.

    ``parents[v]`` is the parent of ``v`` or None for tree roots. Each tree
    root is a fair coin; every child copies its parent's bit with probability
    ``p_stay`` and flips it otherwise. ``p_stay`` must exceed 0.5 so every
    intra-tree pair is genuinely dependent.
    """

    m: int
    parents: tuple[Optional[int], ...]
    p_stay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        if self.m < 1:
            raise ConfigError(f"variable count must be >= 1, got {self.m}")
        if len(self.parents) != self.m:
            raise ConfigError(f"parents has length {len(self.parents)}, expected m={self.m}")
        if not (0.5 < self.p_stay < 1.0):
            raise ConfigError(f"p_stay must lie in (0.5, 1), got {self.p_stay}")
        for v, p in enumerate(self.parents):
            if p is None:
                continue
            if not (0 <= p < self.m) or p == v:
                raise ConfigError(f"parent of variable {v} is invalid: {p}")
        if len(self.topo_order) != self.m:
            raise ConfigError("parent links contain a cycle; structure must be a forest")

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        # Breadth-first from the roots in ascending order, children in
        # ascending order; the loop also visits the vertices it appends.
        children: list[list[int]] = [[] for _ in range(self.m)]
        order = []
        for v, p in enumerate(self.parents):
            (order if p is None else children[p]).append(v)
        for v in order:
            order.extend(children[v])
        return tuple(order)

    @cached_property
    def tree_ids(self) -> tuple[int, ...]:
        # Trees are numbered by their roots in ascending order. The roots
        # lead ``topo_order`` in that order, so a root's place there is its
        # tree's number, and every other vertex follows its parent.
        ids = [0] * self.m
        for place, v in enumerate(self.topo_order):
            p = self.parents[v]
            ids[v] = place if p is None else ids[p]
        return tuple(ids)

    @cached_property
    def _tree_array(self) -> np.ndarray:
        return _frozen(np.array(self.tree_ids, dtype=np.int64))

    @property
    def tree_count(self) -> int:
        return self.parents.count(None)

    def same_tree_keys(self, keys: np.ndarray) -> np.ndarray:
        """Whether each pair key joins two variables of one tree."""
        us, vs = split_keys(keys)
        if vs.size and int(vs.max()) >= self.m:
            raise ConfigError(f"a claim is outside the variable range [0, {self.m})")
        return self._tree_array[us] == self._tree_array[vs]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "parents": [p for p in self.parents],
            "p_stay": self.p_stay,
            "tree_count": self.tree_count,
        }


class Role(Enum):
    EXPERIMENTING = "experimenting"
    MINING = "mining"
    LABELING = "labeling"


@dataclass(frozen=True)
class Team(Record):
    id: int
    role: Role
    members: tuple[int, ...]
    knowledge: KnowledgeBase

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("a team needs at least one member")

    def to_json(self) -> dict:
        """The record's fields, with the knowledge named by its claim count
        and ``sha256`` rather than written out: it is a pure function of the
        run's config and seed, and running them again rebuilds it."""
        doc = {f.name: jsonable(getattr(self, f.name)) for f in fields(self) if f.name != "knowledge"}
        return {**doc, "knowledge": {"claims": len(self.knowledge), "sha256": self.knowledge.sha256()}}


@dataclass(frozen=True)
class AgentSpec(Record):
    """How many agents there are, and the chances that a prior covers a
    pair and that a covered claim is true."""

    count: int = 12
    coverage: float = 0.2
    accuracy: float = 0.85

    def __post_init__(self) -> None:
        check_positive("count", self.count)
        check_probability("coverage", self.coverage)
        check_probability("accuracy", self.accuracy)


@dataclass(frozen=True)
class AgentPool:
    priors: tuple[KnowledgeBase, ...]

    def __post_init__(self) -> None:
        if len(self.priors) < 1:
            raise ConfigError("agent pool must hold at least one agent")

    @property
    def agent_count(self) -> int:
        return len(self.priors)


# ---------------------------------------------------------------------------
# Forest construction
# ---------------------------------------------------------------------------

# Bounded, as counts are big: 1024 entries hold all a draw reads to m ~ 500 (597 at (300, 3)).
@lru_cache(maxsize=1024)
def _forest_count(n: int, k: int) -> int:
    """Labeled forests on n vertices in k trees, 1 <= k <= n, by Renyi's
    formula (J. W. Moon, *Counting Labelled Trees*, 1970): C(n, k) times the
    sum over i <= min(k, n - k) of (-1)^i 2^(k-i) C(k, i) (k + i) perm(n - k,
    i) n^(n-k-i), divided exactly by n 2^k. At k = 1 it is Cayley's n^(n-2)."""
    spare, top = n - k, min(k, n - k)
    total = 0  # the sum divided by n ** (spare - top), by Horner's rule in n
    for i in range(top + 1):
        total = total * n + (-1) ** i * 2 ** (k - i) * math.comb(k, i) * (k + i) * math.perm(spare, i)
    return math.comb(n, k) * total * n ** (spare - top) // (n * 2**k)


def _first_tree_weights(n: int, k: int) -> Iterator[int]:
    """For s = 1 .. n-k+1, the number of labeled forests on n vertices with k
    >= 2 trees whose tree through the lowest vertex has s vertices: its other
    s-1 vertices, a tree on them, and a (k-1)-tree forest on the rest."""
    for s in range(1, n - k + 2):
        yield math.comb(n - 1, s - 1) * _forest_count(s, 1) * _forest_count(n - s, k - 1)


#: Largest ``forest_table_work`` a config may ask for: about 10 s for the
#: big-integer table that once held the forest counts to be built and drawn
#: from, on one core of a 2-core x86-64 machine (Python 3.11).
FOREST_WORK_LIMIT = 3 * 10**9

#: Bit length past which a product of two forest counts costs more than its
#: length (CPython multiplies them by Karatsuba); charging b * b / 2**14 per
#: b-bit product there came within about 20% of the table's two-tree times.
_WIDE_COUNT_BITS = 2**14


def forest_table_work(m: int, tree_count: int) -> int:
    """Closed-form charge for drawing one forest of m vertices in
    ``tree_count`` trees, O(1). It counts the big-integer products of the
    table that once held the forest counts (one per first-tree size s of
    each (n, k) it filled, none when there is one tree), the powers
    ``n ** (n - 2)`` for n up to ``m - tree_count + 1``, and m first-tree
    weights. Each costs the bit length b of the forest counts, which grows
    like ``(m - tree_count) * log2(m)``, times ``b / _WIDE_COUNT_BITS`` once
    b passes it.

    With ``_forest_count`` the charge is a conservative upper bound: a draw
    computes each count it reads once, and one first-tree weight per vertex
    of every tree but the last. At (843, 3), the largest three-tree config,
    a draw takes 0.06 s where the table took 7.6 s. The charge stays as it
    is until validation bounds the memory of the C(m, 2)-long knowledge
    arrays: it alone stops one-tree configs at m = 5258, beyond which those
    arrays can exhaust memory, and an out-of-memory kill has no documented
    exit code."""
    spare = m - tree_count
    products = 0 if tree_count == 1 else max(tree_count - 2, 0) * (spare + 1) * (spare + 2) // 2 + spare + 1
    bits = (spare + 1) * m.bit_length()
    return (products + spare + 1 + m) * bits * max(bits, _WIDE_COUNT_BITS) // _WIDE_COUNT_BITS


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrarily large bound."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    nbits = bound.bit_length()
    nwords = (nbits + 31) // 32
    while True:
        words = rng.integers(0, 1 << 32, size=nwords, dtype=np.uint64)
        r = 0
        for w in words:
            r = (r << 32) | int(w)
        r >>= nwords * 32 - nbits
        if r < bound:
            return r


def _random_rooted_tree(size: int, rng: np.random.Generator) -> list[Optional[int]]:
    """Local parent of each vertex of a uniformly random labeled tree on
    vertices 0 .. size-1, rooted at vertex 0. The tree is decoded from a
    uniform Pruefer sequence: each popped leaf hangs from its sequence entry
    and the last leaf from ``size - 1``, so the decoding is rooted at
    ``size - 1``; reversing the path from 0 to there roots it at 0. Trees of
    one or two vertices draw nothing."""
    parents: list[Optional[int]] = [None] * size
    if size == 1:
        return parents
    seq = rng.integers(0, size, size=size - 2).tolist()
    degree = [1] * size
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(size) if degree[i] == 1]
    heapify(leaves)
    for x in seq:
        parents[heappop(leaves)] = x
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    parents[heappop(leaves)] = size - 1
    child, v = None, 0
    while v is not None:
        parents[v], child, v = child, v, parents[v]
    return parents


def _sample_forest_parents(m: int, tree_count: int, rng: np.random.Generator) -> tuple[Optional[int], ...]:
    """Uniformly random labeled forest with exactly ``tree_count`` trees,
    each rooted at its smallest vertex.

    Sequential decomposition over the component containing the lowest
    remaining label, with component sizes drawn proportionally to exact
    counts, members as a uniform subset, and the tree itself from
    ``_random_rooted_tree``. The last tree takes every remaining vertex, so
    its size is not looked up, though its ``r`` is still drawn.
    """
    remaining = list(range(m))
    parents: list[Optional[int]] = [None] * m
    for k in range(tree_count, 0, -1):
        n = len(remaining)
        anchor = remaining[0]
        r = _rand_below(rng, _forest_count(n, k))
        size = n - k + 1
        if k > 1:
            acc = 0
            for s, weight in enumerate(_first_tree_weights(n, k), start=1):
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
        for v, p in zip(members, _random_rooted_tree(size, rng)):
            if p is not None:
                parents[v] = members[p]
        member_set = set(members)
        remaining = [v for v in remaining if v not in member_set]
    return tuple(parents)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def build_ground_truth(m: int, tree_count: int, p_stay: float, rng: np.random.Generator) -> GroundTruth:
    """Sample a uniformly random labeled forest spanning all m variables;
    ``GroundTruth`` checks m and ``p_stay``."""
    if not (1 <= tree_count <= m):
        raise ConfigError(f"tree_count must lie in [1, m={m}], got {tree_count}")
    return GroundTruth(m, _sample_forest_parents(m, tree_count, rng), p_stay)


@lru_cache(maxsize=8)
def all_pair_keys(m: int) -> np.ndarray:
    """Key of every pair of ``m`` variables, in ``combinations`` order."""
    us, vs = np.triu_indices(m, 1)
    return _frozen(join_keys(us.astype(np.int64), vs.astype(np.int64)))


def sample_agent_prior(gt: GroundTruth, agents: AgentSpec, rng: np.random.Generator) -> KnowledgeBase:
    """Random prior of one of ``agents``: each pair independently covered
    with probability ``agents.coverage``, each covered claim true with
    probability ``agents.accuracy`` (else negated), confidence uniform
    [0.5, 1]. ``AgentSpec`` has checked both probabilities.
    """
    keys = all_pair_keys(gt.m)
    include = rng.random(keys.size) < agents.coverage
    truthful = rng.random(keys.size) < agents.accuracy
    confidence = rng.uniform(0.5, 1.0, keys.size)
    dep = gt.same_tree_keys(keys) == truthful
    return KnowledgeBase.from_arrays(keys[include], dep[include], confidence[include])


def sample_agent_pool(gt: GroundTruth, agents: AgentSpec, rng: np.random.Generator) -> AgentPool:
    return AgentPool(tuple(sample_agent_prior(gt, agents, rng) for _ in range(agents.count)))


def rectify(member_priors: Sequence[KnowledgeBase]) -> KnowledgeBase:
    """Merge member priors into one team knowledge base.

    Per pair, strict majority polarity wins with confidence equal to the mean
    confidence of the agreeing members; exact ties drop the pair entirely.
    The agreeing confidences are summed in member order (``bincount`` adds its
    weights in input order), so the mean is bit-identical to a running sum.
    """
    if not member_priors:
        raise ConfigError("rectify needs at least one knowledge base")
    dep = np.concatenate([kb.dep for kb in member_priors])
    conf = np.concatenate([kb.conf for kb in member_priors])
    keys, slot = np.unique(np.concatenate([kb.keys for kb in member_priors]), return_inverse=True)
    dep_votes = np.bincount(slot[dep], minlength=keys.size)
    ind_votes = np.bincount(slot, minlength=keys.size) - dep_votes
    dep_sum = np.bincount(slot, weights=np.where(dep, conf, 0.0), minlength=keys.size)
    ind_sum = np.bincount(slot, weights=np.where(dep, 0.0, conf), minlength=keys.size)
    won = dep_votes > ind_votes
    keep = dep_votes != ind_votes
    mean = np.where(won, dep_sum, ind_sum)[keep] / np.where(won, dep_votes, ind_votes)[keep]
    return KnowledgeBase.from_arrays(keys[keep], won[keep], mean)
