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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .records import Record


def check_confidence(name: str, value: float) -> None:
    if not (0.0 < value <= 1.0):
        raise ConfigError(f"{name} must lie in (0, 1], got {value}")


#: Bits a variable id occupies in a pair key ``u << 32 | v``.
_KEY_SHIFT = 32
_KEY_MASK = (1 << _KEY_SHIFT) - 1


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both variable ids of every pair key."""
    return keys >> _KEY_SHIFT, keys & _KEY_MASK


def join_keys(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Pair key ``u << 32 | v`` of every pair {us[i], vs[i]} of int64 ids,
    smaller id in the high bits, so ascending keys give the ``combinations``
    order of pairs."""
    return np.minimum(us, vs) << _KEY_SHIFT | np.maximum(us, vs)


def sorted_pair_keys(us: Sequence[int], vs: Sequence[int], holder: str) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the pairs {us[i], vs[i]} in ascending order, and the stable
    argsort that orders them. Ids that are not integers, a pair of equal ids,
    an id below 0 or of 2**32 or more, and a pair given twice raise
    ConfigError naming ``holder``."""
    us, vs = np.asarray(us), np.asarray(vs)
    for ids in (us, vs):
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ConfigError(f"{holder} variable ids must be integers in [0, 2**{_KEY_SHIFT})")
    bad = np.flatnonzero((us == vs) | (np.minimum(us, vs) < 0) | (np.maximum(us, vs) > _KEY_MASK))
    if bad.size:
        pair = (int(us[bad[0]]), int(vs[bad[0]]))
        raise ConfigError(
            f"{holder} pair {pair}: variable ids must lie below 2**{_KEY_SHIFT}, be non-negative and differ"
        )
    keys = join_keys(us.astype(np.int64), vs.astype(np.int64))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        u, v = split_keys(keys[repeated[:1]])
        raise ConfigError(f"{holder} holds more than one claim for pair {(int(u[0]), int(v[0]))}")
    return keys, order


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class KnowledgeBase:
    """Conflict-free collection of weighted claims, at most one per pair.

    Stored as three aligned read-only arrays sorted by pair key (see
    ``join_keys``): ``keys`` (int64), ``dep`` (True for a Dependent claim) and
    ``conf`` (float64 confidence), so any serialization derived from a
    knowledge base is deterministic. ``from_arrays`` trusts its input;
    ``from_json`` and ``extended`` check theirs.
    """

    __slots__ = ("keys", "dep", "conf")

    @classmethod
    def from_arrays(cls, keys: np.ndarray, dep: np.ndarray, conf: np.ndarray) -> "KnowledgeBase":
        """Wrap aligned arrays whose keys are already strictly ascending."""
        kb = cls.__new__(cls)
        kb.keys, kb.dep, kb.conf = _frozen(keys), _frozen(dep), _frozen(conf)
        return kb

    def __len__(self) -> int:
        return self.keys.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.dep, other.dep)
            and np.array_equal(self.conf, other.conf)
        )

    def __repr__(self) -> str:
        return f"KnowledgeBase({len(self)} claims)"

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

    def to_json(self) -> dict:
        """Aligned columns in key order: ``u``, ``v``, ``dep`` (bool) and ``conf``."""
        us, vs = split_keys(self.keys)
        return {"u": us.tolist(), "v": vs.tolist(), "dep": self.dep.tolist(), "conf": self.conf.tolist()}

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
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, p in enumerate(self.parents) if p is None)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.m)]
        for v, p in enumerate(self.parents):
            if p is not None:
                kids[p].append(v)
        return tuple(tuple(sorted(k)) for k in kids)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        # Breadth-first from roots in ascending order; parents precede children.
        order: list[int] = []
        queue = list(self.roots)
        while queue:
            v = queue.pop(0)
            order.append(v)
            queue.extend(self.children[v])
        return tuple(order)

    @cached_property
    def tree_ids(self) -> tuple[int, ...]:
        ids = [-1] * self.m
        for tree_index, root in enumerate(self.roots):
            stack = [root]
            while stack:
                v = stack.pop()
                ids[v] = tree_index
                stack.extend(self.children[v])
        return tuple(ids)

    @cached_property
    def _tree_array(self) -> np.ndarray:
        return _frozen(np.array(self.tree_ids, dtype=np.int64))

    @property
    def tree_count(self) -> int:
        return len(self.roots)

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

@lru_cache(maxsize=None)
def _tree_count_on(n: int) -> int:
    # Cayley: n^(n-2) labeled trees on n >= 2 vertices, one on a single vertex.
    return 1 if n <= 2 else n ** (n - 2)


def _first_tree_weights(n: int, k: int, fewer: dict[int, int]) -> Iterator[int]:
    """For s = 1 .. n-k+1, the number of labeled forests on n vertices with k
    trees whose tree through the lowest vertex has s vertices: its other s-1
    vertices, a tree on them, and one of ``fewer[n - s]`` (k-1)-tree forests
    on the rest."""
    for s in range(1, n - k + 2):
        yield math.comb(n - 1, s - 1) * _tree_count_on(s) * fewer[n - s]


@lru_cache(maxsize=None)
def _forest_table(m: int, tree_count: int) -> tuple[dict[int, int], ...]:
    """``table[k][n]``: labeled forests on n vertices with exactly k trees, for
    every (n, k) that sampling a ``tree_count``-tree forest on m vertices
    reaches. Built bottom-up, one tree count at a time; n - k never exceeds
    m - tree_count, and the top count only needs n = m."""
    spare = m - tree_count
    table = [{n: int(n == 0) for n in range(spare + 1)}]
    for k in range(1, tree_count + 1):
        sizes = range(m if k == tree_count else k, k + spare + 1)
        if k == 1:
            table.append({n: _tree_count_on(n) for n in sizes})
        else:
            table.append({n: sum(_first_tree_weights(n, k, table[k - 1])) for n in sizes})
    return tuple(table)


#: Largest ``forest_table_work`` a config may ask for. The work tracks the
#: time to build the table and draw one forest at about 3 s per 10**9 on one
#: core of a 2-core x86-64 machine (Python 3.11), so the limit keeps it to
#: about 10 s.
FOREST_WORK_LIMIT = 3 * 10**9

#: Bit length past which a product of two forest counts costs more than its
#: length (CPython multiplies them by Karatsuba); charging b * b / 2**14 per
#: b-bit product there came within about 20% of the measured two-tree times.
_WIDE_COUNT_BITS = 2**14


def forest_table_work(m: int, tree_count: int) -> int:
    """Closed-form estimate of the work of ``_forest_table(m, tree_count)``
    and of one forest draw from it, O(1). It counts the table's big-integer
    products (one per first-tree size s of each (n, k) it fills, none when
    there is one tree), the one-tree row's ``n ** (n - 2)`` for n up to
    ``m - tree_count + 1``, and the m first-tree weights one draw takes. Each
    costs the bit length b of the forest counts, which grows like
    ``(m - tree_count) * log2(m)``, times ``b / _WIDE_COUNT_BITS`` once b
    passes it."""
    spare = m - tree_count
    products = 0 if tree_count == 1 else max(tree_count - 2, 0) * (spare + 1) * (spare + 2) // 2 + spare + 1
    bits = (spare + 1) * m.bit_length()
    return (products + spare + 1 + m) * bits * max(bits, _WIDE_COUNT_BITS) // _WIDE_COUNT_BITS


def _forest_count(n: int, k: int) -> int:
    """Number of labeled forests on n vertices with exactly k (unrooted) trees."""
    if k < 0 or k > n:
        return 0
    return _forest_table(n, k)[k][n]


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


def _decode_pruefer(seq: Sequence[int], size: int) -> list[tuple[int, int]]:
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


def _random_tree_edges(labels: Sequence[int], rng: np.random.Generator) -> list[tuple[int, int]]:
    s = len(labels)
    if s == 1:
        return []
    if s == 2:
        return [(labels[0], labels[1])]
    seq = [int(x) for x in rng.integers(0, s, size=s - 2)]
    return [(labels[a], labels[b]) for a, b in _decode_pruefer(seq, s)]


def _sample_forest_parents(m: int, tree_count: int, rng: np.random.Generator) -> tuple[Optional[int], ...]:
    """Uniformly random labeled forest with exactly ``tree_count`` trees.

    Sequential decomposition over the component containing the lowest
    remaining label, with component sizes drawn proportionally to exact
    counts, members as a uniform subset, and the tree itself decoded from a
    uniform Pruefer sequence.
    """
    table = _forest_table(m, tree_count)
    remaining = list(range(m))
    k = tree_count
    adjacency: list[list[int]] = [[] for _ in range(m)]
    while remaining:
        n = len(remaining)
        anchor = remaining[0]
        r = _rand_below(rng, table[k][n])
        acc = 0
        size = n - k + 1
        for s, weight in enumerate(_first_tree_weights(n, k, table[k - 1]), start=1):
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
        for a, b in _random_tree_edges(members, rng):
            adjacency[a].append(b)
            adjacency[b].append(a)
        member_set = set(members)
        remaining = [v for v in remaining if v not in member_set]
        k -= 1

    # Root every component at its smallest vertex.
    parents: list[Optional[int]] = [None] * m
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


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def build_ground_truth(m: int, tree_count: int, p_stay: float, rng: np.random.Generator) -> GroundTruth:
    """Sample a uniformly random labeled forest spanning all m variables."""
    if m < 1:
        raise ConfigError(f"variable count must be >= 1, got {m}")
    if not (1 <= tree_count <= m):
        raise ConfigError(f"tree_count must lie in [1, m={m}], got {tree_count}")
    if not (0.5 < p_stay < 1.0):
        raise ConfigError(f"p_stay must lie in (0.5, 1), got {p_stay}")
    return GroundTruth(m, _sample_forest_parents(m, tree_count, rng), p_stay)


@lru_cache(maxsize=8)
def all_pair_keys(m: int) -> np.ndarray:
    """Key of every pair of ``m`` variables, in ``combinations`` order."""
    us, vs = np.triu_indices(m, 1)
    return _frozen(us.astype(np.int64) << _KEY_SHIFT | vs)


def sample_agent_prior(
    gt: GroundTruth,
    coverage: float,
    accuracy: float,
    rng: np.random.Generator,
) -> KnowledgeBase:
    """Random prior: each pair independently covered, each covered claim true
    with probability ``accuracy`` (else negated), confidence uniform [0.5, 1].
    """
    if not (0.0 <= coverage <= 1.0):
        raise ConfigError(f"coverage must lie in [0, 1], got {coverage}")
    if not (0.0 <= accuracy <= 1.0):
        raise ConfigError(f"accuracy must lie in [0, 1], got {accuracy}")
    keys = all_pair_keys(gt.m)
    include = rng.random(keys.size) < coverage
    truthful = rng.random(keys.size) < accuracy
    confidence = rng.uniform(0.5, 1.0, keys.size)
    dep = gt.same_tree_keys(keys) == truthful
    return KnowledgeBase.from_arrays(keys[include], dep[include], confidence[include])


def sample_agent_pool(
    gt: GroundTruth,
    count: int,
    coverage: float,
    accuracy: float,
    rng: np.random.Generator,
) -> AgentPool:
    if count < 1:
        raise ConfigError(f"agent count must be >= 1, got {count}")
    return AgentPool(tuple(sample_agent_prior(gt, coverage, accuracy, rng) for _ in range(count)))


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
