"""Per-claim references and small fixtures shared by the tests.

The program holds claims only as pair-keyed columns. Tests state claims one
at a time as ``Claim(u, v, dep)`` tuples, with ``u < v`` and ``dep`` True for
a Dependent claim, and build the columns through the program's own readers.
"""

from collections import namedtuple

import numpy as np

from ktsim.knowledge import GroundTruth, KnowledgeBase, all_pair_keys, join_keys, sorted_pair_keys, split_keys
from ktsim.labeling import LabeledKnowledge

#: One claim: its pair, smaller id first, and whether it says Dependent.
Claim = namedtuple("Claim", "u v dep")


def claim(u, v, dep):
    """The claim ``dep`` on the unordered pair {u, v}."""
    return Claim(min(u, v), max(u, v), bool(dep))


def dependent(u, v):
    return claim(u, v, True)


def independent(u, v):
    return claim(u, v, False)


def negate(c):
    """The claim of opposite polarity on the same pair."""
    return c._replace(dep=not c.dep)


def _kb(*weighted):
    """Knowledge base of ``(claim, confidence)`` pairs in any order, read
    through ``KnowledgeBase.from_json``."""
    return KnowledgeBase.from_json({
        "u": [c.u for c, _ in weighted],
        "v": [c.v for c, _ in weighted],
        "dep": [c.dep for c, _ in weighted],
        "conf": [conf for _, conf in weighted],
    })


#: The knowledge base without claims.
EMPTY = _kb()


def chain_gt(length, p_stay=0.9):
    """One tree on ``length`` variables: the chain 0 - 1 - ... rooted at 0."""
    return GroundTruth(length, (None,) + tuple(range(length - 1)), p_stay)


def labeling(claims, teams=(0, 0, 0), from_prior=None):
    """Labeling of ``claims`` in any order, each a pattern label unless
    ``from_prior`` marks it a pass-through; keyed by ``sorted_pair_keys``."""
    claims = list(claims)
    keys, order = sorted_pair_keys([c.u for c in claims], [c.v for c in claims], "labeled knowledge")
    dep = np.array([c.dep for c in claims], dtype=bool)[order]
    prior = np.array(from_prior if from_prior is not None else [False] * len(claims), dtype=bool)[order]
    return LabeledKnowledge.from_arrays(keys, dep, prior, teams)


def pair_keys(pairs):
    """Pair keys of ``(u, v)`` pairs, in the given order."""
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return join_keys(ids[:, 0], ids[:, 1])


def claims_of(columns):
    """The claims of a knowledge base or labeling, in key order."""
    us, vs = split_keys(columns.keys)
    return [Claim(u, v, d) for u, v, d in zip(us.tolist(), vs.tolist(), columns.dep.tolist())]


def weighted_claims(kb):
    """``(claim, confidence)`` of every row of ``kb``, in key order."""
    return list(zip(claims_of(kb), kb.conf.tolist()))


def true_claims(gt):
    """The true claim on every pair of ``gt``'s variables, in pair order."""
    keys = all_pair_keys(gt.m)
    us, vs = split_keys(keys)
    return [Claim(u, v, d) for u, v, d in zip(us.tolist(), vs.tolist(), gt.same_tree_keys(keys).tolist())]


def truth(gt, u, v):
    """The true claim on the pair {u, v}."""
    return claim(u, v, gt.same_tree_keys(pair_keys([(u, v)]))[0])
