"""Scenario configuration: one JSON document drives a whole run or sweep.

The document's keys are the field names of the config records, and one
parser walks those fields. Validation is strict (unknown keys are rejected,
every error names the field path) so that a typo in a sweep config fails fast
instead of silently running the default value. Every record checks its own
fields when built, beside the stage that reads it, and the parser puts the
record's path before the message; the root checks its own fields and the
rules that span records, after its sub-records are built and checked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import PurePath
from typing import Any, Mapping, Optional, get_args, get_type_hints

from .errors import ConfigError
from .experimenting import Datasheet, ExperimentSpec, largest_array_bytes
from .knowledge import FOREST_WORK_LIMIT, AgentSpec, KnowledgeBase, check_positive, forest_table_work
from .labeling import LabelingParams
from .mining import MiningParams
from .records import Record

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChannelPolicy(Record):
    """Which provenance channels are open, and what each one delivers.

    ch1 ships the experimenter's datasheet to the miner (``to_miner``); ch2
    ships the miner's knowledge to the labeler, and ch3 the experimenter's
    knowledge and datasheet (``to_labeler``). What a closed channel would
    carry arrives as None, and delivered knowledge is a layer of the
    labeler's effective prior. The fully open state is all three at once.
    """

    ch1: bool = False
    ch2: bool = False
    ch3: bool = False

    @property
    def mask(self) -> int:
        return (1 if self.ch1 else 0) | (2 if self.ch2 else 0) | (4 if self.ch3 else 0)

    @staticmethod
    def from_mask(mask: int) -> "ChannelPolicy":
        if not (0 <= mask <= 7):
            raise ConfigError(f"channel mask must lie in [0, 7], got {mask}")
        return ChannelPolicy(bool(mask & 1), bool(mask & 2), bool(mask & 4))

    def to_miner(self, datasheet: Datasheet) -> Optional[Datasheet]:
        """The datasheet the miner receives."""
        return datasheet if self.ch1 else None

    def to_labeler(self, miner_kb: KnowledgeBase, exp_kb: KnowledgeBase, datasheet: Datasheet) -> tuple:
        """The miner's knowledge, the experimenter's knowledge and the datasheet, as the labeler receives them."""
        return (miner_kb if self.ch2 else None, exp_kb if self.ch3 else None, datasheet if self.ch3 else None)


@dataclass(frozen=True)
class TeamSpec(Record):
    count: int = 2
    size: int = 3

    def __post_init__(self) -> None:
        check_positive("count", self.count)
        check_positive("size", self.size)


@dataclass(frozen=True)
class TeamsSpec(Record):
    experimenting: TeamSpec = field(default_factory=TeamSpec)
    mining: TeamSpec = field(default_factory=TeamSpec)
    labeling: TeamSpec = field(default_factory=TeamSpec)


@dataclass(frozen=True)
class PeerAccess(Record):
    """Grants of miner-team knowledge to other consumers, by team index."""

    mining: tuple[tuple[int, int], ...] = ()
    labeling: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Wiring(Record):
    """Explicit read graph; None means complete bipartite wiring."""

    mining: Optional[tuple[tuple[int, int], ...]] = None
    labeling: Optional[tuple[tuple[int, int, int], ...]] = None


@dataclass(frozen=True)
class ScenarioConfig(Record):
    name: str = "default"
    m: int = 30
    tree_count: int = 3
    p_stay: float = 0.9
    agents: AgentSpec = field(default_factory=AgentSpec)
    teams: TeamsSpec = field(default_factory=TeamsSpec)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    mining: MiningParams = field(default_factory=MiningParams)
    labeling: LabelingParams = field(default_factory=LabelingParams)
    peer_access: PeerAccess = field(default_factory=PeerAccess)
    wiring: Wiring = field(default_factory=Wiring)
    channels: ChannelPolicy = field(default_factory=lambda: ChannelPolicy(True, True, True))
    self_driving: bool = False
    replicates: int = 50
    master_seed: int = 20260811

    def __post_init__(self) -> None:
        _validate_scenario(self)

    def with_channels(self, channels: ChannelPolicy) -> "ScenarioConfig":
        return replace(self, channels=channels)

    def to_json(self) -> dict:
        return {"schema": SCHEMA_VERSION, **super().to_json()}


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


def mining_wiring(cfg: ScenarioConfig) -> tuple[tuple[int, int], ...]:
    """Every (miner, experimenter) pair that mines: the configured wiring,
    sorted, or else each miner on each experimenter's dataset."""
    if cfg.wiring.mining is not None:
        return tuple(sorted(cfg.wiring.mining))
    return tuple(
        (j, i)
        for j in range(cfg.teams.mining.count)
        for i in range(cfg.teams.experimenting.count)
    )


def labeling_wiring(cfg: ScenarioConfig) -> tuple[tuple[int, int, int], ...]:
    """Every (labeler, experimenter, miner) triple that labels: the
    configured wiring, sorted, or else each labeler on each mined product."""
    if cfg.wiring.labeling is not None:
        return tuple(sorted(cfg.wiring.labeling))
    return tuple((l, i, j) for l in range(cfg.teams.labeling.count) for (j, i) in mining_wiring(cfg))


def _validate_scenario(cfg: ScenarioConfig) -> None:
    """The root's own fields and the rules that span records: team sizes,
    the design width and samples against m, and the four index lists of
    ``peer_access`` and ``wiring``, each walked once: a wiring list is not
    empty, and each entry in turn keeps its indices' bounds, its own rule
    (no mining team is its own peer, a labeling triple names a mined
    product) and repeats no earlier entry."""

    def check(cond: bool, path: str, msg: str) -> None:
        if not cond:
            raise ConfigError(f"{path}: {msg}")

    # The name is a directory under --out and a sweep.csv field: one plain path component in UTF-8.
    plain = cfg.name not in ("", ".", "..") and "\0" not in cfg.name and PurePath(cfg.name).name == cfg.name
    utf8 = not any("\ud800" <= c <= "\udfff" for c in cfg.name)
    check(plain and utf8, "name", f"must be one plain path component in UTF-8, got {cfg.name!r}")
    check(cfg.m >= 2, "m", f"must be >= 2, got {cfg.m}")
    check(1 <= cfg.tree_count <= cfg.m, "tree_count", f"must lie in [1, {cfg.m}], got {cfg.tree_count}")
    check(
        forest_table_work(cfg.m, cfg.tree_count) <= FOREST_WORK_LIMIT,
        "tree_count",
        f"counting the forests of m={cfg.m} variables in {cfg.tree_count} trees needs more than "
        f"{FOREST_WORK_LIMIT:.0e} units of big-integer work; lower m, or move tree_count "
        "toward 1 or toward m",
    )
    check(0.5 < cfg.p_stay < 1.0, "p_stay", f"must lie in (0.5, 1), got {cfg.p_stay}")
    n_agents = cfg.agents.count
    for role in ("experimenting", "mining", "labeling"):
        size = getattr(cfg.teams, role).size
        check(size <= n_agents, f"teams.{role}.size", f"must not exceed agents.count={n_agents}, got {size}")
    exp = cfg.experiment
    check(2 <= exp.target_width <= cfg.m, "experiment.target_width", f"must lie in [2, {cfg.m}], got {exp.target_width}")
    # numpy cannot even describe an array of more than sys.maxsize bytes.
    check(
        exp.samples <= sys.maxsize and largest_array_bytes(cfg.m, exp.samples) <= sys.maxsize,
        "experiment.samples",
        f"must keep the largest sampling array within {sys.maxsize} bytes at m={cfg.m}, got {exp.samples}",
    )
    check(cfg.replicates >= 1, "replicates", f"must be >= 1, got {cfg.replicates}")
    check(cfg.master_seed >= 0, "master_seed", f"must be a non-negative integer, got {cfg.master_seed}")

    def walk(path: str, entries, bounds, rule=lambda *entry: None) -> set:
        """Check one index list entry by entry: each bound that ``bounds``
        names, the entry's own ``rule`` (a message when broken, else None)
        and no repeat. Returns the set of entries."""
        seen = set()
        for idx, entry in enumerate(entries):
            at = f"{path}[{idx}]"
            for (name, count), index in zip(bounds, entry):
                check(0 <= index < count, at, f"{name} index {index} out of range [0, {count})")
            broken = rule(*entry)
            check(broken is None, at, broken)
            check(entry not in seen, at, "repeats an earlier entry")
            seen.add(entry)
        return seen

    n_exp, n_mine, n_lab = (getattr(cfg.teams, role).count for role in ("experimenting", "mining", "labeling"))
    walk(
        "peer_access.mining",
        cfg.peer_access.mining,
        (("consumer", n_mine), ("source", n_mine)),
        lambda consumer, source: "a mining team cannot be its own peer" if consumer == source else None,
    )
    walk("peer_access.labeling", cfg.peer_access.labeling, (("consumer", n_lab), ("source", n_mine)))
    wiring = cfg.wiring
    if wiring.mining is not None:
        check(len(wiring.mining) >= 1, "wiring.mining", "must list at least one (miner, experimenter) pair")
        mined = walk("wiring.mining", wiring.mining, (("miner", n_mine), ("experimenter", n_exp)))
    if wiring.labeling is not None:
        check(len(wiring.labeling) >= 1, "wiring.labeling", "must list at least one (labeler, experimenter, miner) triple")
        if wiring.mining is None:
            mined = set(mining_wiring(cfg))
        walk(
            "wiring.labeling",
            wiring.labeling,
            (("labeler", n_lab),),
            lambda l, i, j: None if (j, i) in mined else f"no mining product exists for miner {j} on dataset {i}",
        )

    if cfg.self_driving:
        same = cfg.teams.experimenting == cfg.teams.mining == cfg.teams.labeling
        check(same, "self_driving", "requires identical team specs for all three roles")


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------

def _expect_mapping(obj: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _take(obj: Mapping[str, Any], path: str, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


_REQUIRED = object()

#: Path of the document root in error messages; fields of the root are named
#: without it (``agents.count``), except its scalars (``config.m``).
_ROOT = "config"


def _get(obj: Mapping[str, Any], key: str, path: str, kind, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = obj[key]
    # bool is a subclass of int, so it is accepted only where a bool is declared.
    is_bool = isinstance(value, bool)
    if kind is float and isinstance(value, int) and not is_bool:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}.{key}: an integer of {value.bit_length()} bits overflows a float") from None
    if not isinstance(value, kind) or is_bool != (kind is bool):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_pairs(obj: Any, path: str, arity: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{path}: expected a list")
    out = []
    for idx, item in enumerate(obj):
        if not isinstance(item, (list, tuple)) or len(item) != arity or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in item
        ):
            raise ConfigError(f"{path}[{idx}]: expected a list of {arity} integers")
        out.append(tuple(item))
    return tuple(out)


def _parse_record(obj: Any, path: str, default: Any) -> Any:
    """Parse one config object into a record of ``default``'s type.

    Keys are the record's field names; a missing key takes ``default``'s
    value. Each value's kind comes from the field's declared type: a nested
    record recurses, a tuple of index tuples goes through ``_parse_pairs`` and
    a scalar through ``_get``.
    """
    mapping = _expect_mapping(obj, path)
    cls = type(default)
    kinds = _field_kinds(cls)
    _take(mapping, path, set(kinds))
    values = {}
    for name, kind in kinds.items():
        value = getattr(default, name)
        sub = name if path == _ROOT else f"{path}.{name}"
        if is_dataclass(value):
            values[name] = _parse_record(mapping.get(name, {}), sub, value)
        elif kind in (bool, int, float, str):
            values[name] = _get(mapping, name, path, kind, value)
        else:
            arity, nullable = _pairs_kind(kind)
            raw = mapping.get(name, value)
            values[name] = None if raw is None and nullable else _parse_pairs(raw, sub, arity)
    try:
        return cls(**values)
    except ConfigError as exc:
        # The root's own checks already name their field paths.
        if path == _ROOT:
            raise
        raise ConfigError(f"{path}: {exc}") from None


@lru_cache(maxsize=None)
def _field_kinds(cls: type) -> dict[str, Any]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _pairs_kind(kind: Any) -> tuple[int, bool]:
    """Arity and nullability of a field declared as a tuple of int tuples,
    such as ``Optional[tuple[tuple[int, int], ...]]``."""
    args = get_args(kind)
    nullable = type(None) in args
    if nullable:
        args = get_args(args[0])
    return len(get_args(args[0])), nullable


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Parse and validate a config document; raises ConfigError with the
    offending field path on any problem."""
    root = _expect_mapping(data, _ROOT)
    _take(root, _ROOT, {"schema", *_field_kinds(ScenarioConfig)})
    schema = _get(root, "schema", _ROOT, int)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {schema}")
    body = {key: value for key, value in root.items() if key != "schema"}
    return _parse_record(body, _ROOT, default_scenario())
