"""Scenario configuration: one JSON document drives a whole run or sweep.

The document's keys are the field names of the config records, and one
parser walks those fields. Validation is strict (unknown keys are rejected,
every error names the field path) so that a typo in a sweep config fails fast
instead of silently running the default value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import PurePath
from typing import Any, Mapping, Optional, get_args, get_type_hints

from .errors import ConfigError
from .experimenting import largest_array_bytes
from .knowledge import FOREST_WORK_LIMIT, forest_table_work
from .labeling import LabelingParams
from .mining import MiningParams
from .records import Record

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChannelPolicy(Record):
    """Which provenance channels are open.

    ch1 ships the datasheet from experimenter to miner, ch2 ships the miner's
    knowledge to the labeler, ch3 ships the experimenter's datasheet and
    knowledge to the labeler; delivered knowledge is a layer of the labeler's
    effective prior. The fully open state is simply all three at once.
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


@dataclass(frozen=True)
class AgentSpec(Record):
    count: int = 12
    coverage: float = 0.2
    accuracy: float = 0.85


@dataclass(frozen=True)
class TeamSpec(Record):
    count: int = 2
    size: int = 3


@dataclass(frozen=True)
class TeamsSpec(Record):
    experimenting: TeamSpec = field(default_factory=TeamSpec)
    mining: TeamSpec = field(default_factory=TeamSpec)
    labeling: TeamSpec = field(default_factory=TeamSpec)


@dataclass(frozen=True)
class ExperimentSpec(Record):
    target_width: int = 8
    selection_prob: float = 0.5
    noise_rate: float = 0.1
    samples: int = 5000


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


def _validate_scenario(cfg: ScenarioConfig) -> None:
    def check(cond: bool, path: str, msg: str) -> None:
        if not cond:
            raise ConfigError(f"{path}: {msg}")

    # The name is the sweep's directory under --out: one plain path component.
    plain = cfg.name not in ("", ".", "..") and "\0" not in cfg.name and PurePath(cfg.name).name == cfg.name
    check(plain, "name", f"must be one plain path component, got {cfg.name!r}")
    check(cfg.m >= 2, "m", f"must be >= 2, got {cfg.m}")
    check(1 <= cfg.tree_count <= cfg.m, "tree_count", f"must lie in [1, {cfg.m}], got {cfg.tree_count}")
    check(
        forest_table_work(cfg.m, cfg.tree_count) <= FOREST_WORK_LIMIT,
        "tree_count",
        f"counting the forests of m={cfg.m} variables in {cfg.tree_count} trees needs more than "
        f"{FOREST_WORK_LIMIT:.0e} units of big-integer work (about 10 s); lower m, or move tree_count "
        "toward 1 or toward m",
    )
    check(0.5 < cfg.p_stay < 1.0, "p_stay", f"must lie in (0.5, 1), got {cfg.p_stay}")
    check(cfg.agents.count >= 1, "agents.count", f"must be >= 1, got {cfg.agents.count}")
    check(0.0 <= cfg.agents.coverage <= 1.0, "agents.coverage", f"must lie in [0, 1], got {cfg.agents.coverage}")
    check(0.0 <= cfg.agents.accuracy <= 1.0, "agents.accuracy", f"must lie in [0, 1], got {cfg.agents.accuracy}")
    for role in ("experimenting", "mining", "labeling"):
        spec: TeamSpec = getattr(cfg.teams, role)
        check(spec.count >= 1, f"teams.{role}.count", f"must be >= 1, got {spec.count}")
        check(spec.size >= 1, f"teams.{role}.size", f"must be >= 1, got {spec.size}")
        check(
            spec.size <= cfg.agents.count,
            f"teams.{role}.size",
            f"must not exceed agents.count={cfg.agents.count}, got {spec.size}",
        )
    exp = cfg.experiment
    check(2 <= exp.target_width <= cfg.m, "experiment.target_width", f"must lie in [2, {cfg.m}], got {exp.target_width}")
    check(0.0 <= exp.selection_prob <= 1.0, "experiment.selection_prob", f"must lie in [0, 1], got {exp.selection_prob}")
    check(0.0 <= exp.noise_rate < 0.5, "experiment.noise_rate", f"must lie in [0, 0.5), got {exp.noise_rate}")
    check(exp.samples >= 1, "experiment.samples", f"must be >= 1, got {exp.samples}")
    # numpy cannot even describe an array of more than sys.maxsize bytes.
    check(
        exp.samples <= sys.maxsize and largest_array_bytes(cfg.m, exp.samples) <= sys.maxsize,
        "experiment.samples",
        f"must keep the largest sampling array within {sys.maxsize} bytes at m={cfg.m}, got {exp.samples}",
    )
    check(cfg.replicates >= 1, "replicates", f"must be >= 1, got {cfg.replicates}")
    check(cfg.master_seed >= 0, "master_seed", f"must be a non-negative integer, got {cfg.master_seed}")

    n_mine = cfg.teams.mining.count
    n_exp = cfg.teams.experimenting.count
    n_lab = cfg.teams.labeling.count
    for idx, (consumer, source) in enumerate(cfg.peer_access.mining):
        path = f"peer_access.mining[{idx}]"
        check(0 <= consumer < n_mine, path, f"consumer index {consumer} out of range [0, {n_mine})")
        check(0 <= source < n_mine, path, f"source index {source} out of range [0, {n_mine})")
        check(consumer != source, path, "a mining team cannot be its own peer")
    for idx, (consumer, source) in enumerate(cfg.peer_access.labeling):
        path = f"peer_access.labeling[{idx}]"
        check(0 <= consumer < n_lab, path, f"consumer index {consumer} out of range [0, {n_lab})")
        check(0 <= source < n_mine, path, f"source index {source} out of range [0, {n_mine})")

    mining_pairs = cfg.wiring.mining
    if mining_pairs is not None:
        check(len(mining_pairs) >= 1, "wiring.mining", "must list at least one (miner, experimenter) pair")
        for idx, (j, i) in enumerate(mining_pairs):
            path = f"wiring.mining[{idx}]"
            check(0 <= j < n_mine, path, f"miner index {j} out of range [0, {n_mine})")
            check(0 <= i < n_exp, path, f"experimenter index {i} out of range [0, {n_exp})")
    if cfg.wiring.labeling is not None:
        check(len(cfg.wiring.labeling) >= 1, "wiring.labeling", "must list at least one (labeler, experimenter, miner) triple")
        mined = set(mining_wiring(cfg))
        for idx, (l, i, j) in enumerate(cfg.wiring.labeling):
            path = f"wiring.labeling[{idx}]"
            check(0 <= l < n_lab, path, f"labeler index {l} out of range [0, {n_lab})")
            check((j, i) in mined, path, f"no mining product exists for miner {j} on dataset {i}")

    for path, entries in (
        ("peer_access.mining", cfg.peer_access.mining),
        ("peer_access.labeling", cfg.peer_access.labeling),
        ("wiring.mining", cfg.wiring.mining or ()),
        ("wiring.labeling", cfg.wiring.labeling or ()),
    ):
        for idx, entry in enumerate(entries):
            check(entry not in entries[:idx], f"{path}[{idx}]", "repeats an earlier entry")

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
        value = float(value)
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
