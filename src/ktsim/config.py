"""Scenario configuration: one JSON document drives a whole run or sweep.

Validation is strict (unknown keys are rejected, every error names the field
path) so that a typo in a sweep config fails fast instead of silently running
the default value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from .errors import ConfigError
from .labeling import LabelingParams
from .mining import MiningParams

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChannelPolicy:
    """Which provenance channels are open.

    ch1 ships the datasheet from experimenter to miner, ch2 ships the miner's
    knowledge (and info-sheet snapshot) to the labeler, ch3 ships the
    experimenter's datasheet and knowledge to the labeler. The fully open
    state is not a separate switch; it is simply all three at once.
    """

    ch1: bool = False
    ch2: bool = False
    ch3: bool = False

    @property
    def all_open(self) -> bool:
        return self.ch1 and self.ch2 and self.ch3

    @property
    def mask(self) -> int:
        return (1 if self.ch1 else 0) | (2 if self.ch2 else 0) | (4 if self.ch3 else 0)

    @staticmethod
    def from_mask(mask: int) -> "ChannelPolicy":
        if not (0 <= mask <= 7):
            raise ConfigError(f"channel mask must lie in [0, 7], got {mask}")
        return ChannelPolicy(bool(mask & 1), bool(mask & 2), bool(mask & 4))

    def to_json(self) -> dict:
        return {"ch1": self.ch1, "ch2": self.ch2, "ch3": self.ch3}


@dataclass(frozen=True)
class AgentSpec:
    count: int = 12
    coverage: float = 0.2
    accuracy: float = 0.85

    def to_json(self) -> dict:
        return {"count": self.count, "coverage": self.coverage, "accuracy": self.accuracy}


@dataclass(frozen=True)
class TeamSpec:
    count: int = 2
    size: int = 3

    def to_json(self) -> dict:
        return {"count": self.count, "size": self.size}


@dataclass(frozen=True)
class TeamsSpec:
    experimenting: TeamSpec = field(default_factory=TeamSpec)
    mining: TeamSpec = field(default_factory=TeamSpec)
    labeling: TeamSpec = field(default_factory=TeamSpec)

    def to_json(self) -> dict:
        return {
            "experimenting": self.experimenting.to_json(),
            "mining": self.mining.to_json(),
            "labeling": self.labeling.to_json(),
        }


@dataclass(frozen=True)
class ExperimentSpec:
    target_width: int = 8
    selection_prob: float = 0.5
    noise_rate: float = 0.1
    samples: int = 5000

    def to_json(self) -> dict:
        return {
            "target_width": self.target_width,
            "selection_prob": self.selection_prob,
            "noise_rate": self.noise_rate,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class PeerAccess:
    """Grants of miner-team knowledge to other consumers, by team index."""

    mining: tuple[tuple[int, int], ...] = ()
    labeling: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> dict:
        return {
            "mining": [list(p) for p in self.mining],
            "labeling": [list(p) for p in self.labeling],
        }


@dataclass(frozen=True)
class Wiring:
    """Explicit read graph; None means complete bipartite wiring."""

    mining: Optional[tuple[tuple[int, int], ...]] = None
    labeling: Optional[tuple[tuple[int, int, int], ...]] = None

    def to_json(self) -> dict:
        return {
            "mining": None if self.mining is None else [list(p) for p in self.mining],
            "labeling": None if self.labeling is None else [list(p) for p in self.labeling],
        }


@dataclass(frozen=True)
class ScenarioConfig:
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
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "m": self.m,
            "tree_count": self.tree_count,
            "p_stay": self.p_stay,
            "agents": self.agents.to_json(),
            "teams": self.teams.to_json(),
            "experiment": self.experiment.to_json(),
            "mining": self.mining.to_json(),
            "labeling": self.labeling.to_json(),
            "peer_access": self.peer_access.to_json(),
            "wiring": self.wiring.to_json(),
            "channels": self.channels.to_json(),
            "self_driving": self.self_driving,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
        }


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


def _validate_scenario(cfg: ScenarioConfig) -> None:
    def check(cond: bool, path: str, msg: str) -> None:
        if not cond:
            raise ConfigError(f"{path}: {msg}")

    check(cfg.m >= 2, "m", f"must be >= 2, got {cfg.m}")
    check(1 <= cfg.tree_count <= cfg.m, "tree_count", f"must lie in [1, {cfg.m}], got {cfg.tree_count}")
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
    effective_mining = (
        mining_pairs
        if mining_pairs is not None
        else tuple((j, i) for j in range(n_mine) for i in range(n_exp))
    )
    if cfg.wiring.labeling is not None:
        check(len(cfg.wiring.labeling) >= 1, "wiring.labeling", "must list at least one (labeler, experimenter, miner) triple")
        mined = set(effective_mining)
        for idx, (l, i, j) in enumerate(cfg.wiring.labeling):
            path = f"wiring.labeling[{idx}]"
            check(0 <= l < n_lab, path, f"labeler index {l} out of range [0, {n_lab})")
            check((j, i) in mined, path, f"no mining product exists for miner {j} on dataset {i}")

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


def _get(obj: Mapping[str, Any], key: str, path: str, kind, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
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


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Parse and validate a config document; raises ConfigError with the
    offending field path on any problem."""
    root = _expect_mapping(data, "config")
    _take(root, "config", {
        "schema", "name", "m", "tree_count", "p_stay", "agents", "teams",
        "experiment", "mining", "labeling", "peer_access", "wiring",
        "channels", "self_driving", "replicates", "master_seed",
    })
    schema = _get(root, "schema", "config", int)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {schema}")

    defaults = ScenarioConfig.__dataclass_fields__

    agents_obj = _expect_mapping(root.get("agents", {}), "agents")
    _take(agents_obj, "agents", {"count", "coverage", "accuracy"})
    agents = AgentSpec(
        count=_get(agents_obj, "count", "agents", int, AgentSpec.count),
        coverage=_get(agents_obj, "coverage", "agents", float, AgentSpec.coverage),
        accuracy=_get(agents_obj, "accuracy", "agents", float, AgentSpec.accuracy),
    )

    def parse_team(obj: Any, path: str) -> TeamSpec:
        tm = _expect_mapping(obj, path)
        _take(tm, path, {"count", "size"})
        return TeamSpec(
            count=_get(tm, "count", path, int, TeamSpec.count),
            size=_get(tm, "size", path, int, TeamSpec.size),
        )

    teams_obj = _expect_mapping(root.get("teams", {}), "teams")
    _take(teams_obj, "teams", {"experimenting", "mining", "labeling"})
    teams = TeamsSpec(
        experimenting=parse_team(teams_obj.get("experimenting", {}), "teams.experimenting"),
        mining=parse_team(teams_obj.get("mining", {}), "teams.mining"),
        labeling=parse_team(teams_obj.get("labeling", {}), "teams.labeling"),
    )

    exp_obj = _expect_mapping(root.get("experiment", {}), "experiment")
    _take(exp_obj, "experiment", {"target_width", "selection_prob", "noise_rate", "samples"})
    experiment = ExperimentSpec(
        target_width=_get(exp_obj, "target_width", "experiment", int, ExperimentSpec.target_width),
        selection_prob=_get(exp_obj, "selection_prob", "experiment", float, ExperimentSpec.selection_prob),
        noise_rate=_get(exp_obj, "noise_rate", "experiment", float, ExperimentSpec.noise_rate),
        samples=_get(exp_obj, "samples", "experiment", int, ExperimentSpec.samples),
    )

    mining_obj = _expect_mapping(root.get("mining", {}), "mining")
    _take(mining_obj, "mining", {"report_all", "veto_confidence", "dep_threshold", "ind_threshold"})
    mining = MiningParams(
        report_all=_get(mining_obj, "report_all", "mining", bool, True),
        veto_confidence=_get(mining_obj, "veto_confidence", "mining", float, MiningParams.veto_confidence),
        dep_threshold=_get(mining_obj, "dep_threshold", "mining", float, MiningParams.dep_threshold),
        ind_threshold=_get(mining_obj, "ind_threshold", "mining", float, MiningParams.ind_threshold),
    )

    labeling_obj = _expect_mapping(root.get("labeling", {}), "labeling")
    _take(labeling_obj, "labeling", {
        "dep_threshold", "ind_threshold", "veto_confidence", "trust_confidence", "break_passthrough",
    })
    labeling = LabelingParams(
        dep_threshold=_get(labeling_obj, "dep_threshold", "labeling", float, LabelingParams.dep_threshold),
        ind_threshold=_get(labeling_obj, "ind_threshold", "labeling", float, LabelingParams.ind_threshold),
        veto_confidence=_get(labeling_obj, "veto_confidence", "labeling", float, LabelingParams.veto_confidence),
        trust_confidence=_get(labeling_obj, "trust_confidence", "labeling", float, LabelingParams.trust_confidence),
        break_passthrough=_get(labeling_obj, "break_passthrough", "labeling", bool, False),
    )

    access_obj = _expect_mapping(root.get("peer_access", {}), "peer_access")
    _take(access_obj, "peer_access", {"mining", "labeling"})
    peer_access = PeerAccess(
        mining=_parse_pairs(access_obj.get("mining", []), "peer_access.mining", 2),
        labeling=_parse_pairs(access_obj.get("labeling", []), "peer_access.labeling", 2),
    )

    wiring_obj = _expect_mapping(root.get("wiring", {}), "wiring")
    _take(wiring_obj, "wiring", {"mining", "labeling"})
    wiring = Wiring(
        mining=(
            None
            if wiring_obj.get("mining") is None
            else _parse_pairs(wiring_obj["mining"], "wiring.mining", 2)
        ),
        labeling=(
            None
            if wiring_obj.get("labeling") is None
            else _parse_pairs(wiring_obj["labeling"], "wiring.labeling", 3)
        ),
    )

    channels_obj = _expect_mapping(root.get("channels", {}), "channels")
    _take(channels_obj, "channels", {"ch1", "ch2", "ch3"})
    channels = ChannelPolicy(
        ch1=_get(channels_obj, "ch1", "channels", bool, True),
        ch2=_get(channels_obj, "ch2", "channels", bool, True),
        ch3=_get(channels_obj, "ch3", "channels", bool, True),
    )

    return ScenarioConfig(
        name=_get(root, "name", "config", str, defaults["name"].default),
        m=_get(root, "m", "config", int, defaults["m"].default),
        tree_count=_get(root, "tree_count", "config", int, defaults["tree_count"].default),
        p_stay=_get(root, "p_stay", "config", float, defaults["p_stay"].default),
        agents=agents,
        teams=teams,
        experiment=experiment,
        mining=mining,
        labeling=labeling,
        peer_access=peer_access,
        wiring=wiring,
        channels=channels,
        self_driving=_get(root, "self_driving", "config", bool, False),
        replicates=_get(root, "replicates", "config", int, defaults["replicates"].default),
        master_seed=_get(root, "master_seed", "config", int, defaults["master_seed"].default),
    )
