"""End-to-end runs: wire teams together, gate channels, execute paired sweeps.

A run is a single forward pass: build the hidden forest, sample agent priors,
form and rectify teams, let each experimenting team design and collect a
dataset, mine every wired (dataset, miner) pair, and label every wired
product. The channel policy decides only what provenance and knowledge gets
delivered; it never touches the upstream random draws, so two runs with the
same seed and different channels share identical datasets bit for bit.

A sweep exploits that: for each replicate one data-stage seed is derived from
the master seed, and all eight channel combinations are run against it. Any
difference inside a replicate is therefore attributable to the channels
alone. For the same reason a sweep writes each replicate's upstream (forest,
teams, datasets) once, and each combination's file holds only the rest. A
task is one replicate: its eight masks run in one process, in mask order, on
channel configs validated once per sweep.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import secrets
import shutil
import statistics
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, TypeVar

import numpy as np

from .config import ChannelPolicy, ScenarioConfig, mining_wiring
from .errors import ConfigError
from .experimenting import Dataset, Datasheet, design_experiment, export_dataset, sample_dataset
from .knowledge import (
    AgentPool,
    GroundTruth,
    Role,
    Team,
    build_ground_truth,
    rectify,
    sample_agent_pool,
)
from .labeling import LabeledKnowledge, build_effective_prior, label, reinterpret
from .metrics import OpennessReport, Score, SignTestResult, openness, paired_sign_test
from .mining import Information, mine
from .records import JSONFragment, Record

ALL_CHANNEL_MASKS = tuple(range(8))


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Deterministic, well-mixed per-replicate seed for the data stage."""
    ss = np.random.SeedSequence([int(master_seed), int(replicate)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DatasetRecord:
    dataset: Dataset
    datasheet: Datasheet
    sha256: str

    def to_json(self) -> dict:
        return {
            "team_id": self.datasheet.team_id,
            "rows": self.dataset.n,
            "sha256": self.sha256,
            "datasheet": self.datasheet.to_json(),
        }


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    seed: int
    ground_truth: GroundTruth
    teams: tuple[Team, ...]
    datasets: tuple[DatasetRecord, ...]
    informations: tuple[tuple[tuple[int, int], Information], ...]
    labelings: tuple[LabeledKnowledge, ...]
    openness: OpennessReport

    def upstream_doc(self) -> dict:
        """The part of the run no channel can change: the seed, the forest,
        the teams and the datasets."""
        return {
            "seed": self.seed,
            "ground_truth": self.ground_truth.to_json(),
            "teams": (t.to_json() for t in self.teams),
            "datasets": [d.to_json() for d in self.datasets],
        }

    def downstream_doc(self) -> dict:
        """The config, the seed and what the channels decide: the mined
        informations, the labelings and their openness."""
        return {
            "config": self.config.to_json(),
            "seed": self.seed,
            "informations": (
                {"experimenter": i, "miner": j, "information": info.to_json()}
                for (j, i), info in self.informations
            ),
            "labelings": (lk.to_json() for lk in self.labelings),
            "openness": self.openness.to_json(),
        }

    def doc(self) -> dict:
        """The whole run, as ``result.json`` holds it. In this and the two
        halves above, teams, informations and labelings are generators that
        build each element as it is written, so a document is written once."""
        return {**self.upstream_doc(), **self.downstream_doc()}

    def to_json_text(self) -> str:
        return "".join(_json_line(self.doc()))


#: Elements per piece when ``_json_pieces`` encodes a long list.
_LIST_CHUNK = 256

# Compact separators keep the encoder in C; indent does not.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _streamed(value: Any) -> bool:
    """Whether ``_json_pieces`` writes ``value`` itself rather than handing it
    to ``_encode``: an iterator, a ``JSONFragment``, a list longer than
    ``_LIST_CHUNK`` or a dict that holds one."""
    if isinstance(value, dict):
        return any(map(_streamed, value.values()))
    return isinstance(value, (Iterator, JSONFragment)) or (isinstance(value, list) and len(value) > _LIST_CHUNK)


def _json_pieces(value: Any) -> Iterator[str]:
    """``value`` as compact, sorted-key JSON text in pieces whose join is
    ``_encode(value)``, with an iterator taken as the list of its elements
    and a ``JSONFragment`` as the value its text encodes.

    A fragment is written as its text, an iterator element by element, a
    long list in chunks of ``_LIST_CHUNK`` elements and a dict holding any
    of these key by key (its keys are strings), so only one element of an
    iterator is built at a time and no piece encodes more than one chunk of
    a list. A fragment anywhere else, as in a short list, makes ``_encode``
    raise ``TypeError``."""
    if isinstance(value, JSONFragment):
        yield value.text
    elif isinstance(value, Iterator):
        yield "["
        # No name holds an element, so it is freed before the next is built.
        for n, pieces in enumerate(map(_json_pieces, value)):
            if n:
                yield ","
            yield from pieces
        yield "]"
    elif isinstance(value, list) and len(value) > _LIST_CHUNK:
        yield "["
        for start in range(0, len(value), _LIST_CHUNK):
            yield ("," if start else "") + _encode(value[start:start + _LIST_CHUNK])[1:-1]
        yield "]"
    elif isinstance(value, dict) and _streamed(value):
        yield "{"
        for n, key in enumerate(sorted(value)):
            yield ("," if n else "") + _encode(key) + ":"
            yield from _json_pieces(value[key])
        yield "}"
    else:
        yield _encode(value)


def _json_line(doc: dict) -> Iterator[str]:
    """``doc`` as one JSON line, in pieces: the format of every result file."""
    yield from _json_pieces(doc)
    yield "\n"


def _write_json_line(path: Path, doc: dict) -> None:
    """Write ``doc`` to ``path`` piece by piece."""
    with path.open("w") as fh:
        fh.writelines(_json_line(doc))


def _form_teams(cfg: ScenarioConfig, pool: AgentPool, rng: np.random.Generator) -> dict[Role, tuple[Team, ...]]:
    """Draw each team's members, role by role and team by team, and rectify
    each drawn member set once. A self-driving scenario draws only the
    experimenting teams; those agents, with that knowledge, hold all roles."""
    drawing = (Role.EXPERIMENTING,) if cfg.self_driving else tuple(Role)
    drawn: dict[Role, list] = {}
    for role in drawing:
        spec = getattr(cfg.teams, role.value)
        member_sets = [
            tuple(sorted(rng.choice(pool.agent_count, size=spec.size, replace=False).tolist()))
            for _ in range(spec.count)
        ]
        drawn[role] = [(members, rectify([pool.priors[a] for a in members])) for members in member_sets]
    return {
        role: tuple(
            Team(t, role, members, knowledge)
            for t, (members, knowledge) in enumerate(drawn.get(role, drawn[Role.EXPERIMENTING]))
        )
        for role in Role
    }


def _labeling_wiring(cfg: ScenarioConfig, mining_pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int, int], ...]:
    if cfg.wiring.labeling is not None:
        return tuple(sorted(cfg.wiring.labeling))
    return tuple(
        (l, i, j)
        for l in range(cfg.teams.labeling.count)
        for (j, i) in mining_pairs
    )


def run(cfg: ScenarioConfig, seed: int) -> RunResult:
    """Execute one full translation pass under the configured channel policy."""
    root = np.random.SeedSequence(int(seed))
    ss_gt, ss_pool, ss_teams, ss_exp = root.spawn(4)

    gt = build_ground_truth(cfg.m, cfg.tree_count, cfg.p_stay, np.random.default_rng(ss_gt))
    pool = sample_agent_pool(
        gt, cfg.agents.count, cfg.agents.coverage, cfg.agents.accuracy, np.random.default_rng(ss_pool)
    )
    teams = _form_teams(cfg, pool, np.random.default_rng(ss_teams))
    exp_teams = teams[Role.EXPERIMENTING]
    mine_teams = teams[Role.MINING]
    label_teams = teams[Role.LABELING]

    records = []
    exp_children = ss_exp.spawn(len(exp_teams))
    for team, child in zip(exp_teams, exp_children):
        design_ss, sample_ss = child.spawn(2)
        design = design_experiment(
            team.knowledge,
            cfg.m,
            cfg.experiment.target_width,
            cfg.experiment.selection_prob,
            cfg.experiment.noise_rate,
            cfg.experiment.samples,
            np.random.default_rng(design_ss),
        )
        dataset, datasheet = sample_dataset(
            gt, design, np.random.default_rng(sample_ss), team_id=team.id
        )
        records.append(DatasetRecord(dataset, datasheet, dataset.sha256()))

    channels = cfg.channels
    miner_peers: dict[int, list] = {j: [] for j in range(len(mine_teams))}
    for consumer, source in cfg.peer_access.mining:
        miner_peers[consumer].append(mine_teams[source].knowledge)
    labeler_peers: dict[int, list] = {l: [] for l in range(len(label_teams))}
    for consumer, source in cfg.peer_access.labeling:
        labeler_peers[consumer].append(mine_teams[source].knowledge)

    mining_pairs = mining_wiring(cfg)
    infos: dict[tuple[int, int], Information] = {}
    for j, i in mining_pairs:
        delivered = records[i].datasheet if channels.ch1 else None
        infos[(j, i)] = mine(
            records[i].dataset,
            mine_teams[j].knowledge,
            delivered,
            miner_peers[j],
            cfg.mining,
            team_id=j,
        )

    labelings = []
    for l, i, j in _labeling_wiring(cfg, mining_pairs):
        prior = build_effective_prior(
            label_teams[l].knowledge,
            mine_teams[j].knowledge if channels.ch2 else None,
            exp_teams[i].knowledge if channels.ch3 else None,
            labeler_peers[l],
        )
        exp_datasheet = records[i].datasheet if channels.ch3 else None
        reread = reinterpret(infos[(j, i)], prior, exp_datasheet, cfg.labeling)
        labelings.append(label(reread, prior, cfg.labeling, teams=(i, j, l)))

    report = openness(labelings, gt)
    ordered_teams = tuple(t for role in Role for t in teams[role])
    return RunResult(
        config=cfg,
        seed=int(seed),
        ground_truth=gt,
        teams=ordered_teams,
        datasets=tuple(records),
        informations=tuple(sorted(infos.items())),
        labelings=tuple(labelings),
        openness=report,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow(Score):
    scenario: str
    combo_mask: int
    replicate: int
    seed: int

    def as_csv(self) -> list:
        return [getattr(self, name) for name in SWEEP_CSV_COLUMNS]


#: The sweep.csv header: the row's own fields first, then its score's (the
#: reverse of the dataclass field order, where the inherited score comes first).
SWEEP_CSV_COLUMNS = ("scenario", "combo_mask", "replicate", "seed", *(f.name for f in fields(Score)))


@dataclass(frozen=True)
class ComboSummary(Record):
    combo_mask: int
    mean_openness: float
    stddev_openness: float
    mean_normalized: float
    mean_union_size: float


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    replicates: int
    master_seed: int
    rows: tuple[SweepRow, ...]
    per_combo: tuple[ComboSummary, ...]
    sign_test_all_vs_none: SignTestResult

    def summary_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "per_combo": [c.to_json() for c in self.per_combo],
            "sign_test_all_vs_none": self.sign_test_all_vs_none.to_json(),
        }


def _run_replicate(configs: Sequence[ScenarioConfig], rep: int, out_dir: Optional[Path | str]) -> list[SweepRow]:
    """Run replicate ``rep``'s one data seed under ``configs``, the scenario
    under each channel mask in mask order, and return one row per mask."""
    seed = replicate_seed(configs[0].master_seed, rep)
    rows = []
    for mask, cfg in enumerate(configs):
        result = run(cfg, seed)
        if out_dir is not None:
            # The upstream is the same under all eight masks, so mask 0 writes
            # it once and every mask's file names it by its dataset sha256s.
            if mask == 0:
                rep_dir = Path(out_dir) / f"rep{rep}"
                rep_dir.mkdir(parents=True, exist_ok=True)
                _write_json_line(rep_dir / "upstream.json", result.upstream_doc())
            cell = {**result.downstream_doc(), "dataset_sha256": [d.sha256 for d in result.datasets]}
            target = Path(out_dir) / f"combo{mask}"
            target.mkdir(parents=True, exist_ok=True)
            _write_json_line(target / f"rep{rep}.json", cell)
        rows.append(SweepRow.extend(result.openness, scenario=cfg.name, combo_mask=mask, replicate=rep, seed=seed))
    return rows


def sweep(
    cfg: ScenarioConfig,
    replicates: int,
    out_dir: Optional[Path | str] = None,
    jobs: int = 1,
) -> SweepResult:
    """All eight channel combinations, paired over ``replicates`` data seeds."""
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    configs = [cfg.with_channels(ChannelPolicy.from_mask(mask)) for mask in ALL_CHANNEL_MASKS]
    task = functools.partial(_run_replicate, configs, out_dir=out_dir)
    # ``jobs`` is an upper bound: a forking pool starts all its workers at the
    # first submit, so ask for no more than there are replicates or CPUs.
    workers = min(jobs, replicates, os.cpu_count() or 1)
    if workers == 1:
        per_replicate = list(map(task, range(replicates)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_replicate = list(pool.map(task, range(replicates)))
    by_mask = list(zip(*per_replicate))
    per_combo = tuple(
        ComboSummary(
            combo_mask=mask,
            mean_openness=statistics.fmean(r.openness for r in group),
            stddev_openness=statistics.stdev(r.openness for r in group) if len(group) > 1 else 0.0,
            mean_normalized=statistics.fmean(r.normalized for r in group),
            mean_union_size=statistics.fmean(r.union_size for r in group),
        )
        for mask, group in enumerate(by_mask)
    )
    return SweepResult(
        scenario=cfg.name,
        replicates=replicates,
        master_seed=cfg.master_seed,
        rows=tuple(row for group in by_mask for row in group),
        per_combo=per_combo,
        sign_test_all_vs_none=paired_sign_test([r.openness for r in by_mask[7]], [r.openness for r in by_mask[0]]),
    )


def write_sweep_outputs(result: SweepResult, out_dir: Path | str) -> tuple[Path, Path]:
    """Emit sweep.csv and summary.json under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in result.rows:
            writer.writerow(row.as_csv())
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(result.summary_json(), indent=2, sort_keys=True) + "\n")
    return csv_path, summary_path


def write_run_outputs(result: RunResult, out_dir: Path | str) -> Path:
    """Write dataset CSVs with datasheet sidecars, then result.json, one
    team and one labeling at a time. The ``datasets`` directory holds this
    run's files only, never an earlier run's."""
    out = Path(out_dir)

    def export_all(data_dir: Path) -> None:
        for record in result.datasets:
            export_dataset(record.dataset, record.datasheet, data_dir / f"team{record.datasheet.team_id}.csv")

    replace_directory(out / "datasets", export_all)
    result_path = out / "result.json"
    _write_json_line(result_path, result.doc())
    return result_path


def _fresh_sibling(target: Path, tag: str) -> Path:
    """Create and return a new, empty hidden directory next to ``target``."""
    path = target.with_name(f".{target.name}.{tag}-{secrets.token_hex(6)}")
    path.mkdir(parents=True)
    return path


T = TypeVar("T")


def replace_directory(target: Path, build: Callable[[Path], T]) -> T:
    """Run ``build`` on a fresh hidden sibling of ``target`` and swap the
    sibling in for ``target`` only once ``build`` returns, so ``target``
    never mixes files of two builds. If ``build`` fails, the sibling is
    deleted and ``target`` is left as it was. Returns what ``build`` returns."""
    staging = _fresh_sibling(target, "partial")
    try:
        built = build(staging)
        if target.exists():
            retired = _fresh_sibling(target, "retired")
            target.rename(retired / target.name)
            staging.rename(target)
            shutil.rmtree(retired)
        else:
            staging.rename(target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return built
