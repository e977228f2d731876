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

The result files name what they do not hold. A dataset is named by sha256,
and a run writes its rows to a CSV beside ``result.json``. A team's
knowledge is written nowhere: it is named by its claim count and
``KnowledgeBase.sha256``, because running the config at the seed again
rebuilds it, and the digest checks the rebuild.
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
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .config import ChannelPolicy, ScenarioConfig, labeling_wiring, mining_wiring
from .experimenting import Dataset, Datasheet, design_experiment, export_dataset, sample_dataset
from .knowledge import (
    AgentPool,
    GroundTruth,
    Role,
    Team,
    build_ground_truth,
    check_positive,
    rectify,
    sample_agent_pool,
    split_keys,
)
from .labeling import ORIGIN_PATTERN, ORIGIN_PRIOR, LabeledKnowledge, build_effective_prior, label, reinterpret
from .metrics import OpennessReport, Score, SignTestResult, openness, paired_sign_test
from .mining import Information, mine
from .records import Record

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
        the teams and the datasets. Each team's knowledge is its claim count
        and sha256 (``Team.to_json``), and each dataset its row count and
        sha256, with the datasheet."""
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
            "labelings": iter(self.labelings),
            "openness": self.openness.to_json(),
        }

    def doc(self) -> dict:
        """The whole run, as ``result.json`` holds it. In this and the two
        halves above, teams, informations and labelings are iterators at the
        top level, each element built as ``_json_line`` writes it."""
        return {**self.upstream_doc(), **self.downstream_doc()}

    def to_json_text(self) -> str:
        return "".join(_json_line(self.doc()))


# Compact separators keep the encoder in C; indent does not.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: One claim record per code ``2 * from_prior + dep``, keys in sorted order as
#: ``_encode`` writes them, with ``%d`` in place of ``u`` and ``v``.
_CLAIM_TEMPLATES = tuple(
    f'{{"origin":"{origin}","polarity":"{polarity}","u":%d,"v":%d}}'
    for origin in (ORIGIN_PATTERN, ORIGIN_PRIOR)
    for polarity in ("indep", "dep")
)


def _labeling_text(lk: LabeledKnowledge) -> str:
    """``_encode(lk.to_json())``, rendered from the columns: each claim fills
    its code's template with its ids, so no per-claim record is built."""
    us, vs = split_keys(lk.keys)
    records = ",".join(map(_CLAIM_TEMPLATES.__getitem__, (2 * lk.from_prior + lk.dep).tolist()))
    ids = tuple(np.column_stack((us, vs)).ravel().tolist())
    return f'{{"claims":[{records % ids}],"teams":{_encode(list(lk.teams))}}}'


def _json_line(doc: dict) -> Iterator[str]:
    """``doc`` as one line of compact, sorted-key JSON, in pieces: the format
    of every result file. An iterator value is written as a list, element by
    element, a labeling as ``_labeling_text``. ``_encode`` takes any other
    value or element whole, and raises ``TypeError`` on a labeling in it."""
    yield "{"
    for n, key in enumerate(sorted(doc)):
        yield ("," if n else "") + _encode(key) + ":"
        value = doc[key]
        if isinstance(value, Iterator):
            yield "["
            for m, element in enumerate(value):
                if m:
                    yield ","  # a piece of its own: joined onto a labeling's text, it would copy it
                yield _labeling_text(element) if isinstance(element, LabeledKnowledge) else _encode(element)
            yield "]"
        else:
            yield _encode(value)
    yield "}\n"


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


def run(cfg: ScenarioConfig, seed: int) -> RunResult:
    """Execute one full translation pass under the configured channel policy."""
    root = np.random.SeedSequence(int(seed))
    ss_gt, ss_pool, ss_teams, ss_exp = root.spawn(4)

    gt = build_ground_truth(cfg.m, cfg.tree_count, cfg.p_stay, np.random.default_rng(ss_gt))
    pool = sample_agent_pool(gt, cfg.agents, np.random.default_rng(ss_pool))
    teams = _form_teams(cfg, pool, np.random.default_rng(ss_teams))
    exp_teams = teams[Role.EXPERIMENTING]
    mine_teams = teams[Role.MINING]
    label_teams = teams[Role.LABELING]

    records = []
    exp_children = ss_exp.spawn(len(exp_teams))
    for team, child in zip(exp_teams, exp_children):
        design_ss, sample_ss = child.spawn(2)
        design = design_experiment(team.knowledge, cfg.m, cfg.experiment, np.random.default_rng(design_ss))
        dataset, datasheet = sample_dataset(
            gt, design, np.random.default_rng(sample_ss), team_id=team.id
        )
        records.append(DatasetRecord(dataset, datasheet, dataset.sha256()))

    miner_peers: dict[int, list] = {j: [] for j in range(len(mine_teams))}
    for consumer, source in cfg.peer_access.mining:
        miner_peers[consumer].append(mine_teams[source].knowledge)
    labeler_peers: dict[int, list] = {l: [] for l in range(len(label_teams))}
    for consumer, source in cfg.peer_access.labeling:
        labeler_peers[consumer].append(mine_teams[source].knowledge)

    infos: dict[tuple[int, int], Information] = {}
    for j, i in mining_wiring(cfg):
        infos[(j, i)] = mine(
            records[i].dataset,
            mine_teams[j].knowledge,
            cfg.channels.to_miner(records[i].datasheet),
            miner_peers[j],
            cfg.mining,
            team_id=j,
        )

    labelings = []
    for l, i, j in labeling_wiring(cfg):
        miner_kb, exp_kb, datasheet = cfg.channels.to_labeler(
            mine_teams[j].knowledge, exp_teams[i].knowledge, records[i].datasheet
        )
        prior = build_effective_prior(label_teams[l].knowledge, miner_kb, exp_kb, labeler_peers[l])
        reread = reinterpret(infos[(j, i)], prior, datasheet, cfg.labeling)
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
    check_positive("replicates", replicates)
    check_positive("jobs", jobs)
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
    team and one labeling at a time. Every byte is written before anything
    is replaced: the datasets go to a hidden staging directory and
    result.json to a hidden sibling file, which then replace ``datasets``
    and result.json. A failed write leaves an earlier run's files as they
    were, and the ``datasets`` directory never holds an earlier run's. A
    result.json that is a directory is refused before anything is written."""
    out = Path(out_dir)
    result_path = out / "result.json"
    if result_path.is_dir() and not result_path.is_symlink():
        raise OSError(f"{result_path} is a directory; only a file is replaced")
    pending = _hidden_sibling(result_path, "partial")

    def write_all(data_dir: Path) -> None:
        for record in result.datasets:
            export_dataset(record.dataset, record.datasheet, data_dir / f"team{record.datasheet.team_id}.csv")
        _write_json_line(pending, result.doc())

    try:
        replace_directory(out / "datasets", write_all)
        os.replace(pending, result_path)
    except BaseException:
        pending.unlink(missing_ok=True)
        raise
    return result_path


def _hidden_sibling(target: Path, tag: str) -> Path:
    """A new hidden path next to ``target``."""
    return target.with_name(f".{target.name}.{tag}-{secrets.token_hex(6)}")


T = TypeVar("T")


def replace_directory(target: Path, build: Callable[[Path], T]) -> T:
    """Run ``build`` on a fresh hidden sibling of ``target`` and swap the
    sibling in for ``target`` only once ``build`` returns, so ``target``
    never mixes files of two builds. If ``build`` fails, the sibling is
    deleted and ``target`` is left as it was. A ``target`` that is a symbolic
    link or not a directory is refused before ``build`` runs. Returns what
    ``build`` returns."""
    if target.is_symlink() or target.exists() and not target.is_dir():
        raise OSError(f"{target} is a symbolic link or not a directory; only a directory is replaced")
    staging = _hidden_sibling(target, "partial")
    staging.mkdir(parents=True)
    try:
        built = build(staging)
        if target.exists():
            retired = _hidden_sibling(target, "retired")
            target.rename(retired)
            staging.rename(target)
            shutil.rmtree(retired)
        else:
            staging.rename(target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return built
