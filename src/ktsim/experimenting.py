"""Experimenting stage: knowledge-informed design, biased sampling, provenance.

A design picks which variables to measure (preferring variables the team
believes are mutually dependent), optionally attaches a selection condition
(rows are kept only when one chosen variable reads 1 before noise), and fixes
a symmetric bit-flip noise rate applied to every recorded bit. The executed
design is echoed verbatim into a machine-readable datasheet so downstream
stages can undo or flag exactly what happened here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .knowledge import GroundTruth, KnowledgeBase, check_probability, split_keys
from .records import Record

#: Bytes of float64 draws per block of noise flips in ``sample_dataset``,
#: which draws them for the measured columns only.
_NOISE_BLOCK_BYTES = 2**20

#: Dataset cells per block of rows in ``export_dataset``.
_EXPORT_BLOCK_CELLS = 2**14

#: Rows per block of ``Dataset.pair_counts``. A block's counts are sums of
#: at most this many 0/1 products, so float32 holds them exactly while it is
#: at most 2**24; the block also bounds the float copy of the rows.
_GRAM_BLOCK_ROWS = 8192


def check_noise_and_samples(noise_rate: float, samples: int) -> None:
    """The rule an ``ExperimentSpec`` and every ``ExperimentDesign`` obey:
    bits flip at a rate in [0, 0.5), and at least one row is sampled."""
    if not (0.0 <= noise_rate < 0.5):
        raise ConfigError(f"noise_rate must lie in [0, 0.5), got {noise_rate}")
    if samples < 1:
        raise ConfigError(f"sample count must be >= 1, got {samples}")


@dataclass(frozen=True)
class ExperimentSpec(Record):
    """What each experimenting team is asked to collect. The scenario
    checks ``target_width`` against m."""

    target_width: int = 8
    selection_prob: float = 0.5
    noise_rate: float = 0.1
    samples: int = 5000

    def __post_init__(self) -> None:
        check_probability("selection_prob", self.selection_prob)
        check_noise_and_samples(self.noise_rate, self.samples)


@dataclass(frozen=True)
class Selection(Record):
    variable: int
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ConfigError(f"selection value must be 0 or 1, got {self.value}")


@dataclass(frozen=True)
class ExperimentDesign(Record):
    measured: tuple[int, ...]
    selection: Optional[Selection]
    noise_rate: float
    samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured", tuple(int(v) for v in self.measured))
        if len(self.measured) < 2:
            raise ConfigError("a design must measure at least two variables")
        if len(set(self.measured)) != len(self.measured):
            raise ConfigError("measured variables must be distinct")
        if self.selection is not None and self.selection.variable not in self.measured:
            raise ConfigError(
                f"selection variable {self.selection.variable} is not among the measured set"
            )
        check_noise_and_samples(self.noise_rate, self.samples)


def _pair_counts(rows: np.ndarray) -> np.ndarray:
    """Exact ``XᵀX`` of a 0/1 matrix: pairwise 11 counts, column sums on the
    diagonal. Summed in float32 over blocks of ``_GRAM_BLOCK_ROWS`` rows."""
    counts = np.zeros((rows.shape[1], rows.shape[1]), dtype=np.int64)
    for start in range(0, rows.shape[0], _GRAM_BLOCK_ROWS):
        block = rows[start:start + _GRAM_BLOCK_ROWS].astype(np.float32)
        counts += (block.T @ block).astype(np.int64)
    counts.setflags(write=False)
    return counts


class Dataset:
    """Rectangular 0/1 measurements; one column per measured variable."""

    __slots__ = ("columns", "rows", "_index", "_counts")

    def __init__(self, columns, rows):
        values = np.asarray(rows)
        if values.ndim != 2 or values.shape[1] != len(columns):
            raise ConfigError("dataset rows must be rectangular with one column per variable")
        # Checked before the cast to uint8, which would wrap 256 to 0 and truncate 0.9 to 0;
        # uint8 rows, the sampler's, need only their max, which makes no temporary array.
        if values.size and not (
            values.dtype == np.uint8 and values.max() <= 1 or ((values == 0) | (values == 1)).all()
        ):
            raise ConfigError("dataset entries must be 0 or 1")
        # A read-only view, so the caller's own array stays writable.
        rows = np.ascontiguousarray(values, dtype=np.uint8).view()
        rows.setflags(write=False)
        self.columns: tuple[int, ...] = tuple(int(c) for c in columns)
        self.rows = rows
        self._index = {c: i for i, c in enumerate(self.columns)}
        self._counts: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def column(self, variable: int) -> np.ndarray:
        try:
            return self.rows[:, self._index[variable]]
        except KeyError:
            raise ConfigError(f"variable {variable} is not measured in this dataset") from None

    def pair_counts(self) -> np.ndarray:
        """The exact ``XᵀX`` of the rows, int64 and read-only: entry (i, j)
        counts the rows where columns i and j both read 1, and the diagonal
        holds the column sums. Built on first use and kept, so every miner
        of this dataset shares one."""
        if self._counts is None:
            self._counts = _pair_counts(self.rows)
        return self._counts

    def sha256(self) -> str:
        h = hashlib.sha256(",".join(str(c) for c in self.columns).encode() + b"\n")
        h.update(self.rows)
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.columns == other.columns and np.array_equal(self.rows, other.rows)


@dataclass(frozen=True)
class Datasheet(ExperimentDesign):
    """Provenance record of the design as actually executed: the design, the
    team that executed it and a fingerprint of the generator that drew it."""

    team_id: int
    seed_fingerprint: str


def design_experiment(
    team_kb: KnowledgeBase, m: int, experiment: ExperimentSpec, rng: np.random.Generator
) -> ExperimentDesign:
    """Pick a measured set of exactly ``experiment.target_width`` variables.

    Variables appearing in the team's Dependent claims come first, grown as
    connected clusters of the claim graph (measure what you believe belongs
    together); any shortfall is padded with uniformly random other variables.
    With probability ``experiment.selection_prob`` a selection condition
    (value 1) is attached to a uniformly chosen measured variable. The spec
    has checked its fields; only the width, which depends on m, is checked.
    """
    target_width = experiment.target_width
    if not (2 <= target_width <= m):
        raise ConfigError(f"target_width must lie in [2, m={m}], got {target_width}")

    # Both ends of every Dependent claim, sorted by end and then by partner,
    # so the partners of ``x`` are one ascending run from ``start[x]``.
    us, vs = split_keys(team_kb.keys[team_kb.dep])
    ends, partners = np.concatenate([us, vs]), np.concatenate([vs, us])
    partners = partners[np.lexsort((partners, ends))].tolist()
    degree = np.bincount(ends)
    start = np.concatenate([[0], np.cumsum(degree)]).tolist()

    def neighbors(var: int) -> list[int]:
        """The partners of ``var`` in Dependent claims, ascending."""
        return partners[start[var]:start[var + 1]]

    measured: list[int] = []
    chosen = set()
    # Every variable of a Dependent claim, ascending (np.unique would import numpy.ma).
    unvisited = np.flatnonzero(degree).tolist()
    while len(measured) < target_width and unvisited:
        seed_var = unvisited[int(rng.integers(len(unvisited)))]
        queue = [seed_var]
        while queue and len(measured) < target_width:
            var = queue.pop(0)
            if var in chosen:
                continue
            chosen.add(var)
            measured.append(var)
            queue.extend(w for w in neighbors(var) if w not in chosen)
        unvisited = [v for v in unvisited if v not in chosen]

    if len(measured) < target_width:
        pool = [v for v in range(m) if v not in chosen]
        extra = rng.choice(len(pool), size=target_width - len(measured), replace=False)
        measured.extend(pool[int(i)] for i in extra)

    measured_t = tuple(sorted(measured))
    selection = None
    if float(rng.random()) < experiment.selection_prob:
        selection = Selection(measured_t[int(rng.integers(len(measured_t)))], 1)
    return ExperimentDesign(measured_t, selection, experiment.noise_rate, experiment.samples)


def _rng_fingerprint(rng: np.random.Generator) -> str:
    blob = json.dumps(rng.bit_generator.state, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _draw_rows(need: int, selected: bool) -> int:
    """Rows one sampling round draws to accept ``need`` more: all of them, or
    with a selection condition 2.2 times as many plus 8 (at least 64)."""
    return max(64, int(need * 2.2) + 8) if selected else need


def largest_array_bytes(m: int, samples: int) -> int:
    """Bytes of the largest array ``sample_dataset`` may allocate for
    ``samples`` rows of an m-variable model, an upper bound: the first
    round's uint8 table, one row per measured variable or ancestor of one
    (at most m), or one float64 draw of that many rows. The noise step adds
    one block of float64 draws for the measured columns, at most 1 MiB
    unless a single row is more."""
    return max(m, 8) * _draw_rows(samples, selected=True)


def _sample_columns(parents: list[Optional[int]], p_stay: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of a forest listed in topological order, as a
    ``(len(parents), count)`` table with one contiguous row per variable:
    ``parents[i]`` is the row of variable i's parent, or None for a root."""
    table = np.empty((len(parents), count), dtype=np.uint8)
    for i, parent in enumerate(parents):
        if parent is None:
            table[i] = rng.integers(0, 2, size=count, dtype=np.uint8)
        else:
            np.less(rng.random(count), 1.0 - p_stay, out=table[i].view(np.bool_))
            table[i] ^= table[parent]
    return table


def _measured_rows(gt: GroundTruth, design: ExperimentDesign, rng: np.random.Generator) -> np.ndarray:
    """``design.samples`` accepted draws of the measured variables, one row
    per draw. Only the measured variables and their ancestors are drawn, in
    ``gt.topo_order``: no other variable can reach a measured bit, so leaving
    them out keeps the law of the rows. Rounds of ``_sample_columns`` are
    each projected onto the measured columns and then filtered on the
    selection condition (when present); each table dies before the next
    round draws one."""
    closure = [False] * gt.m
    for v in design.measured:
        while v is not None and not closure[v]:
            closure[v], v = True, gt.parents[v]
    order = [v for v in gt.topo_order if closure[v]]
    row = {v: i for i, v in enumerate(order)}
    parents = [None if gt.parents[v] is None else row[gt.parents[v]] for v in order]
    selection = design.selection
    measured = [row[v] for v in design.measured]
    need = design.samples
    parts: list[np.ndarray] = []
    # Uncapped: p_stay in (0.5, 1) and fair-coin roots make every marginal exactly 1/2, so a round accepts ~half.
    while need > 0:
        table = _sample_columns(parents, gt.p_stay, _draw_rows(need, selection is not None), rng)
        part = table[measured]
        if selection is not None:
            part = part[:, np.flatnonzero(table[row[selection.variable]] == selection.value)[:need]]
        del table
        parts.append(part)
        need -= part.shape[1]
    return np.concatenate([part.T for part in parts])


def sample_dataset(
    gt: GroundTruth,
    design: ExperimentDesign,
    rng: np.random.Generator,
    *,
    team_id: int = 0,
) -> tuple[Dataset, Datasheet]:
    """Draw ``design.samples`` rows from the ground-truth model.

    The measured variables and their ancestors are drawn tree by tree,
    rejection-resampled until the selection condition holds (when present)
    and projected onto the measured columns; then every recorded bit is
    flipped independently with probability ``noise_rate``.
    """
    for v in design.measured:
        if not (0 <= v < gt.m):
            raise ConfigError(f"measured variable {v} is outside the range [0, {gt.m})")
    fingerprint = _rng_fingerprint(rng)
    rows = _measured_rows(gt, design, rng)
    if design.noise_rate > 0.0:
        # Flips are drawn for the measured columns only, in design order, so
        # the blocks draw the same stream as one whole-array draw over the rows.
        step = max(1, _NOISE_BLOCK_BYTES // (8 * rows.shape[1]))
        for start in range(0, rows.shape[0], step):
            block = rows[start:start + step]
            block ^= rng.random(block.shape) < design.noise_rate
    sheet = Datasheet.extend(design, team_id=team_id, seed_fingerprint=fingerprint)
    return Dataset(design.measured, rows), sheet


def _csv_lines(rows: np.ndarray) -> np.ndarray:
    """0/1 ``rows`` as the bytes ``csv.writer`` writes for them: one digit
    per value, joined by commas, each line ended by CR LF."""
    n, k = rows.shape
    text = np.full((n, max(2 * k + 1, 2)), ord(","), dtype=np.uint8)
    np.add(rows, ord("0"), out=text[:, 0:2 * k:2])
    text[:, -2:] = (ord("\r"), ord("\n"))
    return text


def export_dataset(dataset: Dataset, datasheet: Datasheet, path: Path | str) -> Path:
    """Write the dataset as CSV plus a JSON datasheet sidecar next to it.
    Rows go out in blocks, so no copy of the whole dataset is made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    step = max(1, _EXPORT_BLOCK_CELLS // max(1, len(dataset.columns)))
    with path.open("wb") as fh:
        fh.write((",".join(str(c) for c in dataset.columns) + "\r\n").encode())
        for start in range(0, dataset.n, step):
            fh.write(_csv_lines(dataset.rows[start:start + step]))
    sidecar = path.with_suffix(".datasheet.json")
    sidecar.write_text(json.dumps(datasheet.to_json(), indent=2, sort_keys=True) + "\n")
    return sidecar
