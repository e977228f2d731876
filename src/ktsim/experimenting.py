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
from .knowledge import GroundTruth, KnowledgeBase, split_keys
from .records import Record

#: Bytes of float64 draws per block of noise flips in ``sample_dataset``.
_NOISE_BLOCK_BYTES = 2**20

#: Dataset cells per block of rows in ``export_dataset``.
_EXPORT_BLOCK_CELLS = 2**14


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
        if not (0.0 <= self.noise_rate < 0.5):
            raise ConfigError(f"noise_rate must lie in [0, 0.5), got {self.noise_rate}")
        if self.samples < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.samples}")


class Dataset:
    """Rectangular 0/1 measurements; one column per measured variable."""

    __slots__ = ("columns", "rows", "_index")

    def __init__(self, columns, rows):
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ConfigError("dataset rows must be rectangular with one column per variable")
        if rows.size and rows.max() > 1:
            raise ConfigError("dataset entries must be 0 or 1")
        rows.setflags(write=False)
        self.columns: tuple[int, ...] = tuple(int(c) for c in columns)
        self.rows = rows
        self._index = {c: i for i, c in enumerate(self.columns)}

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def column(self, variable: int) -> np.ndarray:
        try:
            return self.rows[:, self._index[variable]]
        except KeyError:
            raise ConfigError(f"variable {variable} is not measured in this dataset") from None

    def sha256(self) -> str:
        h = hashlib.sha256(",".join(str(c) for c in self.columns).encode() + b"\n")
        h.update(self.rows)
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.columns == other.columns and np.array_equal(self.rows, other.rows)


@dataclass(frozen=True)
class Datasheet(Record):
    """Provenance record of the design as actually executed."""

    team_id: int
    measured: tuple[int, ...]
    selection: Optional[Selection]
    noise_rate: float
    samples: int
    seed_fingerprint: str


def design_experiment(
    team_kb: KnowledgeBase,
    m: int,
    target_width: int,
    selection_prob: float,
    noise_rate: float,
    samples: int,
    rng: np.random.Generator,
) -> ExperimentDesign:
    """Pick a measured set of exactly ``target_width`` variables.

    Variables appearing in the team's Dependent claims come first, grown as
    connected clusters of the claim graph (measure what you believe belongs
    together); any shortfall is padded with uniformly random other variables.
    With probability ``selection_prob`` a selection condition (value 1) is
    attached to a uniformly chosen measured variable.
    """
    if not (2 <= target_width <= m):
        raise ConfigError(f"target_width must lie in [2, m={m}], got {target_width}")
    if not (0.0 <= selection_prob <= 1.0):
        raise ConfigError(f"selection_prob must lie in [0, 1], got {selection_prob}")

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
    if float(rng.random()) < selection_prob:
        selection = Selection(measured_t[int(rng.integers(len(measured_t)))], 1)
    return ExperimentDesign(measured_t, selection, noise_rate, samples)


def _rng_fingerprint(rng: np.random.Generator) -> str:
    blob = json.dumps(rng.bit_generator.state, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _draw_rows(need: int, selected: bool) -> int:
    """Rows one sampling round draws to accept ``need`` more: all of them, or
    with a selection condition 2.2 times as many plus 8 (at least 64)."""
    return max(64, int(need * 2.2) + 8) if selected else need


def largest_array_bytes(m: int, samples: int) -> int:
    """Bytes of the largest array ``sample_dataset`` may allocate for
    ``samples`` rows of an m-variable model: the first round's ``(m, rows)``
    uint8 table or one float64 draw of that many rows. The noise step adds
    one block of m float64 draws per row, at most 1 MiB unless a single row
    is more."""
    return max(m, 8) * _draw_rows(samples, selected=True)


def _sample_columns(gt: GroundTruth, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of every variable as an ``(m, count)`` table, one
    contiguous row per variable, filled in topological order."""
    table = np.empty((gt.m, count), dtype=np.uint8)
    flip_prob = 1.0 - gt.p_stay
    for v in gt.topo_order:
        parent = gt.parents[v]
        if parent is None:
            table[v] = rng.integers(0, 2, size=count, dtype=np.uint8)
        else:
            np.less(rng.random(count), flip_prob, out=table[v].view(np.bool_))
            table[v] ^= table[parent]
    return table


def _measured_rows(gt: GroundTruth, design: ExperimentDesign, rng: np.random.Generator) -> np.ndarray:
    """``design.samples`` accepted draws of the measured variables, one row
    per draw: rounds of ``_sample_columns``, each projected onto the measured
    columns and then filtered on the selection condition (when present).
    Each full table dies before the next round draws one."""
    selection = design.selection
    measured = list(design.measured)
    need = design.samples
    parts: list[np.ndarray] = []
    # Uncapped: p_stay in (0.5, 1) and fair-coin roots make every marginal exactly 1/2, so a round accepts ~half.
    while need > 0:
        table = _sample_columns(gt, _draw_rows(need, selection is not None), rng)
        part = table[measured]
        if selection is not None:
            part = part[:, np.flatnonzero(table[selection.variable] == selection.value)[:need]]
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

    Full draws are generated tree by tree, rejection-resampled until the
    selection condition holds (when present) and projected onto the measured
    columns; then every recorded bit is flipped independently with
    probability ``noise_rate``.
    """
    for v in design.measured:
        if not (0 <= v < gt.m):
            raise ConfigError(f"measured variable {v} is outside the range [0, {gt.m})")
    fingerprint = _rng_fingerprint(rng)
    rows = _measured_rows(gt, design, rng)
    if design.noise_rate > 0.0:
        # Each block draws flips for all m variables, so the stream is the same
        # as one whole-array draw over full rows; only measured ones are kept.
        measured = list(design.measured)
        step = max(1, _NOISE_BLOCK_BYTES // (8 * gt.m))
        for start in range(0, rows.shape[0], step):
            block = rows[start:start + step]
            block ^= (rng.random((block.shape[0], gt.m)) < design.noise_rate)[:, measured]
    dataset = Dataset(design.measured, rows)
    sheet = Datasheet(
        team_id=team_id,
        measured=design.measured,
        selection=design.selection,
        noise_rate=design.noise_rate,
        samples=design.samples,
        seed_fingerprint=fingerprint,
    )
    return dataset, sheet


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
