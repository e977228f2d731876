"""Output checks run on every benchmark job, outside the timed region.

The checks read only ``sweep.csv``, ``summary.json`` and ``result.json``,
never the per-cell files of a sweep, so a change to that layout does not
break them. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

COMBOS = 8


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _normalized(openness: int, union_size: int) -> float:
    return openness / union_size if union_size else 0.0


def check_sweep(out: Path, replicates: int) -> list[str]:
    """sweep.csv holds one consistent row per (combo, replicate), and
    summary.json's per-combo means agree with it."""
    problems = []
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != COMBOS * replicates:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {COMBOS * replicates}")
    cells = {(int(r["combo_mask"]), int(r["replicate"])) for r in rows}
    if cells != {(m, r) for m in range(COMBOS) for r in range(replicates)}:
        problems.append("sweep.csv does not hold exactly one row per (combo_mask, replicate)")
    by_mask: dict[int, list[dict]] = {}
    for row in rows:
        t, f, o, u = (int(row[k]) for k in ("true_count", "false_count", "openness", "union_size"))
        where = f"sweep.csv combo {row['combo_mask']} rep {row['replicate']}"
        if o != t - f:
            problems.append(f"{where}: openness {o} != true_count - false_count {t - f}")
        if u != t + f:
            problems.append(f"{where}: union_size {u} != true_count + false_count {t + f}")
        if not _close(float(row["normalized"]), _normalized(o, u)):
            problems.append(f"{where}: normalized {row['normalized']} != openness / union_size")
        by_mask.setdefault(int(row["combo_mask"]), []).append(row)

    summary = json.loads((out / "summary.json").read_text())
    if summary.get("replicates") != replicates:
        problems.append(f"summary.json replicates {summary.get('replicates')} != {replicates}")
    per_combo = {c["combo_mask"]: c for c in summary.get("per_combo", [])}
    if sorted(per_combo) != list(range(COMBOS)):
        problems.append("summary.json per_combo does not cover masks 0..7")
    for mask, combo in per_combo.items():
        mask_rows = by_mask.get(mask, [])
        if not mask_rows:
            continue
        openness = [int(r["openness"]) for r in mask_rows]
        expected = {
            "mean_openness": statistics.fmean(openness),
            "stddev_openness": statistics.stdev(openness) if len(openness) > 1 else 0.0,
            "mean_normalized": statistics.fmean(float(r["normalized"]) for r in mask_rows),
            "mean_union_size": statistics.fmean(int(r["union_size"]) for r in mask_rows),
        }
        for key, value in expected.items():
            if not _close(combo[key], value):
                problems.append(f"summary.json combo {mask} {key} {combo[key]} != {value} from sweep.csv")
    return problems


def _tree_ids(parents: list) -> list[int]:
    ids = list(range(len(parents)))
    for v in range(len(parents)):
        root = v
        while parents[root] is not None:
            root = parents[root]
        ids[v] = root
    return ids


def check_result(out: Path) -> list[str]:
    """result.json's openness block is consistent with itself, with the
    labelings it summarises, and with a rescoring against the forest."""
    problems = []
    result = json.loads((out / "result.json").read_text())
    block = result["openness"]
    trees = _tree_ids(result["ground_truth"]["parents"])

    def score(claims) -> tuple[int, int]:
        true = sum(1 for u, v, pol in claims if (pol == "dep") == (trees[u] == trees[v]))
        return true, len(claims) - true

    labelings = result["labelings"]
    triples = block["per_triple"]
    if len(triples) != len(labelings):
        problems.append(f"openness has {len(triples)} triples for {len(labelings)} labelings")
    union = set()
    for lk, triple in zip(labelings, triples):
        claims = {(c["u"], c["v"], c["polarity"]) for c in lk["claims"]}
        union |= claims
        if triple["teams"] != lk["teams"]:
            problems.append(f"triple {triple['teams']} does not match labeling {lk['teams']}")
        problems += _check_counts(f"triple {triple['teams']}", triple, claims, score)
    return problems + _check_counts("union", block, union, score)


def _check_counts(where: str, report: dict, claims: set, score) -> list[str]:
    problems = []
    t, f = score(claims)
    got = (report["union_size"], report["true_count"], report["false_count"], report["openness"])
    if got != (len(claims), t, f, t - f):
        problems.append(f"{where}: counts {got} != rescored {(len(claims), t, f, t - f)}")
    if not _close(report["normalized"], _normalized(report["openness"], report["union_size"])):
        problems.append(f"{where}: normalized is not openness / union_size")
    return problems


def check_pairing(config: dict) -> list[str]:
    """All eight channel masks of replicate 0 sample identical datasets."""
    from ktsim import ChannelPolicy, replicate_seed, run, scenario_from_dict

    cfg = scenario_from_dict(config)
    seed = replicate_seed(cfg.master_seed, 0)
    hashes = {
        mask: tuple(d.sha256 for d in run(cfg.with_channels(ChannelPolicy.from_mask(mask)), seed).datasets)
        for mask in range(COMBOS)
    }
    if len(set(hashes.values())) != 1:
        return [f"replicate 0 dataset sha256s differ across channel masks: {hashes}"]
    return []


def digests(out: Path, kind: str) -> dict[str, str]:
    """sha256 of the job's summary artifacts, keyed by file name."""
    names = ("result.json",) if kind == "run" else ("sweep.csv", "summary.json")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def check_job(out: Path, spec: dict) -> list[str]:
    """Every output check that applies to the job's kind."""
    try:
        if spec["kind"] == "run":
            return check_result(out)
        return check_sweep(out, spec["replicates"]) + check_pairing(spec["config"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
