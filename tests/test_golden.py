"""Golden outputs: seeded artifacts whose bytes must not change.

The sweep digests and the dataset CSV digests were taken from the
dict-based knowledge representation that the pair-keyed arrays replaced; the
stdout digests were taken from the hand-written per-record ``to_json``
methods that the field-driven ``Record`` encoder replaced. The digests of
``result.json`` (default and wide run), of the two ``*.datasheet.json``
sidecars and of the eight ``combo*/rep0.json`` files were re-pinned when
``mining.report_all`` and the always-null ``knowledge_snapshot`` fields of the
info sheet and the datasheet were deleted, and the three ``result.json``
kinds again when ``labeling.break_passthrough`` left the config: each of
those files lost only these keys, and every number in them stayed the same.
The negative-control stdout was pinned while the fault was still a labeling
parameter, and it did not move when the validator took the fault over.

``result.json`` and the per-cell files then became one compact line written
by the C JSON encoder, with each team's knowledge as ``u``/``v``/``dep``/``conf``
columns instead of one record per claim, so their digests moved again. The
digests of the indented per-claim form they had before are kept as
``*_RECORD_FORM_SHA256``: ``record_form`` turns a new file back into that
form, and the re-indented result must hash to them, which shows the new
layout drops no claim and changes no number.

A sweep then wrote each replicate's upstream (seed, forest, teams, datasets)
once, to ``rep<r>/upstream.json``, and left the rest of the run in each
``combo<mask>/rep<r>.json`` together with the upstream's dataset sha256s. So
``SWEEP_REP0_SHA256`` moved and ``SWEEP_REP0_UPSTREAM_SHA256`` was added. The
record-form digests did not move: a cell merged with its upstream is the run
document it used to be.

Each information's patterns were then written as aligned ``u``/``v``/``phi``/
``tags`` columns plus one ``support``, with each pattern's tags as their bit
code, instead of one ``{u, v, phi, support, tags}`` record per pattern. So
``RUN_SEED_42_SHA256``, ``WIDE_RUN_SEED_7_SHA256`` and ``SWEEP_REP0_SHA256``
moved again. ``record_form`` also turns the pattern columns back into those
records, tag names taken from the ``TAG_NAMES`` bits and sorted, and the
record-form digests did not move, so no pattern and no number changed.
Each team's knowledge was then written as its claim count and
``KnowledgeBase.sha256`` instead of its ``u``/``v``/``dep``/``conf`` columns,
since running the document's config at its seed rebuilds it. So
``RUN_SEED_42_SHA256``, ``WIDE_RUN_SEED_7_SHA256`` and
``SWEEP_REP0_UPSTREAM_SHA256`` moved, and ``READ_GRAPH_RUN_TEXT_SHA256`` was
added. ``refill_teams`` runs the config again, checks every team's count and
digest against the rebuilt base and only then writes the columns back in.
``record_form`` refills first, and the record-form digests did not move; nor
did ``READ_GRAPH_RUN_SHA256``, which the refilled read-graph run still
hashes to. So no claim and no number of a team was lost.
A change that moves any digest must say why in CHANGES.md; never update a
digest to hide a defect.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ktsim import default_scenario, run, scenario_from_dict, sweep, validate_monotonicity, write_sweep_outputs
from ktsim.cli import EXIT_OK, EXIT_VALIDATION, main
from ktsim.mining import TAG_NAMES

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

SWEEP_CSV_SHA256 = "608b9654c023da13402bf0b91eb24a64e817ac39f2e0baa8725cb458a9e5ea23"
SWEEP_SUMMARY_SHA256 = "c15903a7420980e79f8e355d278fce832e6311a5ec4a8f1d7922abd8e8b29092"
RUN_SEED_42_SHA256 = "dc48c9f0be493f06ef1d7ed6db8c23a3dd07aa1524bcc68ccd4d62ea94de5f31"
RUN_SEED_42_RECORD_FORM_SHA256 = "0096cafa6465588ac096e378d57b773773ea05325ba43ef9df5ad02364273fb0"
WIDE_RUN_SEED_7_SHA256 = "6dfa24b26cdb9e2cf400951fc29741eaf081a9b214d4ceb8e367327de852f165"
WIDE_RUN_SEED_7_RECORD_FORM_SHA256 = "7168ae80a5cd3333b76caae0c9660611a5b5dd3d716a6510c556699ef4acab4b"

#: Dataset exports of ``run --seed 42``: CSV and datasheet sidecar per team.
RUN_SEED_42_DATASETS_SHA256 = {
    "team0.csv": "5769b5d6585de58cb0917215d583418c9cd6f13d20ba2be5f276592a4af8d430",
    "team0.datasheet.json": "4101dd31f849879e6c9d9b0b1477b40359812eb88111c4d558d148af3014e55f",
    "team1.csv": "a30f45d292bc04cad979af6e6e37b7e99298b4c93e3a9846f6213c7a063120be",
    "team1.datasheet.json": "d7de339bb6180534e45396baa95ec0f0df2be8d01c60daa9e038a269e2f9b58b",
}
VALIDATE_STDOUT_SHA256 = "dda64a139d2e12ed83f58772a73eff3fddef1b3c8e0b9ce2c4599dc50a5342d9"
#: ``validate --trials 100 --seed 1 --break-passthrough``: the negative control.
BROKEN_VALIDATE_STDOUT_SHA256 = "93c66e8a546fb57bc898dfb17e6fe098d3158d8e5894a42d43d189097072a28a"
#: ``validate_monotonicity(150, ...)`` reports over three configs x seeds 1-3
#: x with and without the negative control.
VALIDATOR_MATRIX_SHA256 = "7d2c3789877f90e82e30bbf5b3dd2c1ac079a1f8009ca2ed1e9ca20bd615c360"
ORACLE_STDOUT_SHA256 = "a0bc874c2255995a79e93b0a0167831790565dd6346c3b709c00056caa082999"
#: ``rep0/upstream.json`` and ``combo<mask>/rep0.json`` of a one-replicate
#: CLI sweep of the default config.
SWEEP_REP0_UPSTREAM_SHA256 = "f800816a9b8153a1a4d1898d6e8fd9c8d2f7c69369654c3f37a4113c93c12e08"
SWEEP_REP0_SHA256 = (
    "2206d47d5e5030e4d30a93d9ee074d2bb2afa14362bf5473dd98e67a4bbd60d4",
    "cd8490de329f16477b739dabad6086015a2d1ff0524088c66ee18cd990c7d6bb",
    "799332b8d4ed0217972241f6fb3591350e5a7889653f6f3d6d1bf2dc44e7e56c",
    "2c62036f0caa61a539eb0b277ab2593baa46cf3ce2406792720a9342030f8470",
    "7173ac8428338bc3aa2d43c1a797438be2a46483d804c2dfbc7a10196f8685b1",
    "b0cd746f9dbc9d4baf6e1cb08aa7caa09c612cc22835ff9e0ac8ebc67286b478",
    "c15214a15e4f8792aa8af71d21eb48fe414898bc296adec92c9dd026cddca525",
    "b51229331bb98afb54e021e4bd195784d1ee0aa0537e43b881ea406567344d5b",
)
#: ``run(...).to_json_text()`` of ``READ_GRAPH_CONFIG`` at seed 3, with its
#: teams refilled and encoded compact again. The digest was taken before the
#: read graph and the channel deliveries moved into ``config``, so it shows
#: that the move kept every byte of a run with explicit wiring and peer
#: grants, which no other golden run has.
READ_GRAPH_RUN_SHA256 = "9a8a27335c0f2767f62282226354fb3b33193d3eb63d842c372ac1f57b7cd817"
#: The same run's ``to_json_text()`` as written, teams named by digest.
READ_GRAPH_RUN_TEXT_SHA256 = "c994aafc01dc359929634e09c67ca72c4b356a0607c1a8554802caef542e314e"
#: Three teams per role but two labelers; neither wiring list is the
#: complete graph, both are given out of order, and each peer list grants twice.
READ_GRAPH_CONFIG = {
    "schema": 1,
    "m": 16,
    "teams": {"experimenting": {"count": 3}, "mining": {"count": 3}, "labeling": {"count": 2}},
    "experiment": {"target_width": 6, "samples": 2000},
    "wiring": {
        "mining": [[2, 1], [0, 0], [1, 2], [0, 2]],
        "labeling": [[1, 2, 1], [0, 0, 0], [1, 1, 2], [0, 2, 0]],
    },
    "peer_access": {"mining": [[0, 1], [2, 0]], "labeling": [[1, 2], [0, 0]]},
}
SWEEP_REP0_RECORD_FORM_SHA256 = (
    "7a871391a02affe2ad2e7e74fbd2d5dd3b073f14c7b837ba0d0d8fa78477b09f",
    "c67025caa569102549a2f77f14171088c1ceebe28ba9c407606ca177422e9550",
    "d9ca6ca55766f196ac096d78e2ba5825f06dfde55fc8b722e97e5122aed99ed7",
    "b072170068904dc283871b36aad84680bd898c24c8fe99112b950a825051d37f",
    "13249186d1bc0f45d72e2f7a2d04e7c068ae000413286afe7b9274ee7007c925",
    "920dc69fb042d5697d7fd676bdfd95caf2d4357ae6a7c6d82484578632379cb8",
    "913e9e01bb0495e0b0b755ef2ac552a4288f267c454a845c02d104320b2b9bf7",
    "3bf31ebcb7f62a2df102bae051b4c7706eac56bab6bb18bc95ab46cf921075a5",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pattern_records(block: dict) -> list[dict]:
    """One ``{"u", "v", "phi", "support", "tags"}`` record per pattern of a
    pattern column block, with the tag names of each code's bits, sorted."""
    return [
        {
            "u": u,
            "v": v,
            "phi": phi,
            "support": block["support"],
            "tags": sorted(name for i, name in enumerate(TAG_NAMES) if code >> i & 1),
        }
        for u, v, phi, code in zip(block["u"], block["v"], block["phi"], block["tags"], strict=True)
    ]


def refill_teams(doc: dict) -> dict:
    """``doc`` with each team's ``{"claims", "sha256"}`` replaced by its
    knowledge columns, rebuilt by running ``doc``'s config at its seed.
    Raises ``ValueError`` unless every team, digest and count included,
    is the rebuilt team's JSON."""
    teams = []
    for team, again in zip(doc["teams"], run(scenario_from_dict(doc["config"]), doc["seed"]).teams, strict=True):
        if team != again.to_json():
            raise ValueError(f"team {team['id']} ({team['role']}) does not match the rebuilt team")
        teams.append({**team, "knowledge": again.knowledge.to_json()})
    return {**doc, "teams": teams}


def record_form(doc: dict) -> dict:
    """``doc`` with its teams refilled and each team's knowledge columns
    turned into one ``{"u", "v", "polarity", "confidence"}`` record per
    claim, and each information's pattern columns into one record per
    pattern."""
    teams = []
    for team in refill_teams(doc)["teams"]:
        kb = team["knowledge"]
        claims = [
            {"u": u, "v": v, "polarity": "dep" if dep else "indep", "confidence": conf}
            for u, v, dep, conf in zip(kb["u"], kb["v"], kb["dep"], kb["conf"], strict=True)
        ]
        teams.append({**team, "knowledge": claims})
    informations = []
    for entry in doc["informations"]:
        info = entry["information"]
        informations.append({**entry, "information": {**info, "patterns": _pattern_records(info["patterns"])}})
    return {**doc, "teams": teams, "informations": informations}


def _compact_doc(path: Path, digest: str) -> dict:
    """The document of a one-line compact file that hashes to ``digest``."""
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    return json.loads(text)


def _check_record_form(doc: dict, record_form_digest: str) -> None:
    """The record form of ``doc``, indented as before, hashes to ``record_form_digest``."""
    indented = json.dumps(record_form(doc), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == record_form_digest


def _check_result_file(path: Path, digest: str, record_form_digest: str) -> None:
    _check_record_form(_compact_doc(path, digest), record_form_digest)


def test_default_sweep_of_10_replicates(tmp_path):
    cfg = scenario_from_dict(json.loads(DEFAULT_CONFIG.read_text()))
    csv_path, summary_path = write_sweep_outputs(sweep(cfg, 10), tmp_path)
    assert _sha256(csv_path) == SWEEP_CSV_SHA256
    assert _sha256(summary_path) == SWEEP_SUMMARY_SHA256


def test_default_run_with_seed_42(tmp_path, capsys):
    code = main(["run", "--config", str(DEFAULT_CONFIG), "--seed", "42", "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    _check_result_file(tmp_path / "result.json", RUN_SEED_42_SHA256, RUN_SEED_42_RECORD_FORM_SHA256)
    data_dir = tmp_path / "datasets"
    assert sorted(p.name for p in data_dir.iterdir()) == sorted(RUN_SEED_42_DATASETS_SHA256)
    for name, digest in RUN_SEED_42_DATASETS_SHA256.items():
        assert _sha256(data_dir / name) == digest, name


def test_wide_mining_run(tmp_path, capsys):
    # 48 of 64 variables measured: 1128 patterns per mined dataset.
    data = json.loads(DEFAULT_CONFIG.read_text())
    data["m"] = 64
    data["experiment"].update(target_width=48, samples=5000)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "7", "--out", str(out), "--quiet"]) == EXIT_OK
    _check_result_file(out / "result.json", WIDE_RUN_SEED_7_SHA256, WIDE_RUN_SEED_7_RECORD_FORM_SHA256)


def test_run_with_explicit_wiring_and_peer_grants():
    text = run(scenario_from_dict(READ_GRAPH_CONFIG), 3).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == READ_GRAPH_RUN_TEXT_SHA256
    refilled = json.dumps(refill_teams(json.loads(text)), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(refilled.encode()).hexdigest() == READ_GRAPH_RUN_SHA256


@pytest.fixture(scope="module")
def seed_1_doc():
    return json.loads(run(default_scenario(), 1).to_json_text())


@pytest.mark.parametrize("tamper", [
    lambda kb: {**kb, "sha256": ("0" if kb["sha256"][0] != "0" else "1") + kb["sha256"][1:]},
    lambda kb: {**kb, "claims": kb["claims"] + 1},
], ids=["one-sha256-character", "claims-off-by-one"])
@pytest.mark.parametrize("team", [0, -1], ids=["first-team", "last-team"])
def test_refill_rejects_a_team_whose_knowledge_does_not_match(seed_1_doc, tamper, team):
    teams = [dict(t) for t in seed_1_doc["teams"]]
    teams[team]["knowledge"] = tamper(teams[team]["knowledge"])
    with pytest.raises(ValueError, match="does not match the rebuilt team"):
        refill_teams({**seed_1_doc, "teams": teams})


@pytest.mark.parametrize(("argv", "digest"), [
    (["validate", "--trials", "20", "--seed", "1"], VALIDATE_STDOUT_SHA256),
    (
        ["oracle", "--p-stay", "0.9", "--dist", "2", "--delta", "0.1", "--samples", "2000", "--seed", "1"],
        ORACLE_STDOUT_SHA256,
    ),
])
def test_json_report_on_stdout(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_negative_control_report_on_stdout(capsys):
    argv = ["validate", "--trials", "100", "--seed", "1", "--break-passthrough"]
    assert main(argv) == EXIT_VALIDATION
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BROKEN_VALIDATE_STDOUT_SHA256


def test_validator_reports_over_a_config_matrix():
    # Every draw of the validator and the text of every transcript it keeps.
    configs = [
        default_scenario(),
        scenario_from_dict(
            {"schema": 1, "m": 6, "tree_count": 2, "agents": {"coverage": 0.9}, "experiment": {"target_width": 4}}
        ),
        scenario_from_dict({
            "schema": 1,
            "m": 12,
            "agents": {"coverage": 0.5, "accuracy": 0.5},
            "labeling": {"trust_confidence": 0.55, "veto_confidence": 0.6},
        }),
    ]
    reports = [
        validate_monotonicity(150, cfg, np.random.default_rng(seed), break_passthrough=broken).to_json()
        for cfg in configs
        for seed in (1, 2, 3)
        for broken in (False, True)
    ]
    assert sum(r["violations"] for r in reports[1::2]) > 0
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == VALIDATOR_MATRIX_SHA256


def test_per_cell_files_of_a_one_replicate_sweep(tmp_path, capsys):
    argv = ["sweep", "--config", str(DEFAULT_CONFIG), "--replicates", "1", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == EXIT_OK
    root = tmp_path / "default"
    upstream = _compact_doc(root / "rep0" / "upstream.json", SWEEP_REP0_UPSTREAM_SHA256)
    for mask, (digest, record_form_digest) in enumerate(
        zip(SWEEP_REP0_SHA256, SWEEP_REP0_RECORD_FORM_SHA256, strict=True)
    ):
        cell = _compact_doc(root / f"combo{mask}" / "rep0.json", digest)
        assert cell.pop("dataset_sha256") == [d["sha256"] for d in upstream["datasets"]]
        _check_record_form({**cell, **upstream}, record_form_digest)
