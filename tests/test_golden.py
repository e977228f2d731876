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
The sampler then drew only the measured variables and their ancestors,
flips for the measured cells only, and each agent prior's truth and
confidence for its covered pairs only. Leaving out a variable that reaches
no measured bit keeps the law of every dataset and every prior, but the
draws at a given seed changed, so every digest below moved once (first 16
hex digits, old -> new). ``ORACLE_STDOUT_SHA256`` did not move: the oracle
walks its own chain. Nor did ``VALIDATE_STDOUT_SHA256``: that report names
only its 0 violations. The validator still reports 0 violations, and its
negative control more than 0.

- ``SWEEP_CSV_SHA256`` 608b9654c023da13 -> 4fc3306482b9e948
- ``SWEEP_SUMMARY_SHA256`` c15903a7420980e7 -> 266669696b423969
- ``RUN_SEED_42_SHA256`` dc48c9f0be493f06 -> 179ab67daf44aef3
- ``RUN_SEED_42_RECORD_FORM_SHA256`` 0096cafa6465588a -> 1e8afc32189c5f95
- ``RUN_SEED_42_DATASETS_SHA256/team0.csv`` 5769b5d6585de58c -> 142b878392474e83
- ``RUN_SEED_42_DATASETS_SHA256/team0.datasheet.json`` 4101dd31f849879e -> 3d40d5b9935b1660
- ``RUN_SEED_42_DATASETS_SHA256/team1.csv`` a30f45d292bc04ca -> d44559eaf529875a
- ``RUN_SEED_42_DATASETS_SHA256/team1.datasheet.json`` d7de339bb6180534 -> d22d75d5b44ab6c7
- ``WIDE_RUN_SEED_7_SHA256`` 6dfa24b26cdb9e2c -> e3ab0895499b2414
- ``WIDE_RUN_SEED_7_RECORD_FORM_SHA256`` 7168ae80a5cd3333 -> 1f0991093c9973c0
- ``BROKEN_VALIDATE_STDOUT_SHA256`` 93c66e8a546fb57b -> 684974b2fe4b9d5a
- ``VALIDATOR_MATRIX_SHA256`` 7d2c3789877f90e8 -> 4f420a6f10cc403b
- ``READ_GRAPH_RUN_TEXT_SHA256`` c994aafc01dc3599 -> 35a7b6dc8947f983
- ``READ_GRAPH_RUN_SHA256`` 9a8a27335c0f2767 -> 46d5893047577b15
- ``SWEEP_REP0_UPSTREAM_SHA256`` f800816a9b8153a1 -> d928184f7e80c476
- ``SWEEP_REP0_SHA256[0]`` 2206d47d5e5030e4 -> 5bb8e001d3bb7d50
- ``SWEEP_REP0_RECORD_FORM_SHA256[0]`` 7a871391a02affe2 -> 93c33f73e084bc1d
- ``SWEEP_REP0_SHA256[1]`` cd8490de329f1647 -> 5f3e61a2df7d4fe7
- ``SWEEP_REP0_RECORD_FORM_SHA256[1]`` c67025caa5691025 -> ca90b38fb6955b13
- ``SWEEP_REP0_SHA256[2]`` 799332b8d4ed0217 -> 99844a6742692ce1
- ``SWEEP_REP0_RECORD_FORM_SHA256[2]`` d9ca6ca55766f196 -> e96ede8e6994a3f6
- ``SWEEP_REP0_SHA256[3]`` 2c62036f0caa61a5 -> fe605ff2a9488071
- ``SWEEP_REP0_RECORD_FORM_SHA256[3]`` b072170068904dc2 -> cc7cf3da9beb8d1c
- ``SWEEP_REP0_SHA256[4]`` 7173ac8428338bc3 -> bdde4c0b5ba63a00
- ``SWEEP_REP0_RECORD_FORM_SHA256[4]`` 13249186d1bc0f45 -> 1edebb150bd51328
- ``SWEEP_REP0_SHA256[5]`` b0cd746f9dbc9d4b -> 3dc2dc545ecbc6e0
- ``SWEEP_REP0_RECORD_FORM_SHA256[5]`` 920dc69fb042d569 -> 89a1a8741b4e68a9
- ``SWEEP_REP0_SHA256[6]`` c15214a15e4f8792 -> b0b293b41d692b5c
- ``SWEEP_REP0_RECORD_FORM_SHA256[6]`` 913e9e01bb0495e0 -> 3d906dd5096344fb
- ``SWEEP_REP0_SHA256[7]`` b51229331bb98afb -> 367ef7346490289c
- ``SWEEP_REP0_RECORD_FORM_SHA256[7]`` 3bf31ebcb7f62a2d -> 5065d0caab6f2353

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

SWEEP_CSV_SHA256 = "4fc3306482b9e9486a32247f7e5c4fca640faa3a12fe2e3c3fe1a654c3088c21"
SWEEP_SUMMARY_SHA256 = "266669696b42396959ee7885d93f149fcaae9fb3ed15ad157e0fec8b162bc847"
RUN_SEED_42_SHA256 = "179ab67daf44aef3be620690a1212736f0c4d65ebd94241fd7b9443ad4a81c0c"
RUN_SEED_42_RECORD_FORM_SHA256 = "1e8afc32189c5f95779fb8acb34215a1a7349acd450b36ff158d997a72187bbd"
WIDE_RUN_SEED_7_SHA256 = "e3ab0895499b24149e69edbaefeeeea7f9ac79547a2912aa2707efc4e6143ab7"
WIDE_RUN_SEED_7_RECORD_FORM_SHA256 = "1f0991093c9973c0ee6e94538f008a83ee9fee10b6c8516271c6933dc8203c9c"

#: Dataset exports of ``run --seed 42``: CSV and datasheet sidecar per team.
RUN_SEED_42_DATASETS_SHA256 = {
    "team0.csv": "142b878392474e8392312e551258a1205e596dac3aab4777969855e3b5366e2a",
    "team0.datasheet.json": "3d40d5b9935b16600242d3416e5272c970b8d43aa5eb87a0b45b2796de93af30",
    "team1.csv": "d44559eaf529875a57818d92bb5978b2b0247cdb967a2bf7cc8ff96add0a4694",
    "team1.datasheet.json": "d22d75d5b44ab6c7cb03e2542ad8fa45c6ea4b38210e1a0a5ce23c60a4047ed9",
}
VALIDATE_STDOUT_SHA256 = "dda64a139d2e12ed83f58772a73eff3fddef1b3c8e0b9ce2c4599dc50a5342d9"
#: ``validate --trials 100 --seed 1 --break-passthrough``: the negative control.
BROKEN_VALIDATE_STDOUT_SHA256 = "684974b2fe4b9d5a94548c32c563a7b636f2015a6979a1e37d62e82700149330"
#: ``validate_monotonicity(150, ...)`` reports over three configs x seeds 1-3
#: x with and without the negative control.
VALIDATOR_MATRIX_SHA256 = "4f420a6f10cc403bc59700a1ede140551a63d494c1568b5548870db270e6e7c9"
ORACLE_STDOUT_SHA256 = "a0bc874c2255995a79e93b0a0167831790565dd6346c3b709c00056caa082999"
#: ``rep0/upstream.json`` and ``combo<mask>/rep0.json`` of a one-replicate
#: CLI sweep of the default config.
SWEEP_REP0_UPSTREAM_SHA256 = "d928184f7e80c476bd57531e6f05bd3292ad485331855d4e7815a4eb2c034e40"
SWEEP_REP0_SHA256 = (
    "5bb8e001d3bb7d50d911582ca34b36c3c68eac4c0674698f8f62a974196bb26e",
    "5f3e61a2df7d4fe7194b19d8be7317b1bab153cbd0db11bcf255b17c389200e4",
    "99844a6742692ce1eeb0dcd870a976bdc7e3fb56425cd0517bd239d64dc30f38",
    "fe605ff2a94880718427f9f6ad88fb908a0766de1c5631793f23034c054a6a9b",
    "bdde4c0b5ba63a00a4a04e2d2ffc8f827dfba094bff597676dc7096b3e43f6a0",
    "3dc2dc545ecbc6e02b1a245f85bcef8d7d5a5ae178e176ff7580f7076e64b2e6",
    "b0b293b41d692b5cb37580cf653df3e8cd275ec5cbcc07851f6489e4c157241f",
    "367ef7346490289c383c5fc79ef1402bc04721e91b20a87fb8d05ed449871a93",
)
#: ``run(...).to_json_text()`` of ``READ_GRAPH_CONFIG`` at seed 3, with its
#: teams refilled and encoded compact again. The digest was taken before the
#: read graph and the channel deliveries moved into ``config``, so it shows
#: that the move kept every byte of a run with explicit wiring and peer
#: grants, which no other golden run has.
READ_GRAPH_RUN_SHA256 = "46d5893047577b15ff3aec71658cbb5c52b4ddd1c80abca12bbdcdcf49e0abad"
#: The same run's ``to_json_text()`` as written, teams named by digest.
READ_GRAPH_RUN_TEXT_SHA256 = "35a7b6dc8947f98327a7ad26cf1432d2a35c46e5d83ccafc46f5c0ca4db293b0"
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
    "93c33f73e084bc1d394f310b54459ecf073e840b6471c4eb7a41e7ec73ab1037",
    "ca90b38fb6955b130d71857f3d86fd6c8fed331b587e92c23561d4629f963c16",
    "e96ede8e6994a3f61ca49ba4f6726bdf322e0151a484e1dee4ec4f6e7c27963d",
    "cc7cf3da9beb8d1c2f939ba3e7f1652b70a1c06ea1ebbcd7fb135d14afc76705",
    "1edebb150bd51328a64652de29621f863b3d1a5928a28ad2a86dd3d6548ea31e",
    "89a1a8741b4e68a9505523fba5d3d49bff2343954cc180dac605bc10f9654fcf",
    "3d906dd5096344fbfa32baf53386e9487b0890c431fcf4d49334a9ff08976876",
    "5065d0caab6f2353a03c979c2587f6571b98965ad2cfbad53cf94a3aa08efb37",
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
