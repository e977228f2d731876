"""Tests for config parsing, validation, and channel policy encoding."""

import re
import sys
import time

import pytest

from ktsim.config import (
    ChannelPolicy,
    ScenarioConfig,
    TeamSpec,
    default_scenario,
    scenario_from_dict,
)
from ktsim.errors import ConfigError
from ktsim.experimenting import ExperimentSpec
from ktsim.knowledge import AgentSpec
from ktsim.labeling import LabelingParams
from ktsim.mining import MiningParams


def test_channel_mask_round_trip():
    for mask in range(8):
        policy = ChannelPolicy.from_mask(mask)
        assert policy.mask == mask
    with pytest.raises(ConfigError):
        ChannelPolicy.from_mask(8)


@pytest.mark.parametrize("mask", range(8))
def test_each_channel_delivers_exactly_what_it_carries(mask):
    # ch1: datasheet to miner; ch2: miner knowledge to labeler; ch3:
    # experimenter knowledge and datasheet to labeler; a closed channel gives None.
    channels = ChannelPolicy.from_mask(mask)
    datasheet, miner_kb, exp_kb = object(), object(), object()
    assert channels.to_miner(datasheet) is (datasheet if mask & 1 else None)
    delivered = channels.to_labeler(miner_kb, exp_kb, datasheet)
    expected = (miner_kb if mask & 2 else None, exp_kb if mask & 4 else None, datasheet if mask & 4 else None)
    assert len(delivered) == 3 and all(got is want for got, want in zip(delivered, expected))


def test_default_config_round_trips_through_json():
    cfg = default_scenario()
    parsed = scenario_from_dict(cfg.to_json())
    assert parsed == cfg


def test_schema_field_is_required():
    data = default_scenario().to_json()
    del data["schema"]
    with pytest.raises(ConfigError, match="schema"):
        scenario_from_dict(data)
    data["schema"] = 2
    with pytest.raises(ConfigError, match="schema"):
        scenario_from_dict(data)


def test_unknown_keys_are_rejected_with_a_path():
    data = default_scenario().to_json()
    data["experiment"]["typo_field"] = 1
    with pytest.raises(ConfigError, match="experiment"):
        scenario_from_dict(data)


def test_out_of_range_values_name_their_field():
    data = default_scenario().to_json()
    data["experiment"]["noise_rate"] = 0.5
    with pytest.raises(ConfigError, match=r"^experiment: noise_rate must lie in \[0, 0\.5\), got 0\.5$"):
        scenario_from_dict(data)

    data = default_scenario().to_json()
    data["p_stay"] = 0.5
    with pytest.raises(ConfigError, match="p_stay"):
        scenario_from_dict(data)

    data = default_scenario().to_json()
    data["teams"]["mining"]["size"] = 99
    with pytest.raises(ConfigError, match="teams.mining.size"):
        scenario_from_dict(data)


THRESHOLDS = "thresholds must satisfy 0 <= ind_threshold < dep_threshold <= 1, "

#: (record, its path in a config, field, out-of-range value, the record's message).
RECORD_RANGE_ERRORS = [
    (AgentSpec, "agents", "count", 0, "count must be >= 1, got 0"),
    (AgentSpec, "agents", "coverage", -0.1, "coverage must lie in [0, 1], got -0.1"),
    (AgentSpec, "agents", "coverage", 1.5, "coverage must lie in [0, 1], got 1.5"),
    (AgentSpec, "agents", "accuracy", 1.5, "accuracy must lie in [0, 1], got 1.5"),
    *(
        row
        for role in ("experimenting", "mining", "labeling")
        for row in (
            (TeamSpec, f"teams.{role}", "count", 0, "count must be >= 1, got 0"),
            (TeamSpec, f"teams.{role}", "size", 0, "size must be >= 1, got 0"),
        )
    ),
    (ExperimentSpec, "experiment", "selection_prob", 1.5, "selection_prob must lie in [0, 1], got 1.5"),
    (ExperimentSpec, "experiment", "noise_rate", -0.1, "noise_rate must lie in [0, 0.5), got -0.1"),
    (ExperimentSpec, "experiment", "noise_rate", 0.5, "noise_rate must lie in [0, 0.5), got 0.5"),
    (ExperimentSpec, "experiment", "samples", 0, "sample count must be >= 1, got 0"),
    *(
        row
        for cls, path in ((MiningParams, "mining"), (LabelingParams, "labeling"))
        for row in (
            (cls, path, "veto_confidence", 0.0, "veto_confidence must lie in (0, 1], got 0.0"),
            (cls, path, "dep_threshold", 1.5, THRESHOLDS + "got ind=0.05 dep=1.5"),
            (cls, path, "dep_threshold", 0.05, THRESHOLDS + "got ind=0.05 dep=0.05"),
            (cls, path, "ind_threshold", -0.1, THRESHOLDS + "got ind=-0.1 dep=0.3"),
        )
    ),
    (LabelingParams, "labeling", "trust_confidence", 1.5, "trust_confidence must lie in (0, 1], got 1.5"),
]


@pytest.mark.parametrize(
    ("cls", "path", "name", "value", "message"),
    RECORD_RANGE_ERRORS,
    ids=[f"{path}.{name}={value}" for _, path, name, value, _ in RECORD_RANGE_ERRORS],
)
def test_every_record_checks_its_own_fields(cls, path, name, value, message):
    # Every numeric field of a sub-record is checked when the record is
    # built, and the parser names the record's path before the message.
    # target_width and the upper bound on samples depend on m, so the
    # scenario checks them (test_cross_record_rules_are_the_scenarios).
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cls(**{name: value})
    data = default_scenario().to_json()
    record = data
    for part in path.split("."):
        record = record[part]
    record[name] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        scenario_from_dict(data)


def test_cross_record_rules_are_the_scenarios():
    assert ExperimentSpec(target_width=31).target_width == 31
    assert TeamSpec(size=13).size == 13
    data = default_scenario().to_json()
    data["experiment"]["target_width"] = 31
    with pytest.raises(ConfigError, match=r"^experiment\.target_width: must lie in \[2, 30\], got 31$"):
        scenario_from_dict(data)
    data = default_scenario().to_json()
    data["teams"]["labeling"]["size"] = 13
    with pytest.raises(ConfigError, match=r"^teams\.labeling\.size: must not exceed agents\.count=12, got 13$"):
        scenario_from_dict(data)


def test_a_sub_record_error_comes_before_the_roots():
    # Sub-records are built, and so checked, before the scenario itself.
    data = default_scenario().to_json()
    data["m"] = 1
    data["agents"]["coverage"] = 2
    with pytest.raises(ConfigError, match=r"^agents: coverage must lie in \[0, 1\], got 2\.0$"):
        scenario_from_dict(data)
    data["agents"]["coverage"] = 0.5
    with pytest.raises(ConfigError, match=r"^m: must be >= 2, got 1$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("m", [4, 30])
def test_samples_are_bounded_by_the_largest_addressable_array(m):
    # The largest sampling array is max(m, 8) * (int(2.2 * samples) + 8)
    # bytes: the (m, rows) uint8 table, or one float64 draw of that many rows.
    data = default_scenario().to_json()
    data["m"] = m
    data["experiment"]["target_width"] = 2
    last = {4: 524055229366748576, 30: 139748061164466280}[m]
    data["experiment"]["samples"] = last
    assert scenario_from_dict(data).experiment.samples == last
    for too_many in (last + 1, sys.maxsize + 1, 10**400):
        data["experiment"]["samples"] = too_many
        with pytest.raises(ConfigError, match="^experiment.samples: must keep the largest sampling array within"):
            scenario_from_dict(data)


def test_negative_master_seed_names_its_field():
    data = default_scenario().to_json()
    data["master_seed"] = -1
    with pytest.raises(ConfigError, match="^master_seed: "):
        scenario_from_dict(data)
    data["master_seed"] = 0
    assert scenario_from_dict(data).master_seed == 0


def test_peer_access_indices_are_validated():
    data = default_scenario().to_json()
    data["peer_access"]["mining"] = [[0, 0]]
    with pytest.raises(ConfigError, match="peer_access.mining"):
        scenario_from_dict(data)
    data["peer_access"]["mining"] = [[0, 5]]
    with pytest.raises(ConfigError, match="peer_access.mining"):
        scenario_from_dict(data)


def test_every_peer_grant_among_200_miners_validates_in_linear_time():
    data = default_scenario().to_json()
    data["teams"]["mining"]["count"] = 200
    data["peer_access"]["mining"] = [[c, s] for c in range(200) for s in range(200) if c != s]
    start = time.perf_counter()
    assert len(scenario_from_dict(data).peer_access.mining) == 39_800
    assert time.perf_counter() - start < 2.0
    data["peer_access"]["mining"].append([7, 3])
    with pytest.raises(ConfigError, match=r"^peer_access\.mining\[39800\]: repeats an earlier entry$"):
        scenario_from_dict(data)


def test_labeling_wiring_must_reference_mined_products():
    data = default_scenario().to_json()
    data["wiring"]["mining"] = [[0, 0]]
    data["wiring"]["labeling"] = [[0, 1, 0]]  # dataset 1 is never mined by miner 0
    with pytest.raises(ConfigError, match="wiring.labeling"):
        scenario_from_dict(data)


@pytest.mark.parametrize(("section", "entries", "message"), [
    ("peer_access.mining", [[0, 1], [2, 0]], "peer_access.mining[1]: consumer index 2 out of range [0, 2)"),
    ("peer_access.mining", [[0, 1], [1, 2]], "peer_access.mining[1]: source index 2 out of range [0, 2)"),
    ("peer_access.mining", [[0, 1], [1, 1]], "peer_access.mining[1]: a mining team cannot be its own peer"),
    ("peer_access.mining", [[0, 1], [0, 1]], "peer_access.mining[1]: repeats an earlier entry"),
    ("peer_access.labeling", [[0, 0], [2, 0]], "peer_access.labeling[1]: consumer index 2 out of range [0, 2)"),
    ("peer_access.labeling", [[0, 0], [1, 2]], "peer_access.labeling[1]: source index 2 out of range [0, 2)"),
    ("peer_access.labeling", [[1, 1], [1, 1]], "peer_access.labeling[1]: repeats an earlier entry"),
    ("wiring.mining", [], "wiring.mining: must list at least one (miner, experimenter) pair"),
    ("wiring.mining", [[0, 0], [2, 0]], "wiring.mining[1]: miner index 2 out of range [0, 2)"),
    ("wiring.mining", [[0, 0], [0, 2]], "wiring.mining[1]: experimenter index 2 out of range [0, 2)"),
    ("wiring.mining", [[0, 1], [0, 1]], "wiring.mining[1]: repeats an earlier entry"),
    ("wiring.labeling", [], "wiring.labeling: must list at least one (labeler, experimenter, miner) triple"),
    ("wiring.labeling", [[0, 0, 0], [2, 0, 0]], "wiring.labeling[1]: labeler index 2 out of range [0, 2)"),
    ("wiring.labeling", [[0, 0, 0], [0, 2, 0]], "wiring.labeling[1]: no mining product exists for miner 0 on dataset 2"),
    ("wiring.labeling", [[1, 1, 1], [1, 1, 1]], "wiring.labeling[1]: repeats an earlier entry"),
])
def test_each_index_list_error_names_its_entry(section, entries, message):
    data = default_scenario().to_json()
    key, field = section.split(".")
    data[key][field] = entries
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(data)


def test_index_lists_report_their_first_broken_entry_in_list_order():
    # Each list is walked once, entry by entry: an entry's repeat comes before
    # a later entry's range error, and a peer list comes before the wiring.
    data = default_scenario().to_json()
    data["peer_access"]["mining"] = [[0, 1], [0, 1], [0, 9]]
    data["wiring"]["mining"] = [[9, 0]]
    with pytest.raises(ConfigError, match=r"^peer_access\.mining\[1\]: repeats an earlier entry$"):
        scenario_from_dict(data)


def test_self_driving_requires_matching_team_specs():
    data = default_scenario().to_json()
    data["self_driving"] = True
    data["teams"]["mining"]["count"] = 3
    with pytest.raises(ConfigError, match="self_driving"):
        scenario_from_dict(data)


def test_partial_documents_take_defaults():
    cfg = scenario_from_dict({"schema": 1, "name": "tiny", "m": 16, "tree_count": 2})
    assert cfg.name == "tiny"
    assert cfg.m == 16
    assert cfg.agents.count == ScenarioConfig().agents.count
