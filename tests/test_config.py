"""Tests for config parsing, validation, and channel policy encoding."""

import sys
import time

import pytest

from ktsim.config import (
    ChannelPolicy,
    ScenarioConfig,
    default_scenario,
    scenario_from_dict,
)
from ktsim.errors import ConfigError


def test_channel_mask_round_trip():
    for mask in range(8):
        policy = ChannelPolicy.from_mask(mask)
        assert policy.mask == mask
    with pytest.raises(ConfigError):
        ChannelPolicy.from_mask(8)


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
    with pytest.raises(ConfigError, match="experiment.noise_rate"):
        scenario_from_dict(data)

    data = default_scenario().to_json()
    data["p_stay"] = 0.5
    with pytest.raises(ConfigError, match="p_stay"):
        scenario_from_dict(data)

    data = default_scenario().to_json()
    data["teams"]["mining"]["size"] = 99
    with pytest.raises(ConfigError, match="teams.mining.size"):
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
