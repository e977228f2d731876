"""The record rule: config keys and artifact keys are the record's field names.

One encoder (``Record.to_json``) and one parser (``scenario_from_dict``) are
driven by the dataclass fields. Hypothesis draws small config documents with
ints, floats and bools in every scalar slot; whatever the parser accepts
must run and must survive a round trip through its own JSON form.
"""

import json
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsim import run, write_run_outputs
from ktsim.config import Wiring, default_scenario, scenario_from_dict
from ktsim.errors import ConfigError
from ktsim.records import Record

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


class Color(Enum):
    RED = "red"


@dataclass(frozen=True)
class Inner(Record):
    tags: frozenset
    color: Color


@dataclass(frozen=True)
class Outer(Record):
    name: str
    pairs: tuple
    inner: Inner
    missing: object = None


def test_record_json_is_its_fields_by_name():
    outer = Outer("x", ((1, 2), (3, 4)), Inner(frozenset("fedcba"), Color.RED))
    assert outer.to_json() == {
        "name": "x",
        "pairs": [[1, 2], [3, 4]],
        "inner": {"tags": ["a", "b", "c", "d", "e", "f"], "color": "red"},
        "missing": None,
    }


@dataclass(frozen=True)
class Labeled(Inner):
    label: str


def test_an_extended_record_takes_its_base_fields_from_the_base():
    inner = Inner(frozenset("ab"), Color.RED)
    labeled = Labeled.extend(inner, label="x")
    assert labeled == Labeled(frozenset("ab"), Color.RED, "x")
    assert Labeled.extend(labeled, color=None) == Labeled(frozenset("ab"), None, "x")


def test_shipped_default_config_is_the_default_scenario():
    assert json.loads(DEFAULT_CONFIG.read_text()) == default_scenario().to_json()


def test_index_lists_take_arity_and_nullability_from_the_field_type():
    doc = {"schema": 1, "wiring": {"mining": None, "labeling": [[0, 0, 0]]}}
    assert scenario_from_dict(doc).wiring == Wiring(None, ((0, 0, 0),))


@pytest.mark.parametrize(("key", "value", "message"), [
    ("wiring", {"labeling": [[0, 0]]}, "wiring.labeling[0]: expected a list of 3 integers"),
    ("peer_access", {"mining": [[0, 1, 0]]}, "peer_access.mining[0]: expected a list of 2 integers"),
    ("peer_access", {"labeling": None}, "peer_access.labeling: expected a list"),
])
def test_malformed_index_lists_name_their_field(key, value, message):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"schema": 1, key: value})
    assert str(err.value) == message


def _slot(valid):
    """A scalar slot: in range nine times in ten, else any int, float or bool."""
    anything = st.one_of(st.booleans(), st.integers(-1, 8), st.floats(-0.5, 1.5, allow_nan=False))
    return st.integers(0, 9).flatmap(lambda roll: anything if roll == 0 else valid)


def _record(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


_unit = st.floats(0.0, 1.0)
_team = _record(count=_slot(st.integers(1, 2)), size=_slot(st.integers(1, 3)))
_pair = st.lists(st.integers(0, 2), min_size=2, max_size=2)
_triple = st.lists(st.integers(0, 2), min_size=3, max_size=3)

#: Config documents with m <= 8 and at most 200 samples.
documents = _record(
    {
        "schema": st.just(1),
        "m": _slot(st.integers(4, 8)),
        "experiment": _record(
            {"samples": _slot(st.integers(1, 200)), "target_width": _slot(st.integers(2, 4))},
            selection_prob=_slot(_unit),
            noise_rate=_slot(st.floats(0.0, 0.45)),
        ),
    },
    name=_slot(st.text(max_size=4)),
    tree_count=_slot(st.integers(1, 4)),
    p_stay=_slot(st.floats(0.55, 0.99)),
    agents=_record(count=_slot(st.integers(1, 6)), coverage=_slot(_unit), accuracy=_slot(_unit)),
    teams=_record(experimenting=_team, mining=_team, labeling=_team),
    mining=_record(
        veto_confidence=_slot(st.floats(0.05, 1.0)),
        dep_threshold=_slot(st.floats(0.2, 1.0)),
        ind_threshold=_slot(st.floats(0.0, 0.19)),
    ),
    labeling=_record(
        dep_threshold=_slot(st.floats(0.2, 1.0)),
        ind_threshold=_slot(st.floats(0.0, 0.19)),
        veto_confidence=_slot(st.floats(0.05, 1.0)),
        trust_confidence=_slot(st.floats(0.05, 1.0)),
    ),
    peer_access=_record(mining=st.lists(_pair, max_size=2), labeling=st.lists(_pair, max_size=2)),
    wiring=_record(
        mining=st.none() | st.lists(_pair, min_size=1, max_size=3),
        labeling=st.none() | st.lists(_triple, min_size=1, max_size=3),
    ),
    channels=_record(ch1=_slot(st.booleans()), ch2=_slot(st.booleans()), ch3=_slot(st.booleans())),
    self_driving=_slot(st.booleans()),
    replicates=_slot(st.integers(1, 3)),
    master_seed=_slot(st.integers(0, 2**32)),
)


@settings(max_examples=150, deadline=None)
@given(doc=documents, seed=st.integers(0, 2**32))
def test_every_accepted_config_runs_and_round_trips(doc, seed):
    try:
        cfg = scenario_from_dict(doc)
    except ConfigError:
        return
    _assert_missing_keys_take_defaults(doc, cfg, default_scenario())
    assert scenario_from_dict(cfg.to_json()) == cfg
    result = run(cfg, seed)
    text = result.to_json_text()
    assert json.loads(text)["config"] == cfg.to_json()
    for team, written in zip(result.teams, json.loads(text)["teams"], strict=True):
        kb = team.knowledge
        assert written["knowledge"] == {"claims": len(kb), "sha256": kb.sha256()}
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    with tempfile.TemporaryDirectory() as out:
        assert write_run_outputs(result, out).read_bytes() == text.encode()


def _assert_missing_keys_take_defaults(doc, record, default):
    for f in fields(record):
        value, expected = getattr(record, f.name), getattr(default, f.name)
        if f.name not in doc:
            assert value == expected, f.name
        elif is_dataclass(value):
            _assert_missing_keys_take_defaults(doc[f.name], value, expected)


def test_removed_labeling_switch_is_an_unknown_key():
    doc = default_scenario().to_json()
    doc["labeling"]["break_passthrough"] = False
    with pytest.raises(ConfigError, match=r"^labeling: unknown keys \['break_passthrough'\]$"):
        scenario_from_dict(doc)
