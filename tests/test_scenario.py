"""Scenario schema round-trips and strict validation."""

import copy
import json
import re
from pathlib import Path

import pytest

from edgemig.errors import ScenarioError
from edgemig.scenario import (
    SweepSpec,
    dumps_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "scenario.json"


@pytest.fixture()
def raw():
    return json.loads(DEMO.read_text())


def test_demo_scenario_round_trips_exactly(raw):
    scenario = parse_scenario(raw)
    assert scenario_to_dict(scenario) == raw


def test_serialized_text_is_a_fixed_point(raw):
    scenario = parse_scenario(raw)
    text = dumps_scenario(scenario)
    again = dumps_scenario(parse_scenario(json.loads(text)))
    assert again == text
    assert text.endswith("\n")


def test_save_and_load(tmp_path, raw):
    scenario = parse_scenario(raw)
    out = tmp_path / "copy.json"
    save_scenario(scenario, out)
    assert load_scenario(out) == scenario


def test_lookups(raw):
    scenario = parse_scenario(raw)
    assert scenario.host("edge-a").role == "source"
    link = scenario.link_between("edge-b", "edge-a")  # order-insensitive
    assert link is not None and link.bandwidth_mbps == 1000.0
    assert scenario.link_between("edge-a", "nowhere") is None
    assert scenario.profile_by_id("packet-probe").profile.state_size_bytes \
        == 524288


def test_unknown_top_level_key_rejected(raw):
    raw["surprise"] = 1
    with pytest.raises(ScenarioError, match="surprise"):
        parse_scenario(raw)


def test_unknown_nested_key_rejected(raw):
    raw["hosts"][0]["color"] = "red"
    with pytest.raises(ScenarioError, match="color"):
        parse_scenario(raw)


def test_bad_host_role_rejected(raw):
    raw["hosts"][0]["role"] = "bystander"
    with pytest.raises(ScenarioError):
        parse_scenario(raw)


def test_duplicate_host_ids_rejected(raw):
    raw["hosts"][1]["id"] = raw["hosts"][0]["id"]
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(raw)


def test_task_must_reference_known_profile(raw):
    raw["task"]["ms_profile"] = "missing-profile"
    with pytest.raises(ScenarioError):
        parse_scenario(raw)


def test_task_must_reference_known_hosts(raw):
    raw["task"]["client"] = "ghost"
    with pytest.raises(ScenarioError):
        parse_scenario(raw)


def test_missing_required_section(raw):
    del raw["hosts"]
    with pytest.raises(ScenarioError, match="hosts"):
        parse_scenario(raw)


def test_malformed_json_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_sweep_targets_inclusive_grid(raw):
    scenario = parse_scenario(raw)
    assert scenario.sweep is not None
    targets = scenario.sweep.targets()
    assert targets[0] == 1.0
    assert targets[-1] == 10.0
    assert len(targets) == 19


def test_optional_sections_may_be_absent(raw):
    minimal = copy.deepcopy(raw)
    for key in ("task", "sweep", "bandwidth_distribution", "dirty_samples",
                "calibration_runs"):
        minimal.pop(key, None)
    scenario = parse_scenario(minimal)
    assert scenario.task is None and scenario.sweep is None
    assert scenario_to_dict(scenario) == minimal


def _key_path(path):
    return path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                             for k in path[1:])


@pytest.mark.parametrize("path, value", [
    (("sweep", "step_s"), float("nan")),
    (("links", 0, "latency_s"), float("nan")),
    (("ms_profiles", 0, "dirty_rate_pages_per_s"), float("nan")),
    (("links", 1, "bandwidth_mbps"), float("inf")),
    (("model_params", "ckpt_fixed_s"), -float("inf")),
    (("calibration_runs", 2, "image_bytes"), float("inf")),
])
def test_non_finite_number_rejected_with_its_key_path(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ScenarioError, match=f"^{re.escape(_key_path(path))}: "
                                            ".* is not a finite number"):
        parse_scenario(raw)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_json_literal_rejected_on_load(tmp_path, literal):
    text = DEMO.read_text()
    assert '"step_s": 0.5' in text
    path = tmp_path / "bad.json"
    path.write_text(text.replace('"step_s": 0.5', f'"step_s": {literal}'))
    with pytest.raises(ScenarioError, match=r"sweep\.step_s"):
        load_scenario(path)


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), True, "7", None])
def test_bad_seed_rejected(raw, seed):
    raw["seed"] = seed
    with pytest.raises(ScenarioError, match="seed must be a whole number"):
        parse_scenario(raw)


def test_whole_float_seed_accepted(raw):
    raw["seed"] = 3.0
    assert parse_scenario(raw).seed == 3


@pytest.mark.parametrize("field", ["from_s", "to_s", "step_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sweep_spec_rejects_non_finite_bounds(field, value):
    bounds = {"from_s": 1.0, "to_s": 2.0, "step_s": 0.5, field: value}
    with pytest.raises(ScenarioError, match="finite"):
        SweepSpec(variable="target_duration_s", profiles=("p",), **bounds)
