"""Scenario schema round-trips and strict validation."""

import copy
import dataclasses
import json
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgemig.errors import ScenarioError
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    DEFAULT_PAGE_SIZE,
    ModelParams,
    MsProfile,
)
from edgemig.orchestrator import BandwidthDistribution
from edgemig.scenario import (
    HOST_ROLES,
    MAX_SWEEP_TARGETS,
    SimProfile,
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


@pytest.mark.parametrize("path", [
    ("ms_profiles", 0, "state_size_bytes"),
    ("ms_profiles", 0, "cpu_context_bytes"),
    ("ms_profiles", 1, "state_size_bytes"),
    ("dirty_samples", 0, "pages_modified"),
    ("links", 0, "latency_s"),
    ("seed",),
], ids=lambda path: ".".join(map(str, path)))
def test_whole_number_beyond_float_range_rejected(raw, path):
    # Rejected on load, before any float() of it can raise OverflowError.
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10 ** 400
    with pytest.raises(ScenarioError, match=f"^{re.escape(_key_path(path))}: "
                                            "whole number too large"):
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


def test_sweep_profile_listed_twice_rejected(raw):
    # Accepted before: two rows per target for one (target, profile).
    raw["sweep"]["profiles"] = ["stream-analytics", "packet-probe",
                                "stream-analytics"]
    with pytest.raises(ScenarioError, match="^sweep lists profile "
                                            "'stream-analytics' twice$"):
        parse_scenario(raw)


@pytest.mark.parametrize("step_s", [1e-300, 8e-6])
def test_sweep_grid_too_large_to_enumerate_rejected(raw, step_s):
    # 1e-300 does not even move from_s: from_s + step_s == from_s.
    raw["sweep"]["step_s"] = step_s
    with pytest.raises(ScenarioError, match=r"^sweep grid has \S+ targets, "
                                            "more than the 1,000,000"):
        parse_scenario(raw)


def test_sweep_grid_of_the_largest_size_accepted(raw):
    raw["sweep"].update(from_s=1.0, to_s=1.0 + 999_999 * 1e-3, step_s=1e-3)
    assert len(parse_scenario(raw).sweep.targets()) == 1_000_000


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
def test_sim_profile_rejects_bad_rate_built_in_code(rate):
    profile = MsProfile(state_size_bytes=4096, dirty_rate_norm=0.1)
    with pytest.raises(ScenarioError, match="dirty_rate_pages_per_s"):
        SimProfile("x", profile, rate)


# ---------------------------------------------------------------------------
# Codec: documents in saved form round-trip byte for byte

M = BYTES_PER_S_PER_MBPS
_names = st.text(min_size=1, max_size=6)
_pos = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                 allow_infinity=False, exclude_min=True)
_nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
_whole = st.integers(min_value=0, max_value=2**40)


def _mbps(draw):
    # Saving writes bytes/s / M, so a saved Mbps value is such a quotient.
    return draw(st.floats(min_value=1.0, max_value=1e12)) / M


def _items(draw, make):
    return [make() for _ in range(draw(st.integers(1, 3)))]


@st.composite
def saved_documents(draw):
    hosts = draw(st.lists(_names, min_size=2, max_size=3, unique=True))
    pairs = draw(st.lists(st.sampled_from(list(combinations(hosts, 2))),
                          min_size=1, max_size=3, unique=True))
    profiles = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    doc = {
        "seed": draw(_whole),
        "hosts": [{"id": h, "role": draw(st.sampled_from(HOST_ROLES))}
                  for h in hosts],
        "links": [{"from": a, "to": b, "bandwidth_mbps": draw(_pos),
                   "latency_s": draw(_nonneg)}
                  for a, b in (p[::draw(st.sampled_from((1, -1)))]
                               for p in pairs)],
        "ms_profiles": [{"id": p, "state_size_bytes": draw(_whole),
                         "page_size_bytes": draw(st.integers(1, 2**16)),
                         "dirty_rate_norm": draw(st.floats(0.0, 1.0)),
                         "cpu_context_bytes": draw(_whole),
                         "dirty_rate_pages_per_s": draw(_nonneg)}
                        for p in profiles],
        "model_params": {name: draw(_nonneg)
                         for name in ModelParams.__dataclass_fields__},
    }
    if draw(st.booleans()):
        objective = draw(st.sampled_from(["minimize_resources",
                                          "minimize_downtime"]))
        task = {"container_id": draw(_names), "objective": objective}
        for key, needed in (("target_downtime_s", "minimize_resources"),
                            ("target_duration_s", "minimize_downtime")):
            if objective == needed or draw(st.booleans()):
                task[key] = draw(_pos)
        source, destination = hosts[:2]
        task.update({"ms_profile": draw(st.sampled_from(profiles)),
                     "source": source, "destination": destination,
                     "client": draw(st.sampled_from(hosts)),
                     "orchestrator": draw(st.sampled_from(hosts))})
        doc["task"] = task
    if draw(st.booleans()):
        from_s, to_s = sorted((draw(_nonneg), draw(_nonneg)))
        step_s = draw(_pos)
        assume((to_s - from_s) / step_s < MAX_SWEEP_TARGETS)
        doc["sweep"] = {
            "variable": draw(st.sampled_from(["target_duration_s",
                                              "target_downtime_s"])),
            "from_s": from_s, "to_s": to_s, "step_s": step_s,
            "profiles": draw(st.lists(st.sampled_from(profiles), min_size=1,
                                      max_size=3, unique=True))}
    if draw(st.booleans()):
        lower, upper = sorted({_mbps(draw), _mbps(draw)} | {0.0})[-2:]
        doc["bandwidth_distribution"] = {
            "mean_mbps": _mbps(draw), "std_mbps": _mbps(draw),
            "lower_mbps": lower, "upper_mbps": upper}
    if draw(st.booleans()):
        doc["dirty_samples"] = _items(draw, lambda: {
            "window_s": draw(_pos), "pages_modified": draw(_whole)})
    if draw(st.booleans()):
        doc["calibration_runs"] = _items(draw, lambda: {
            "image_bytes": draw(_nonneg), "checkpoint_s": draw(_nonneg),
            "restore_s": draw(_nonneg), "transfer_s": draw(_nonneg),
            "bandwidth_mbps": _mbps(draw)})
    return doc


@settings(max_examples=200, deadline=None)
@given(saved_documents())
def test_saved_form_round_trips_byte_for_byte(doc):
    assert dumps_scenario(parse_scenario(doc)) \
        == json.dumps(doc, indent=2) + "\n"


def test_mbps_value_saves_as_read(raw):
    raw["bandwidth_distribution"]["std_mbps"] = 34.278927656647284
    scenario = parse_scenario(raw)
    text = dumps_scenario(scenario)
    assert '"std_mbps": 34.278927656647284,' in text
    assert dumps_scenario(parse_scenario(json.loads(text))) == text
    # A value set after loading saves from the bytes/s held.
    dist = BandwidthDistribution.from_mean_std(100.0 * M, 34.0 * M)
    changed = dataclasses.replace(scenario, bandwidth_distribution=dist)
    assert scenario_to_dict(changed)["bandwidth_distribution"] == {
        "mean_mbps": 100.0, "std_mbps": 34.0, "lower_mbps": 0.0,
        "upper_mbps": 270.0}


_mbps_values = st.floats(min_value=1e-9, max_value=1e12)


@settings(max_examples=300, deadline=None)
@given(mean=_mbps_values, std=st.floats(0.0, 1e12),
       lower=st.floats(0.0, 1e12), upper=_mbps_values,
       bandwidth=_mbps_values)
def test_every_mbps_field_saves_as_read(mean, std, lower, upper, bandwidth):
    assume(lower * M < upper * M)
    raw = json.loads(DEMO.read_text())
    dist = {"mean_mbps": mean, "std_mbps": std, "lower_mbps": lower,
            "upper_mbps": upper}
    raw["bandwidth_distribution"] = dist
    raw["calibration_runs"][-1]["bandwidth_mbps"] = bandwidth
    text = dumps_scenario(parse_scenario(raw))
    saved = json.loads(text)
    assert saved["bandwidth_distribution"] == dist
    assert saved["calibration_runs"][-1]["bandwidth_mbps"] == bandwidth
    assert dumps_scenario(parse_scenario(saved)) == text


def _distribution_doc(raw, **bounds):
    raw["bandwidth_distribution"] = {"mean_mbps": 1000.3, "std_mbps": 99.7,
                                     **bounds}
    return raw


def test_distribution_without_bounds_uses_from_mean_std(raw):
    scenario = parse_scenario(_distribution_doc(raw))
    assert scenario.bandwidth_distribution \
        == BandwidthDistribution.from_mean_std(1000.3 * M, 99.7 * M)
    saved = scenario_to_dict(scenario)["bandwidth_distribution"]
    assert list(saved) == ["mean_mbps", "std_mbps", "lower_mbps",
                           "upper_mbps"]
    assert saved["lower_mbps"] == 0.0


def test_distribution_with_only_a_lower_bound_defaults_upper_in_mbps(raw):
    scenario = parse_scenario(_distribution_doc(raw, lower_mbps=10.0))
    dist = scenario.bandwidth_distribution
    assert dist.lower_bytes_per_s == 10.0 * M
    assert dist.upper_bytes_per_s == (1000.3 + 5.0 * 99.7) * M
    saved = scenario_to_dict(scenario)["bandwidth_distribution"]
    assert list(saved) == ["mean_mbps", "std_mbps", "lower_mbps",
                           "upper_mbps"]
    assert saved["lower_mbps"] == 10.0


def test_document_without_defaulted_keys_saves_to_a_fixed_point(raw):
    for link in raw["links"]:
        del link["latency_s"]
    for profile in raw["ms_profiles"]:
        for key in ("page_size_bytes", "cpu_context_bytes",
                    "dirty_rate_pages_per_s"):
            del profile[key]
    raw["model_params"] = {}
    text = dumps_scenario(parse_scenario(raw))
    saved = json.loads(text)
    assert saved["links"][0]["latency_s"] == 0.0
    assert saved["ms_profiles"][0]["page_size_bytes"] == DEFAULT_PAGE_SIZE
    assert saved["ms_profiles"][0]["cpu_context_bytes"] == 0
    assert saved["ms_profiles"][0]["dirty_rate_pages_per_s"] == 0.0
    assert saved["model_params"] == dict.fromkeys(
        ModelParams.__dataclass_fields__, 0.0)
    assert dumps_scenario(parse_scenario(saved)) == text


# ---------------------------------------------------------------------------
# Every field is checked against its kind


def _set_everywhere(raw, section, key, value):
    items = raw[section] if isinstance(raw[section], list) else [raw[section]]
    for item in items:
        item[key] = value


@pytest.mark.parametrize("section, key, value, message", [
    ("links", "latency_s", "NaN", "links[0].latency_s: expected a number"),
    ("ms_profiles", "state_size_bytes", 10485760.7,
     "ms_profiles[0].state_size_bytes must be a whole number"),
    ("ms_profiles", "page_size_bytes", True,
     "ms_profiles[0].page_size_bytes must be a whole number"),
    ("hosts", "id", 7, "hosts[0].id: expected a string"),
    ("sweep", "profiles", "stream-analytics",
     "sweep.profiles: expected a list of strings"),
    ("task", "objective", "fastest", "task.objective: expected one of"),
    ("task", "target_duration_s", None,
     "task.target_duration_s: expected a number"),
    ("model_params", "ckpt_fixed_s", "0.5",
     "model_params.ckpt_fixed_s: expected a number"),
])
def test_field_of_the_wrong_kind_rejected_with_its_key_path(
        raw, section, key, value, message):
    _set_everywhere(raw, section, key, value)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}"):
        parse_scenario(raw)


@pytest.mark.parametrize("section, value, message", [
    ("hosts", "edge-a", "hosts: expected a list"),
    ("hosts", [{"id": "a", "role": "source"}, {"role": "client"}],
     "hosts[1]: missing key 'id'"),
    ("links", {"from": "edge-a"}, "links: expected a list"),
    ("dirty_samples", [{"window_s": 1.0}, "x"],
     "dirty_samples[0]: missing key 'pages_modified'"),
    ("calibration_runs", [7], "calibration_runs[0]: expected an object"),
    ("task", [], "task: expected an object"),
])
def test_section_of_the_wrong_shape_rejected_with_its_key_path(
        raw, section, value, message):
    raw[section] = value
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}"):
        parse_scenario(raw)


def test_whole_valued_floats_accepted_as_whole_numbers(raw):
    raw["ms_profiles"][0]["state_size_bytes"] = 10485760.0
    raw["dirty_samples"][0]["pages_modified"] = 3.0
    scenario = parse_scenario(raw)
    assert scenario.ms_profiles[0].profile.state_size_bytes == 10485760
    assert isinstance(scenario.dirty_samples[0].pages_modified, int)


def test_second_link_between_the_same_hosts_rejected(raw):
    raw["links"].append({"from": "edge-b", "to": "edge-a",
                         "bandwidth_mbps": 10.0, "latency_s": 0.5})
    with pytest.raises(ScenarioError,
                       match="two links between 'edge-b' and 'edge-a'"):
        parse_scenario(raw)
