"""Scenario schema: parsed values, defaults and strict validation."""

import copy
import json
import re
from pathlib import Path
from types import MappingProxyType

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
from edgemig.orchestrator import (
    BandwidthDistribution,
    MigrationTask,
    Objective,
)
from edgemig.profiler import CalibrationRun, DirtySample
from edgemig.scenario import (
    Host,
    Link,
    Scenario,
    SimProfile,
    SweepSpec,
    TaskSection,
    load_scenario,
    parse_scenario,
)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "scenario.json"


@pytest.fixture()
def raw():
    return json.loads(DEMO.read_text())


def test_lookups(raw):
    scenario = parse_scenario(raw)
    link = scenario.link_between("edge-b", "edge-a")  # order-insensitive
    assert link is not None and link.bandwidth_mbps == 1000.0
    assert scenario.link_between("edge-a", "nowhere") is None
    assert scenario.profile_by_id("packet-probe").profile.state_size_bytes \
        == 524288


def test_demo_scenario_reads_every_value(raw):
    task, dist = raw["task"], raw["bandwidth_distribution"]
    assert parse_scenario(raw) == Scenario(
        seed=raw["seed"],
        hosts=tuple(Host(h["id"], h["role"]) for h in raw["hosts"]),
        links=tuple(Link(k["from"], k["to"], k["bandwidth_mbps"],
                         k["latency_s"]) for k in raw["links"]),
        ms_profiles=tuple(SimProfile(p["id"], MsProfile(
            p["state_size_bytes"], p["dirty_rate_norm"], p["page_size_bytes"],
            p["cpu_context_bytes"]), p["dirty_rate_pages_per_s"])
            for p in raw["ms_profiles"]),
        model_params=ModelParams(**raw["model_params"]),
        task=TaskSection(
            MigrationTask(task["container_id"], task["source"],
                          task["destination"], Objective(task["objective"]),
                          target_duration_s=task["target_duration_s"]),
            task["client"], task["orchestrator"], task["ms_profile"]),
        sweep=SweepSpec(**{**raw["sweep"],
                           "profiles": tuple(raw["sweep"]["profiles"])}),
        bandwidth_distribution=BandwidthDistribution(
            dist["mean_mbps"] * M, dist["std_mbps"] * M,
            dist["lower_mbps"] * M, dist["upper_mbps"] * M),
        dirty_samples=tuple(DirtySample(**d) for d in raw["dirty_samples"]),
        calibration_runs=tuple(CalibrationRun(
            r["image_bytes"], r["checkpoint_s"], r["restore_s"],
            r["transfer_s"], r["bandwidth_mbps"] * M)
            for r in raw["calibration_runs"]))


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


def test_load_reads_a_utf8_file_as_parse_reads_its_document(tmp_path, raw):
    raw["task"]["container_id"] = "ms-vidéo-0"
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    scenario = parse_scenario(raw)
    assert scenario.task.task.container_id == "ms-vidéo-0"
    assert load_scenario(path) == scenario
    assert load_scenario(str(path)) == scenario


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
    assert scenario == parse_scenario(raw)._replace(
        task=None, sweep=None, bandwidth_distribution=None, dirty_samples=(),
        calibration_runs=())


def _key_path(path):
    return path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                             for k in path[1:])


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("sweep", "step_s"), float("nan")),
    (("links", 0, "latency_s"), float("nan")),
    (("ms_profiles", 0, "dirty_rate_pages_per_s"), float("nan")),
    (("links", 1, "bandwidth_mbps"), float("inf")),
    (("model_params", "ckpt_fixed_s"), -float("inf")),
    (("calibration_runs", 2, "image_bytes"), float("inf")),
])
def test_non_finite_number_rejected_with_its_key_path(raw, path, value):
    _set(raw, path, value)
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
    _set(raw, path, 10 ** 400)
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


@pytest.mark.parametrize("from_s,to_s,step_s", [
    (1.0, 10.0, 1e-300), (1.0, 10.0, 8e-6),
    # No step to to_s, yet 1,000,001 targets within its float guard.
    (1e6, 1e6, 1e-9)])
def test_sweep_grid_too_large_to_enumerate_rejected(raw, from_s, to_s,
                                                    step_s):
    # 1e-300 does not even move from_s: from_s + step_s == from_s.
    raw["sweep"].update(from_s=from_s, to_s=to_s, step_s=step_s)
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
# Defaults: an absent key reads as its default

M = BYTES_PER_S_PER_MBPS


def _distribution_doc(raw, mean=1000.3, std=99.7, **bounds):
    raw["bandwidth_distribution"] = {"mean_mbps": mean, "std_mbps": std,
                                     **bounds}
    return raw


@pytest.mark.parametrize("mean,std", [
    (1000.3, 99.7),
    # Here mean * M + 5 * (std * M) is 429757500.0, one ulp above the
    # README's (mean + 5 * std) * M.
    (714.66, 544.68),
])
def test_distribution_bounds_omitted_or_written_as_defaults_parse_equal(
        raw, mean, std):
    expected = BandwidthDistribution(mean * M, std * M, 0.0,
                                     (mean + 5.0 * std) * M)
    for bounds in ({}, {"lower_mbps": 0.0},
                   {"lower_mbps": 0.0, "upper_mbps": mean + 5.0 * std}):
        scenario = parse_scenario(_distribution_doc(
            copy.deepcopy(raw), mean, std, **bounds))
        assert scenario.bandwidth_distribution == expected, bounds


def test_distribution_with_only_a_lower_bound_defaults_upper_in_mbps(raw):
    scenario = parse_scenario(_distribution_doc(raw, lower_mbps=10.0))
    dist = scenario.bandwidth_distribution
    assert dist.lower_bytes_per_s == 10.0 * M
    assert dist.upper_bytes_per_s == (1000.3 + 5.0 * 99.7) * M


_mbps_values = st.floats(min_value=1e-9, max_value=1e12)


@settings(max_examples=300, deadline=None)
@given(mean=_mbps_values, std=st.floats(0.0, 1e12),
       lower=st.floats(0.0, 1e12), upper=_mbps_values,
       bandwidth=_mbps_values)
def test_every_mbps_field_reads_as_bytes_per_s(mean, std, lower, upper,
                                                bandwidth):
    assume(lower * M < upper * M)
    raw = json.loads(DEMO.read_text())
    raw["bandwidth_distribution"] = {"mean_mbps": mean, "std_mbps": std,
                                     "lower_mbps": lower, "upper_mbps": upper}
    raw["links"][-1]["bandwidth_mbps"] = bandwidth
    raw["calibration_runs"][-1]["bandwidth_mbps"] = bandwidth
    scenario = parse_scenario(raw)
    assert scenario.bandwidth_distribution == BandwidthDistribution(
        mean * M, std * M, lower * M, upper * M)
    assert scenario.links[-1].bandwidth_bytes_per_s == bandwidth * M
    assert scenario.calibration_runs[-1].bandwidth_bytes_per_s \
        == bandwidth * M


def test_absent_defaulted_keys_read_as_their_defaults(raw):
    for link in raw["links"]:
        del link["latency_s"]
    for profile in raw["ms_profiles"]:
        for key in ("page_size_bytes", "cpu_context_bytes",
                    "dirty_rate_pages_per_s"):
            del profile[key]
    raw["model_params"] = {}
    scenario = parse_scenario(raw)
    assert [link.latency_s for link in scenario.links] \
        == [0.0] * len(raw["links"])
    for sim_profile in scenario.ms_profiles:
        assert sim_profile.profile.page_size_bytes == DEFAULT_PAGE_SIZE
        assert sim_profile.profile.cpu_context_bytes == 0
        assert sim_profile.dirty_rate_pages_per_s == 0.0
    assert scenario.model_params._asdict() == dict.fromkeys(
        ModelParams._fields, 0.0)


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


@pytest.mark.parametrize("path, value, message", [
    (("calibration_runs", 2, "x"), 1,
     "calibration_runs[2]: unknown keys ['x']"),
    (("surprise",), 1, "scenario: unknown keys ['surprise']"),
    (("links", 2, "latency_s"), "0.5",
     "links[2].latency_s: expected a number, got '0.5'"),
    (("hosts", 3, "role"), None, "hosts[3].role: expected a string, got None"),
    (("dirty_samples", 1, "pages_modified"), 2.5,
     "dirty_samples[1].pages_modified must be a whole number >= 0, got 2.5"),
    (("calibration_runs", 1, "image_bytes"), True,
     "calibration_runs[1].image_bytes: expected a number, got True"),
    (("calibration_runs", 2, "bandwidth_mbps"), False,
     "calibration_runs[2].bandwidth_mbps: expected a number, got False"),
    (("model_params", "restore_fixed_s"), True,
     "model_params.restore_fixed_s: expected a number, got True"),
], ids=lambda v: _key_path(v) if isinstance(v, tuple) else None)
def test_decoder_messages_name_the_exact_key_path(raw, path, value, message):
    _set(raw, path, value)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(raw)


@pytest.mark.parametrize("path, literal, message", [
    (("dirty_samples", 1, "window_s"), "1e400",
     "dirty_samples[1].window_s: inf is not a finite number"),
    (("calibration_runs", 2, "image_bytes"), "1e400",
     "calibration_runs[2].image_bytes: inf is not a finite number"),
    (("sweep", "step_s"), "-1e400",
     "sweep.step_s: -inf is not a finite number"),
], ids=lambda v: _key_path(v) if isinstance(v, tuple) else None)
def test_overflowing_json_literal_message_is_exact(tmp_path, raw, path,
                                                   literal, message):
    _set(raw, path, "@literal@")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw).replace('"@literal@"', literal))
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(bad)


def test_any_mapping_parses_like_a_dict(raw):
    def frozen(node):
        if isinstance(node, dict):
            return MappingProxyType({k: frozen(v) for k, v in node.items()})
        if isinstance(node, list):
            return [frozen(v) for v in node]
        return node

    proxy = frozen(raw)
    assert isinstance(proxy["calibration_runs"][0], MappingProxyType)
    scenario, from_proxy = parse_scenario(raw), parse_scenario(proxy)
    assert from_proxy == scenario


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
