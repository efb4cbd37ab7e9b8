"""Scenario files: one JSON document describing hosts, links, workloads.

A scenario is the single input format shared by the command-line tools and
the simulator. Parsing is strict — unknown keys and malformed sections
raise :class:`~edgemig.errors.ScenarioError` — and serialization restores
the exact structure that was parsed, so load/save round-trips are
lossless.

Top-level sections::

    seed                    int, master seed for every stochastic draw
    hosts                   [{"id", "role"}]
    links                   [{"from", "to", "bandwidth_mbps", "latency_s"}]
    ms_profiles             [{"id", "state_size_bytes", "page_size_bytes",
                              "dirty_rate_norm", "cpu_context_bytes",
                              "dirty_rate_pages_per_s"}]
    model_params            {"ckpt_fixed_s", ...} (all optional, default 0)
    task                    {"container_id", "objective", "target_*_s",
                             "ms_profile", "source", "destination",
                             "client", "orchestrator"}
    sweep                   {"variable", "from_s", "to_s", "step_s",
                             "profiles"}               (optional)
    bandwidth_distribution  {"mean_mbps", "std_mbps", "lower_mbps",
                             "upper_mbps"}             (optional)
    dirty_samples           [{"window_s", "pages_modified"}]   (optional)
    calibration_runs        [{"image_bytes", "checkpoint_s", "restore_s",
                              "transfer_s", "bandwidth_mbps"}] (optional)
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from .errors import ScenarioError
from .model import BYTES_PER_S_PER_MBPS, DEFAULT_PAGE_SIZE, ModelParams, MsProfile
from .orchestrator import BandwidthDistribution, MigrationTask, Objective
from .profiler import CalibrationRun, DirtySample

HOST_ROLES = ("source", "destination", "client", "orchestrator")
SWEEP_VARIABLES = ("target_duration_s", "target_downtime_s")


@dataclass(frozen=True, slots=True)
class Host:
    id: str
    role: str

    def __post_init__(self) -> None:
        if self.role not in HOST_ROLES:
            raise ScenarioError(f"unknown host role {self.role!r}")


@dataclass(frozen=True, slots=True)
class Link:
    from_host: str
    to_host: str
    bandwidth_mbps: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ScenarioError("link bandwidth must be positive")
        if self.latency_s < 0:
            raise ScenarioError("link latency must be >= 0")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_mbps * BYTES_PER_S_PER_MBPS


@dataclass(frozen=True, slots=True)
class SimProfile:
    """A microservice profile plus the dirtying behaviour the simulator drives.

    ``profile`` carries the worst-case planning inputs; ``dirty_rate_pages_per_s``
    is the live page-dirtying rate of the simulated process.
    """

    id: str
    profile: MsProfile
    dirty_rate_pages_per_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ScenarioError("ms profile id must be non-empty")
        if self.dirty_rate_pages_per_s < 0:
            raise ScenarioError("dirty_rate_pages_per_s must be >= 0")


@dataclass(frozen=True, slots=True)
class TaskSection:
    task: MigrationTask
    client: str
    orchestrator: str
    ms_profile_id: str


@dataclass(frozen=True, slots=True)
class SweepSpec:
    variable: str
    from_s: float
    to_s: float
    step_s: float
    profiles: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ScenarioError(f"unknown sweep variable {self.variable!r}")
        if not all(map(math.isfinite, (self.from_s, self.to_s, self.step_s))):
            raise ScenarioError("sweep from_s, to_s and step_s must be finite")
        if self.step_s <= 0:
            raise ScenarioError("sweep step_s must be positive")
        if self.to_s < self.from_s:
            raise ScenarioError("sweep to_s must be >= from_s")
        if not self.profiles:
            raise ScenarioError("sweep needs at least one profile")

    def targets(self) -> tuple[float, ...]:
        """Grid endpoints inclusive, guarding float accumulation."""
        out = []
        k = 0
        while True:
            t = self.from_s + k * self.step_s
            if t > self.to_s + 1e-9 * max(1.0, abs(self.to_s)):
                break
            out.append(t)
            k += 1
        return tuple(out)


@dataclass(frozen=True, slots=True)
class Scenario:
    seed: int
    hosts: tuple[Host, ...]
    links: tuple[Link, ...]
    ms_profiles: tuple[SimProfile, ...]
    model_params: ModelParams
    task: Optional[TaskSection] = None
    sweep: Optional[SweepSpec] = None
    bandwidth_distribution: Optional[BandwidthDistribution] = None
    dirty_samples: tuple[DirtySample, ...] = ()
    calibration_runs: tuple[CalibrationRun, ...] = ()

    def host(self, host_id: str) -> Host:
        for h in self.hosts:
            if h.id == host_id:
                return h
        raise ScenarioError(f"unknown host {host_id!r}")

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """Undirected link lookup; None when the pair is not connected."""
        for link in self.links:
            if {link.from_host, link.to_host} == {a, b}:
                return link
        return None

    def profile_by_id(self, profile_id: str) -> SimProfile:
        for p in self.ms_profiles:
            if p.id == profile_id:
                return p
        raise ScenarioError(f"unknown ms profile {profile_id!r}")


# --------------------------------------------------------------------------
# Parsing


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing key {key!r}")
    return mapping[key]


def _check_keys(mapping: Mapping[str, Any], allowed: Sequence[str],
                where: str) -> None:
    extra = set(mapping) - set(allowed)
    if extra:
        raise ScenarioError(f"{where}: unknown keys {sorted(extra)}")


def check_seed(seed: Any, where: str) -> None:
    """A seed is a whole number >= 0, as numpy's generators require."""
    whole = (isinstance(seed, int) and not isinstance(seed, bool)) or (
        isinstance(seed, float) and seed.is_integer())
    if not whole or seed < 0:
        raise ScenarioError(f"{where} must be a whole number >= 0, "
                            f"got {seed!r}")


def _check_numbers(node: Any, path: str) -> None:
    """Reject non-finite floats and bad seeds anywhere in a raw document.

    JSON's ``NaN`` and ``Infinity`` (and overflowing literals such as
    ``1e400``) would otherwise slip past every ``< 0`` check.
    """
    if isinstance(node, float) and not math.isfinite(node):
        raise ScenarioError(f"{path}: {node!r} is not a finite number")
    if isinstance(node, Mapping):
        for key, value in node.items():
            where = f"{path}.{key}" if path else str(key)
            if key == "seed":
                check_seed(value, where)
            _check_numbers(value, where)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_numbers(value, f"{path}[{i}]")


def _parse_host(raw: Mapping[str, Any]) -> Host:
    _check_keys(raw, ("id", "role"), "hosts[]")
    return Host(id=str(_require(raw, "id", "hosts[]")),
                role=str(_require(raw, "role", "hosts[]")))


def _parse_link(raw: Mapping[str, Any]) -> Link:
    _check_keys(raw, ("from", "to", "bandwidth_mbps", "latency_s"), "links[]")
    return Link(from_host=str(_require(raw, "from", "links[]")),
                to_host=str(_require(raw, "to", "links[]")),
                bandwidth_mbps=float(_require(raw, "bandwidth_mbps", "links[]")),
                latency_s=float(raw.get("latency_s", 0.0)))


def _parse_sim_profile(raw: Mapping[str, Any]) -> SimProfile:
    _check_keys(raw, ("id", "state_size_bytes", "page_size_bytes",
                      "dirty_rate_norm", "cpu_context_bytes",
                      "dirty_rate_pages_per_s"), "ms_profiles[]")
    profile = MsProfile(
        state_size_bytes=int(_require(raw, "state_size_bytes", "ms_profiles[]")),
        dirty_rate_norm=float(_require(raw, "dirty_rate_norm", "ms_profiles[]")),
        page_size_bytes=int(raw.get("page_size_bytes", DEFAULT_PAGE_SIZE)),
        cpu_context_bytes=int(raw.get("cpu_context_bytes", 0)))
    return SimProfile(id=str(_require(raw, "id", "ms_profiles[]")),
                      profile=profile,
                      dirty_rate_pages_per_s=float(
                          raw.get("dirty_rate_pages_per_s", 0.0)))


_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))


def _parse_params(raw: Mapping[str, Any]) -> ModelParams:
    _check_keys(raw, _PARAM_FIELDS, "model_params")
    return ModelParams(**{k: float(v) for k, v in raw.items()})


def _parse_task(raw: Mapping[str, Any]) -> TaskSection:
    _check_keys(raw, ("container_id", "objective", "target_downtime_s",
                      "target_duration_s", "ms_profile", "source",
                      "destination", "client", "orchestrator"), "task")
    objective = Objective(str(_require(raw, "objective", "task")))
    task = MigrationTask(
        container_id=str(_require(raw, "container_id", "task")),
        source_agent=str(_require(raw, "source", "task")),
        destination_agent=str(_require(raw, "destination", "task")),
        objective=objective,
        target_downtime_s=(float(raw["target_downtime_s"])
                           if "target_downtime_s" in raw else None),
        target_duration_s=(float(raw["target_duration_s"])
                           if "target_duration_s" in raw else None))
    return TaskSection(task=task,
                       client=str(_require(raw, "client", "task")),
                       orchestrator=str(_require(raw, "orchestrator", "task")),
                       ms_profile_id=str(_require(raw, "ms_profile", "task")))


def _parse_sweep(raw: Mapping[str, Any]) -> SweepSpec:
    _check_keys(raw, ("variable", "from_s", "to_s", "step_s", "profiles"),
                "sweep")
    return SweepSpec(variable=str(_require(raw, "variable", "sweep")),
                     from_s=float(_require(raw, "from_s", "sweep")),
                     to_s=float(_require(raw, "to_s", "sweep")),
                     step_s=float(_require(raw, "step_s", "sweep")),
                     profiles=tuple(str(p) for p in
                                    _require(raw, "profiles", "sweep")))


def _parse_distribution(raw: Mapping[str, Any]) -> BandwidthDistribution:
    _check_keys(raw, ("mean_mbps", "std_mbps", "lower_mbps", "upper_mbps"),
                "bandwidth_distribution")
    mean = float(_require(raw, "mean_mbps", "bandwidth_distribution"))
    std = float(_require(raw, "std_mbps", "bandwidth_distribution"))
    if "lower_mbps" in raw or "upper_mbps" in raw:
        lower = float(raw.get("lower_mbps", 0.0))
        upper = float(raw.get("upper_mbps", mean + 5.0 * std))
        return BandwidthDistribution(
            mean_bytes_per_s=mean * BYTES_PER_S_PER_MBPS,
            std_bytes_per_s=std * BYTES_PER_S_PER_MBPS,
            lower_bytes_per_s=lower * BYTES_PER_S_PER_MBPS,
            upper_bytes_per_s=upper * BYTES_PER_S_PER_MBPS)
    return BandwidthDistribution.from_mean_std(
        mean * BYTES_PER_S_PER_MBPS, std * BYTES_PER_S_PER_MBPS)


def _parse_dirty_sample(raw: Mapping[str, Any]) -> DirtySample:
    _check_keys(raw, ("window_s", "pages_modified"), "dirty_samples[]")
    return DirtySample(window_s=float(_require(raw, "window_s",
                                                "dirty_samples[]")),
                       pages_modified=int(_require(raw, "pages_modified",
                                                   "dirty_samples[]")))


def _parse_calibration_run(raw: Mapping[str, Any]) -> CalibrationRun:
    _check_keys(raw, ("image_bytes", "checkpoint_s", "restore_s",
                      "transfer_s", "bandwidth_mbps"), "calibration_runs[]")
    return CalibrationRun(
        image_bytes=float(_require(raw, "image_bytes", "calibration_runs[]")),
        checkpoint_s=float(_require(raw, "checkpoint_s",
                                    "calibration_runs[]")),
        restore_s=float(_require(raw, "restore_s", "calibration_runs[]")),
        transfer_s=float(_require(raw, "transfer_s", "calibration_runs[]")),
        bandwidth_bytes_per_s=float(_require(raw, "bandwidth_mbps",
                                             "calibration_runs[]"))
        * BYTES_PER_S_PER_MBPS)


_TOP_KEYS = ("seed", "hosts", "links", "ms_profiles", "model_params", "task",
             "sweep", "bandwidth_distribution", "dirty_samples",
             "calibration_runs")


def parse_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Build a scenario from a parsed JSON document (strict)."""
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "scenario")
    _check_numbers(raw, "")
    try:
        hosts = tuple(_parse_host(h)
                      for h in _require(raw, "hosts", "scenario"))
        links = tuple(_parse_link(ln)
                      for ln in _require(raw, "links", "scenario"))
        profiles = tuple(_parse_sim_profile(p)
                         for p in _require(raw, "ms_profiles", "scenario"))
        scenario = Scenario(
            seed=int(_require(raw, "seed", "scenario")),
            hosts=hosts,
            links=links,
            ms_profiles=profiles,
            model_params=_parse_params(
                _require(raw, "model_params", "scenario")),
            task=_parse_task(raw["task"]) if "task" in raw else None,
            sweep=_parse_sweep(raw["sweep"]) if "sweep" in raw else None,
            bandwidth_distribution=(
                _parse_distribution(raw["bandwidth_distribution"])
                if "bandwidth_distribution" in raw else None),
            dirty_samples=tuple(_parse_dirty_sample(s)
                                for s in raw.get("dirty_samples", ())),
            calibration_runs=tuple(_parse_calibration_run(r)
                                   for r in raw.get("calibration_runs", ())))
    except ScenarioError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    _validate_references(scenario)
    return scenario


def _validate_references(scenario: Scenario) -> None:
    host_ids = {h.id for h in scenario.hosts}
    if len(host_ids) != len(scenario.hosts):
        raise ScenarioError("duplicate host ids")
    for link in scenario.links:
        for end in (link.from_host, link.to_host):
            if end not in host_ids:
                raise ScenarioError(f"link references unknown host {end!r}")
    profile_ids = [p.id for p in scenario.ms_profiles]
    if len(set(profile_ids)) != len(profile_ids):
        raise ScenarioError("duplicate ms profile ids")
    if scenario.task is not None:
        section = scenario.task
        for agent in (section.task.source_agent, section.task.destination_agent,
                      section.client, section.orchestrator):
            if agent not in host_ids:
                raise ScenarioError(f"task references unknown host {agent!r}")
        scenario.profile_by_id(section.ms_profile_id)
    if scenario.sweep is not None:
        for pid in scenario.sweep.profiles:
            scenario.profile_by_id(pid)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read and parse a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    return parse_scenario(raw)


# --------------------------------------------------------------------------
# Serialization (inverse of parsing, including key order)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    doc: dict[str, Any] = {"seed": scenario.seed}
    doc["hosts"] = [{"id": h.id, "role": h.role} for h in scenario.hosts]
    doc["links"] = [{"from": ln.from_host, "to": ln.to_host,
                     "bandwidth_mbps": ln.bandwidth_mbps,
                     "latency_s": ln.latency_s} for ln in scenario.links]
    doc["ms_profiles"] = [
        {"id": p.id,
         "state_size_bytes": p.profile.state_size_bytes,
         "page_size_bytes": p.profile.page_size_bytes,
         "dirty_rate_norm": p.profile.dirty_rate_norm,
         "cpu_context_bytes": p.profile.cpu_context_bytes,
         "dirty_rate_pages_per_s": p.dirty_rate_pages_per_s}
        for p in scenario.ms_profiles]
    doc["model_params"] = {name: getattr(scenario.model_params, name)
                           for name in _PARAM_FIELDS}
    if scenario.task is not None:
        task = scenario.task.task
        task_doc: dict[str, Any] = {
            "container_id": task.container_id,
            "objective": task.objective.value,
        }
        if task.target_downtime_s is not None:
            task_doc["target_downtime_s"] = task.target_downtime_s
        if task.target_duration_s is not None:
            task_doc["target_duration_s"] = task.target_duration_s
        task_doc.update({
            "ms_profile": scenario.task.ms_profile_id,
            "source": task.source_agent,
            "destination": task.destination_agent,
            "client": scenario.task.client,
            "orchestrator": scenario.task.orchestrator,
        })
        doc["task"] = task_doc
    if scenario.sweep is not None:
        doc["sweep"] = {"variable": scenario.sweep.variable,
                        "from_s": scenario.sweep.from_s,
                        "to_s": scenario.sweep.to_s,
                        "step_s": scenario.sweep.step_s,
                        "profiles": list(scenario.sweep.profiles)}
    if scenario.bandwidth_distribution is not None:
        dist = scenario.bandwidth_distribution
        doc["bandwidth_distribution"] = {
            "mean_mbps": dist.mean_bytes_per_s / BYTES_PER_S_PER_MBPS,
            "std_mbps": dist.std_bytes_per_s / BYTES_PER_S_PER_MBPS,
            "lower_mbps": dist.lower_bytes_per_s / BYTES_PER_S_PER_MBPS,
            "upper_mbps": dist.upper_bytes_per_s / BYTES_PER_S_PER_MBPS}
    if scenario.dirty_samples:
        doc["dirty_samples"] = [{"window_s": s.window_s,
                                 "pages_modified": s.pages_modified}
                                for s in scenario.dirty_samples]
    if scenario.calibration_runs:
        doc["calibration_runs"] = [
            {"image_bytes": r.image_bytes,
             "checkpoint_s": r.checkpoint_s,
             "restore_s": r.restore_s,
             "transfer_s": r.transfer_s,
             "bandwidth_mbps": r.bandwidth_bytes_per_s / BYTES_PER_S_PER_MBPS}
            for r in scenario.calibration_runs]
    return doc


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_scenario(scenario), encoding="utf-8")


def dumps_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
