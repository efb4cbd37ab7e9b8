"""Scenario files: one JSON document describing hosts, links, workloads.

A scenario is the single input format shared by the command-line tools and
the simulator. Parsing is strict — unknown keys, missing keys and values
of the wrong kind raise :class:`~edgemig.errors.ScenarioError` naming the
key path. An absent optional key reads as its default. Each task agent's
host has the role of its slot: the task's source host is a ``source``.

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

import itertools
import json
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import FLOAT_MAX, ScenarioError, check_number, checked
from .model import BYTES_PER_S_PER_MBPS, DEFAULT_PAGE_SIZE, ModelParams, MsProfile
from .orchestrator import BandwidthDistribution, MigrationTask, Objective
from .profiler import CalibrationRun, DirtySample

HOST_ROLES = ("source", "destination", "client", "orchestrator")
SWEEP_VARIABLES = ("target_duration_s", "target_downtime_s")
# Largest grid a sweep enumerates; one row is planned and simulated each.
MAX_SWEEP_TARGETS = 1_000_000


@checked
class Host(NamedTuple):
    id: str
    role: str

    def _check(self) -> None:
        if self.role not in HOST_ROLES:
            raise ScenarioError(f"unknown host role {self.role!r}")


@checked
class Link(NamedTuple):
    from_host: str
    to_host: str
    bandwidth_mbps: float
    latency_s: float = 0.0

    def _check(self) -> None:
        # Bounded so that the bandwidth in bytes/s is finite too.
        check_number("bandwidth_mbps", self.bandwidth_mbps, above=True,
                     high=FLOAT_MAX / BYTES_PER_S_PER_MBPS,
                     error=ScenarioError)
        check_number("latency_s", self.latency_s, error=ScenarioError)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_mbps * BYTES_PER_S_PER_MBPS


@checked
class SimProfile(NamedTuple):
    """A microservice profile plus the dirtying behaviour the simulator drives.

    ``profile`` carries the worst-case planning inputs; ``dirty_rate_pages_per_s``
    is the live page-dirtying rate of the simulated process.
    """

    id: str
    profile: MsProfile
    dirty_rate_pages_per_s: float = 0.0

    def _check(self) -> None:
        if not self.id:
            raise ScenarioError("ms profile id must be non-empty")
        check_number("dirty_rate_pages_per_s", self.dirty_rate_pages_per_s,
                     error=ScenarioError)


class TaskSection(NamedTuple):
    task: MigrationTask
    client: str
    orchestrator: str
    ms_profile_id: str


@checked
class SweepSpec(NamedTuple):
    variable: str
    from_s: float
    to_s: float
    step_s: float
    profiles: tuple[str, ...]

    def _check(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ScenarioError(f"unknown sweep variable {self.variable!r}")
        check_number("from_s", self.from_s, above=True, error=ScenarioError)
        check_number("to_s", self.to_s, self.from_s, error=ScenarioError)
        check_number("step_s", self.step_s, above=True, error=ScenarioError)
        # Too many when targets() would walk past the largest grid allowed.
        if self.from_s + MAX_SWEEP_TARGETS * self.step_s <= self._limit():
            steps = max((self._limit() - self.from_s) / self.step_s,
                        MAX_SWEEP_TARGETS)
            raise ScenarioError(f"sweep grid has {steps + 1:.7g} targets, "
                                f"more than the {MAX_SWEEP_TARGETS:,} allowed")
        if not self.profiles:
            raise ScenarioError("sweep needs at least one profile")
        for i, profile in enumerate(self.profiles):
            if profile in self.profiles[:i]:
                raise ScenarioError(f"sweep lists profile {profile!r} twice")

    def _limit(self) -> float:  # to_s, guarding float accumulation
        return self.to_s + 1e-9 * max(1.0, abs(self.to_s))

    def targets(self) -> tuple[float, ...]:
        """Grid endpoints inclusive."""
        limit = self._limit()
        return tuple(itertools.takewhile(lambda t: t <= limit, (
            self.from_s + k * self.step_s for k in itertools.count())))


class Scenario(NamedTuple):
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

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """Undirected link lookup; None when the pair is not connected."""
        return link_pairs(self.links).get(frozenset((a, b)))

    def profile_by_id(self, profile_id: str) -> SimProfile:
        for p in self.ms_profiles:
            if p.id == profile_id:
                return p
        raise ScenarioError(f"unknown ms profile {profile_id!r}")


# --------------------------------------------------------------------------
# Decoder: one field table per section drives parsing

_REQUIRED = object()


class _Field(NamedTuple):
    """One JSON key of a section and the attribute it fills.

    ``kind`` is ``str``, ``float``, ``int`` (a whole number >= 0),
    ``tuple`` (a list of strings) or an Enum class. ``default`` is the
    attribute value for an absent key; a callable one is given the raw
    section. ``attr`` is the constructor argument the value fills, dotted
    for a nested object; it defaults to ``key``. ``scale`` turns the JSON
    unit into the attribute's (Mbps into bytes/s).
    """

    key: str
    kind: Any
    default: Any = _REQUIRED
    attr: str = ""
    scale: Optional[float] = None


def check_seed(seed: Any, where: str) -> None:
    """A seed is a whole number >= 0: ``random.Random(-s)`` draws as s."""
    whole = (isinstance(seed, int) and not isinstance(seed, bool)) or (
        isinstance(seed, float) and seed.is_integer())
    if not whole or seed < 0:
        raise ScenarioError(f"{where} must be a whole number >= 0, "
                            f"got {seed!r}")


def _convert(value: Any, kind: Any, where: str) -> Any:
    """Type-check one JSON value against its field's kind and convert it."""
    if kind is int:
        check_seed(value, where)
        what, ok = "a whole number", True
    elif kind is float:
        what = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is tuple:
        what = "a list of strings"
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif kind is str:
        what, ok = "a string", isinstance(value, str)
    else:
        what = f"one of {[m.value for m in kind]}"
        ok = isinstance(value, str) and value in {m.value for m in kind}
    if not ok:
        raise ScenarioError(f"{where}: expected {what}, got {value!r}")
    # JSON's NaN and Infinity (and overflowing literals such as 1e400) would
    # slip past every ``< 0`` check; 10**400 would crash float() later.
    if kind in (int, float) and not abs(value) <= FLOAT_MAX:
        raise ScenarioError(f"{where}: {value!r} is not a finite number"
                            if isinstance(value, float) else
                            f"{where}: whole number too large for a float")
    return kind(value)


def _check_object(raw: Any, keys: frozenset[str], required: Sequence[str],
                  where: str) -> None:
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected an object, got {raw!r}")
    if not keys.issuperset(raw):
        raise ScenarioError(f"{where}: unknown keys {sorted(set(raw) - keys)}")
    for key in required:
        if key not in raw:
            raise ScenarioError(f"{where}: missing key {key!r}")


def _decode(raw: Any, build: Callable[..., Any], fields: Sequence[_Field],
            where: str, many: bool) -> Any:
    """Build one section object, or with ``many`` a tuple from a list.
    The per-section work (key set, required keys, attribute splits) is
    done once; a finite float or an int >= 0 within float range is taken
    as it is, so a key path is built only for an error or a str."""
    if many and not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list, got {raw!r}")
    keys = frozenset(f.key for f in fields)
    required = [f.key for f in fields if f.default is _REQUIRED]
    plan = [(f, {float: -FLOAT_MAX, int: 0}.get(f.kind),
             *(f.attr or f.key).rpartition(".")[::2]) for f in fields]
    built = []
    for i, item in enumerate(raw if many else (raw,)):
        at = f"{where}[{i}]" if many else where
        _check_object(item, keys, required, at)
        out: dict[str, Any] = {}
        for f, low, head, name in plan:
            value = item.get(f.key, _REQUIRED)
            if value is _REQUIRED:
                value = f.default(item) if callable(f.default) else f.default
            else:
                if low is None or type(value) is not f.kind \
                        or not low <= value <= FLOAT_MAX:
                    value = _convert(value, f.kind, f"{at}.{f.key}")
                if f.scale:
                    value *= f.scale
            (out.setdefault(head, {}) if head else out)[name] = value
        built.append(build(**out))
    return tuple(built) if many else built[0]


def _sim_profile(profile: dict[str, Any], **fields: Any) -> SimProfile:
    return SimProfile(profile=MsProfile(**profile), **fields)


def _task_section(task: dict[str, Any], **fields: Any) -> TaskSection:
    return TaskSection(task=MigrationTask(**task), **fields)


def _default_upper_bytes_per_s(raw: Mapping[str, Any]) -> float:
    """mean + 5 std, in Mbps."""
    return (raw["mean_mbps"] + 5.0 * raw["std_mbps"]) * BYTES_PER_S_PER_MBPS


_MBPS = BYTES_PER_S_PER_MBPS
# key, builder, fields, required, is a list.
_SECTIONS = (
    ("hosts", Host, (_Field("id", str), _Field("role", str)), True, True),
    ("links", Link, (
        _Field("from", str, attr="from_host"),
        _Field("to", str, attr="to_host"), _Field("bandwidth_mbps", float),
        _Field("latency_s", float, 0.0)), True, True),
    ("ms_profiles", _sim_profile, (
        _Field("id", str),
        _Field("state_size_bytes", int, attr="profile.state_size_bytes"),
        _Field("page_size_bytes", int, DEFAULT_PAGE_SIZE,
               "profile.page_size_bytes"),
        _Field("dirty_rate_norm", float, attr="profile.dirty_rate_norm"),
        _Field("cpu_context_bytes", int, 0, "profile.cpu_context_bytes"),
        _Field("dirty_rate_pages_per_s", float, 0.0)), True, True),
    ("model_params", ModelParams, tuple(
        _Field(name, float, 0.0) for name in ModelParams._fields),
     True, False),
    ("task", _task_section, (
        _Field("container_id", str, attr="task.container_id"),
        _Field("objective", Objective, attr="task.objective"),
        _Field("target_downtime_s", float, None, "task.target_downtime_s"),
        _Field("target_duration_s", float, None, "task.target_duration_s"),
        _Field("ms_profile", str, attr="ms_profile_id"),
        _Field("source", str, attr="task.source_agent"),
        _Field("destination", str, attr="task.destination_agent"),
        _Field("client", str), _Field("orchestrator", str)), False, False),
    ("sweep", SweepSpec, (
        _Field("variable", str), _Field("from_s", float),
        _Field("to_s", float), _Field("step_s", float),
        _Field("profiles", tuple)), False, False),
    ("bandwidth_distribution", BandwidthDistribution, (
        _Field("mean_mbps", float, attr="mean_bytes_per_s", scale=_MBPS),
        _Field("std_mbps", float, attr="std_bytes_per_s", scale=_MBPS),
        _Field("lower_mbps", float, 0.0, "lower_bytes_per_s", _MBPS),
        _Field("upper_mbps", float, _default_upper_bytes_per_s,
               "upper_bytes_per_s", _MBPS)), False, False),
    ("dirty_samples", DirtySample, (
        _Field("window_s", float), _Field("pages_modified", int)),
     False, True),
    ("calibration_runs", CalibrationRun, (
        _Field("image_bytes", float), _Field("checkpoint_s", float),
        _Field("restore_s", float), _Field("transfer_s", float),
        _Field("bandwidth_mbps", float, attr="bandwidth_bytes_per_s",
               scale=_MBPS)), False, True),
)


def parse_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Build a scenario from a parsed JSON document (strict)."""
    _check_object(raw, frozenset(("seed", *(s[0] for s in _SECTIONS))),
                  ("seed", *(s[0] for s in _SECTIONS if s[3])), "scenario")
    try:
        scenario = Scenario(seed=_convert(raw["seed"], int, "seed"), **{
            key: _decode(raw[key], build, fields, key, many)
            for key, build, fields, _, many in _SECTIONS if key in raw})
    except ScenarioError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    _validate_references(scenario)
    return scenario


def link_pairs(links: Sequence[Link]) -> dict[frozenset[str], Link]:
    """Each link by its unordered pair of hosts; a second link between one
    pair raises :class:`ScenarioError`."""
    pairs: dict[frozenset[str], Link] = {}
    for link in links:
        pair = frozenset((link.from_host, link.to_host))
        if pair in pairs:
            raise ScenarioError(f"two links between {link.from_host!r} and "
                                f"{link.to_host!r}")
        pairs[pair] = link
    return pairs


def _validate_references(scenario: Scenario) -> None:
    host_ids = {h.id for h in scenario.hosts}
    if len(host_ids) != len(scenario.hosts):
        raise ScenarioError("duplicate host ids")
    for link in scenario.links:
        for end in (link.from_host, link.to_host):
            if end not in host_ids:
                raise ScenarioError(f"link references unknown host {end!r}")
    link_pairs(scenario.links)
    profile_ids = [p.id for p in scenario.ms_profiles]
    if len(set(profile_ids)) != len(profile_ids):
        raise ScenarioError("duplicate ms profile ids")
    if scenario.task is not None:
        section = scenario.task
        agents = (section.task.source_agent, section.task.destination_agent,
                  section.client, section.orchestrator)
        for agent in agents:
            if agent not in host_ids:
                raise ScenarioError(f"task references unknown host {agent!r}")
        role_of = {h.id: h.role for h in scenario.hosts}
        for slot, agent in zip(HOST_ROLES, agents):
            if role_of[agent] != slot:
                raise ScenarioError(f"task {slot} {agent!r} is a host of role "
                                    f"{role_of[agent]!r}")
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
