"""Deterministic discrete-event simulation of a migration run.

The simulator wires the four protocol agents together over an in-memory
pub/sub/query bus, executes their work items with durations taken from the
cost model, and drives a synthetic page-dirtying process for the running
service. Everything is replayable: one master seed fixes the dirty-page
draws, and event ordering is a total order on (time, insertion sequence).

The dirtying process is a Poisson stream of writes at the profile's rate,
each to a uniformly random page. Split by page, that stream gives every
one of the P pages an independent Poisson count, so the pages dirtied in
a window of W seconds at rate r number exactly
Binomial(P, 1 - exp(-r * W / P)); ``dirty_set_size`` draws that count
once per window, never the writes themselves.

The bus adds propagation latency per link but never charges for payload
size — image payloads ride on work items (the transfer costs), so bytes
are accounted exactly once. Its routing table is built once per task and
shared, read-only, by every run of an equal task (a sweep's rows).

The simulator keeps all the time: it prices every work item (the
destination's wait for the client's flow update too) and holds one
watchdog deadline per agent, ten times the predicted total plus ten
seconds after its ``SetTimer``, cleared by its next event. A run stops
once every agent is done or failed, so ``end_time_s`` is the time of the
last event an agent acted on.

Fault injection is off by default. Drop and delay rules match deliveries
by topic substring and occurrence index; a dropped delivery is logged and
the waiting agent's watchdog later turns the loss into a diagnosed
failure, so a faulted run terminates instead of hanging.
"""

from __future__ import annotations

import functools
import heapq
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import agents as ag
from .bus import BusMessage, MessageKind
from .errors import DomainError, ScenarioError
from .model import (
    BYTES_PER_S_PER_MBPS,
    ModelParams,
    MsProfile,
    StrategyKind,
    checkpoint_duration,
    pre_checkpoint_duration,
    restore_duration,
    transfer_duration,
)
from .orchestrator import MetricsView, MigrationConfig, design
from .scenario import Scenario, SimProfile

log = logging.getLogger(__name__)

MAX_EVENTS = 1_000_000
# Hot-path names, bound once at import (see the agents docstring).
_W = ag.WorkKind
# Work that moves an image over the source-destination link.
_TRANSFERS = frozenset({_W.TRANSFER_INITIAL, _W.TRANSFER_ROUND,
                        _W.TRANSFER_STOPCOPY})
_PRE_CHECKPOINT, _ROUND_CHECKPOINT, _STOP_CHECKPOINT = (
    _W.PRE_CHECKPOINT, _W.ROUND_CHECKPOINT, _W.STOP_CHECKPOINT)
_FLOW_UPDATE, _FLOW_SETTLE, _RESTORE = (
    _W.FLOW_UPDATE, _W.FLOW_SETTLE, _W.RESTORE)
_QUERY, _REPLY, _DONE = MessageKind.QUERY, MessageKind.REPLY, ag.PhaseKind.DONE
_TIMER_FIRED = ag.TimerFired()


def _check_seconds(name: str, value: object) -> None:
    """Reject a span or rate that is not a finite number >= 0."""
    if isinstance(value, bool) \
            or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be a finite number >= 0, "
                          f"got {value!r}")


def dirty_set_size(rate_pages_per_s: float, window_s: float, total_pages: int,
                   rng: Union[int, np.random.Generator]) -> int:
    """Distinct pages dirtied in a window by a memoryless write process.

    Writes arrive as a Poisson stream of mean ``rate * window`` and each hits
    a uniformly random page. Splitting that stream by page (Kingman, *Poisson
    Processes*, 1993, §2.2) gives each page an independent Poisson count of
    mean ``rate * window / P``, so the distinct count is exactly
    ``Binomial(P, 1 - exp(-rate * window / P))``: one draw, whatever the
    number of writes. Its mean ``P * (1 - exp(-rate * window / P))``
    saturates at ``P``.
    """
    _check_seconds("rate_pages_per_s", rate_pages_per_s)
    _check_seconds("window_s", window_s)
    if isinstance(total_pages, bool) \
            or not isinstance(total_pages, (int, np.integer)) \
            or total_pages < 1:
        raise DomainError(f"total_pages must be a whole number >= 1, "
                          f"got {total_pages!r}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    p_dirty = -math.expm1(-rate_pages_per_s * window_s / total_pages)
    return int(rng.binomial(total_pages, p_dirty))


# --------------------------------------------------------------------------
# Fault injection


def _check_rule(rule: FaultRule) -> None:
    """Reject a rule that could never fire or would run the clock backwards."""
    n = rule.occurrence
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"occurrence must be a whole number >= 1, got {n!r}")
    if isinstance(rule, DelayRule):
        _check_seconds("delay_s", rule.delay_s)


@dataclass(frozen=True, slots=True)
class DropRule:
    """Drop the Nth delivery whose topic contains the given fragment."""

    topic_contains: str
    occurrence: int = 1
    receiver: Optional[str] = None
    __post_init__ = _check_rule


@dataclass(frozen=True, slots=True)
class DelayRule:
    """Delay the Nth matching delivery, reordering it past later traffic."""

    topic_contains: str
    delay_s: float
    occurrence: int = 1
    receiver: Optional[str] = None
    __post_init__ = _check_rule


FaultRule = Union[DropRule, DelayRule]


class _FaultBox:
    def __init__(self, rules: Sequence[FaultRule]):
        self._rules = list(rules)
        self._hits = [0] * len(self._rules)

    def apply(self, msg: BusMessage, receiver: str) -> tuple[bool, float]:
        """Returns (dropped, extra_delay_s) for one delivery attempt."""
        dropped, delay = False, 0.0
        for i, rule in enumerate(self._rules):
            if rule.topic_contains not in msg.topic \
                    or rule.receiver not in (None, receiver):
                continue
            self._hits[i] += 1
            if self._hits[i] != rule.occurrence:
                continue
            if isinstance(rule, DropRule):
                dropped = True
            else:
                delay += rule.delay_s
        return dropped, delay


# --------------------------------------------------------------------------
# Routing


@functools.lru_cache(maxsize=256)
def _routes(info: ag.TaskInfo) -> Mapping[str, tuple[str, ...]]:
    """Agent ids receiving each publication and query of a task, in
    delivery order: :func:`agents.subscriptions` with each role resolved.
    Every run of an equal task shares this one read-only table."""
    agent_of = {ag.Role.SOURCE: info.source,
                ag.Role.DESTINATION: info.destination,
                ag.Role.CLIENT: info.client,
                ag.Role.ORCHESTRATOR: info.orchestrator}
    return MappingProxyType({
        topic: tuple(agent_of[role] for role in roles)
        for topic, roles in ag.subscriptions(info).items()})


# --------------------------------------------------------------------------
# Event log


@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    seq: int
    time_s: float
    agent: str
    role: str
    phase_before: str
    phase_after: str
    event: dict
    actions: tuple[dict, ...] = ()

    def to_json_line(self) -> str:
        # The slots are the fields in order; json writes a tuple as a list.
        return json.dumps({f: getattr(self, f) for f in self.__slots__})


def _describe_event(event: ag.Event) -> dict:
    if isinstance(event, BusMessage):
        return {"type": "message", "kind": event.kind.value,
                "topic": event.topic, "sender": event.sender,
                "payload_bytes": event.payload_bytes}
    if isinstance(event, ag.Work):
        return {"type": "work_done", "work": event.kind.value,
                "bytes": event.bytes, "round": event.round}
    if isinstance(event, ag.TimerFired):
        return {"type": "timer"}
    return {"type": "kickoff"}


# --------------------------------------------------------------------------
# Outcome


@dataclass(frozen=True, slots=True)
class MigrationOutcome:
    """Measured results of one simulated run."""

    completed: bool
    downtime_s: Optional[float]
    total_s: Optional[float]
    bytes_transferred: float
    dirty_pages_at_stopcopy: int
    message_count: int
    end_time_s: float
    final_phases: dict[str, str] = field(default_factory=dict)
    diagnostics: dict[str, str] = field(default_factory=dict)
    events: tuple[ProtocolEvent, ...] = ()


# --------------------------------------------------------------------------
# The simulation proper


class _Sim:
    def __init__(self, scenario: Scenario, config: MigrationConfig,
                 fault_rules: Sequence[FaultRule], record_events: bool):
        if scenario.task is None:
            raise ScenarioError("scenario has no task section")
        section = scenario.task
        self.config = config
        self.params: ModelParams = scenario.model_params
        sim_profile: SimProfile = scenario.profile_by_id(section.ms_profile_id)
        self.profile: MsProfile = sim_profile.profile
        self.dirty_rate = sim_profile.dirty_rate_pages_per_s

        source = section.task.source_agent
        dest = section.task.destination_agent
        agent_ids = (source, dest, section.client, section.orchestrator)
        if len(set(agent_ids)) < len(agent_ids):
            raise ScenarioError("task source, destination, client and "
                                f"orchestrator must differ, got {agent_ids}")
        link = scenario.link_between(source, dest)
        if link is None:
            raise ScenarioError(f"no link between {source!r} and {dest!r}")
        if config.bandwidth_bytes_per_s > link.bandwidth_bytes_per_s * (1 + 1e-9):
            raise ScenarioError(
                "configured bandwidth exceeds the source-destination link")

        # The only watchdog period, derived from the plan (run_scenario).
        self.watchdog_s = 10.0 * config.predicted.total_s + 10.0
        if not math.isfinite(self.watchdog_s):
            raise DomainError(f"predicted total_s {config.predicted.total_s!r}"
                              " is too large for a finite watchdog period")
        self.info = ag.TaskInfo(
            task_id=section.task.container_id,
            source=source,
            destination=dest,
            client=section.client,
            orchestrator=section.orchestrator,
            strategy=config.strategy.kind,
            iterations=config.strategy.iterations,
            ns_config=f"netns:{section.task.container_id}")

        self.agents: dict[str, ag.AgentState] = {
            source: ag.idle_agent(ag.Role.SOURCE, source),
            dest: ag.idle_agent(ag.Role.DESTINATION, dest),
            section.client: ag.idle_agent(ag.Role.CLIENT, section.client),
            section.orchestrator: ag.AgentState(
                role=ag.Role.ORCHESTRATOR, agent_id=section.orchestrator,
                info=self.info),
        }
        self.subscribers = _routes(self.info)

        def latency(sender: str, receiver: str) -> float:
            link = scenario.link_between(sender, receiver)
            return link.latency_s if link else 0.0
        # Propagation delay of a delivery: each sender's row, resolved once.
        self.latency = {sender: {receiver: latency(sender, receiver)
                                 for receiver in self.agents}
                        for sender in self.agents}

        self.rng = np.random.default_rng(scenario.seed)
        self.faults = _FaultBox(fault_rules) if fault_rules else None
        self.record_events = record_events

        self.heap: list[tuple] = []
        self.seq = 0
        self.now = 0.0
        self.events: list[ProtocolEvent] = []
        self.outstanding_queries: dict[str, str] = {}

        self.dirty_clock: Optional[float] = None
        self.message_count = 0
        self.bytes_transferred = 0.0
        self.dirty_pages_at_stopcopy = 0
        self.freeze_time: Optional[float] = None
        self.restore_end: Optional[float] = None

    # -- scheduling ---------------------------------------------------

    def _push(self, time_s: float, agent_id: str, event: ag.Event) -> None:
        heapq.heappush(self.heap, (time_s, self.seq, agent_id, event))
        self.seq += 1

    # -- dirty process ------------------------------------------------

    def _capture_dirty(self) -> int:
        """Pages dirtied since the previous snapshot point."""
        if self.dirty_clock is None:
            raise DomainError("dirty capture before the initial snapshot")
        window = self.now - self.dirty_clock
        self.dirty_clock = self.now
        if self.profile.total_pages == 0:
            # An empty state has no pages to dirty.
            return 0
        return dirty_set_size(self.dirty_rate, window,
                              self.profile.total_pages, self.rng)

    # -- routing ------------------------------------------------------

    def _receivers(self, msg: BusMessage) -> Sequence[str]:
        if msg.kind is _REPLY:
            # A reply to no outstanding query raises KeyError rather than
            # being counted and delivered to nobody.
            return [self.outstanding_queries[msg.topic]]
        if msg.kind is _QUERY:
            self.outstanding_queries[msg.topic] = msg.sender
        return self.subscribers[msg.topic]

    def _send(self, msg: BusMessage) -> None:
        self.message_count += 1
        latency = self.latency[msg.sender]
        for receiver in self._receivers(msg):
            dropped, extra = (self.faults.apply(msg, receiver) if self.faults
                              else (False, 0.0))
            if dropped:
                self._log("bus", "bus", "-", "-",
                          {"type": "drop", "topic": msg.topic,
                           "receiver": receiver})
                continue
            self._push(self.now + (latency[receiver] + extra), receiver, msg)

    # -- work execution -----------------------------------------------

    def _start_work(self, agent_id: str,
                    action: ag.Work) -> tuple[float, float]:
        """Size, price and schedule one work item; returns its bytes and
        duration. The one place that knows what each kind moves and costs."""
        kind = action.kind
        params = self.params
        profile = self.profile
        if kind in _TRANSFERS:
            nbytes = action.bytes
            duration = transfer_duration(params, nbytes,
                                         self.config.bandwidth_bytes_per_s)
            self.bytes_transferred += nbytes
        elif kind is _ROUND_CHECKPOINT:
            nbytes = float(self._capture_dirty() * profile.page_size_bytes)
            duration = pre_checkpoint_duration(params, nbytes)
        elif kind is _PRE_CHECKPOINT:
            self.dirty_clock = self.now
            nbytes = float(profile.state_size_bytes)
            duration = pre_checkpoint_duration(params, nbytes)
        elif kind is _STOP_CHECKPOINT:
            self.freeze_time = self.now
            if self.info.strategy is StrategyKind.COLD:
                nbytes = float(profile.state_size_bytes)
            else:
                # Left an int: the event log prints it without a ".0".
                pages = self.dirty_pages_at_stopcopy = self._capture_dirty()
                nbytes = (pages * profile.page_size_bytes
                          + profile.cpu_context_bytes)
            duration = checkpoint_duration(params, nbytes)
        elif kind is _RESTORE:
            nbytes = action.bytes
            duration = restore_duration(params, nbytes)
        elif kind is _FLOW_UPDATE:
            nbytes, duration = 0.0, params.flow_update_s
        elif kind is _FLOW_SETTLE:
            nbytes = 0.0
            duration = (self.latency[agent_id][self.info.client]
                        + params.flow_update_s)
        else:  # NS_CLEAR, NS_RECREATE
            nbytes, duration = 0.0, params.ns_overhead_s
        self._push(self.now + duration, agent_id,
                   ag.Work(kind, nbytes, action.round))
        return nbytes, duration

    # -- logging ------------------------------------------------------

    def _log(self, agent: str, role: str, before: str, after: str,
             event: dict, actions: tuple[dict, ...] = ()) -> None:
        if not self.record_events:
            return
        self.events.append(ProtocolEvent(
            seq=len(self.events), time_s=self.now, agent=agent, role=role,
            phase_before=before, phase_after=after, event=event,
            actions=actions))

    # -- main loop ----------------------------------------------------

    def run(self) -> MigrationOutcome:
        self._push(0.0, self.info.orchestrator, ag.Kickoff())
        # Without an event log, nothing below formats log material; below
        # DEBUG, no phase change is logged.
        record = self.record_events
        debug = log.isEnabledFor(logging.DEBUG)
        terminal = ag.TERMINAL_PHASES
        # agent id -> its watchdog as a heap entry. All share one delay, so
        # the first is the earliest; entries compare on unique (time, seq).
        heap, deadlines = self.heap, {}
        processed = 0
        live = len(self.agents)  # agents neither done nor failed
        while live and (heap or deadlines):
            entry = next(iter(deadlines.values()), None)
            if entry is None or heap and heap[0] < entry:
                entry = heapq.heappop(heap)
            time_s, _, agent_id, event = entry
            deadlines.pop(agent_id, None)  # any event ends a guarded wait
            self.now = time_s
            processed += 1
            if processed > MAX_EVENTS:
                raise DomainError("event budget exceeded; simulation diverged")
            state = self.agents[agent_id]
            new_state, actions = ag.advance(state, event)
            self.agents[agent_id] = new_state
            if new_state.phase.kind in terminal \
                    and state.phase.kind not in terminal:
                live -= 1
            if debug and new_state.phase != state.phase:
                log.debug("%s at %.9g s: %s -> %s", agent_id, time_s,
                          state.phase, new_state.phase)

            action_docs: list[dict] = []
            for action in actions:
                kind = type(action)
                if kind is BusMessage:
                    self._send(action)
                    if record:
                        action_docs.append(
                            {"send": action.kind.value, "topic": action.topic,
                             "payload_bytes": action.payload_bytes})
                elif kind is ag.Work:
                    nbytes, duration = self._start_work(agent_id, action)
                    if record:
                        action_docs.append({"work": action.kind.value,
                                            "bytes": nbytes,
                                            "duration_s": duration})
                elif kind is ag.SetTimer:
                    deadlines[agent_id] = (self.now + self.watchdog_s,
                                           self.seq, agent_id, _TIMER_FIRED)
                    self.seq += 1
                    if record:
                        action_docs.append({"timer_s": self.watchdog_s})
                elif record:
                    action_docs.append({"diagnostic": action.text})

            if (type(event) is ag.Work and event.kind is _RESTORE
                    and new_state.phase.kind is _DONE):
                self.restore_end = self.now

            if record:
                self._log(agent_id, state.role.value, str(state.phase),
                          str(new_state.phase), _describe_event(event),
                          tuple(action_docs))

        final_phases = {aid: str(st.phase) for aid, st in self.agents.items()}
        # An agent still live here has no event left that could move it.
        diagnostics = {
            aid: st.diagnostic or f"stalled in phase {st.phase}"
            for aid, st in self.agents.items()
            if st.diagnostic or st.phase.kind not in ag.TERMINAL_PHASES}
        completed = all(st.phase.kind is _DONE
                        for st in self.agents.values())
        downtime = self.restore_end - self.freeze_time if completed else None
        return MigrationOutcome(
            completed=completed,
            downtime_s=downtime,
            total_s=self.restore_end if completed else None,
            bytes_transferred=self.bytes_transferred,
            dirty_pages_at_stopcopy=self.dirty_pages_at_stopcopy,
            message_count=self.message_count,
            end_time_s=self.now,
            final_phases=final_phases,
            diagnostics=diagnostics,
            events=tuple(self.events))


def run_scenario(scenario: Scenario, config: MigrationConfig, *,
                 fault_rules: Sequence[FaultRule] = (),
                 event_log_path: Union[str, Path, None] = None,
                 record_events: bool = True) -> MigrationOutcome:
    """Simulate one migration run under the given configuration.

    Every watchdog waits ten times the predicted migration duration plus
    ten seconds, generous enough never to fire on a healthy run.
    """
    sim = _Sim(scenario, config, fault_rules,
               record_events or event_log_path is not None)
    outcome = sim.run()
    if not outcome.completed:
        log.warning("migration did not complete: %s", outcome.diagnostics)
    if event_log_path is not None:
        lines = [ev.to_json_line() for ev in outcome.events]
        Path(event_log_path).write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    return outcome


def plan_from_scenario(scenario: Scenario) -> MigrationConfig:
    """Run the orchestration design step against a scenario's task."""
    if scenario.task is None:
        raise ScenarioError("scenario has no task section")
    section = scenario.task
    link = scenario.link_between(section.task.source_agent,
                                 section.task.destination_agent)
    if link is None:
        raise ScenarioError("no link between source and destination")
    metrics = MetricsView(
        profile=scenario.profile_by_id(section.ms_profile_id).profile,
        params=scenario.model_params,
        available_bandwidth_bytes_per_s=link.bandwidth_bytes_per_s)
    config = design(section.task, metrics)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("design: %s, %d iterations at %.6g Mbps; predicted "
                  "downtime %.6g s, total %.6g s; target met: %s",
                  config.strategy.kind.value, config.strategy.iterations,
                  config.bandwidth_bytes_per_s / BYTES_PER_S_PER_MBPS,
                  config.predicted.downtime_s, config.predicted.total_s,
                  config.target_met)
    return config
