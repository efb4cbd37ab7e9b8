"""Deterministic discrete-event simulation of a migration run.

The simulator wires the four protocol agents together over an in-memory
pub/sub/query bus, executes their work items with durations taken from the
cost model, and drives a synthetic page-dirtying process for the running
service. Everything is replayable: one master seed fixes the dirty-page
draws, and event ordering is a total order on (time, insertion sequence).

The bus adds propagation latency per link but never charges for payload
size — image payloads ride on work items (the transfer costs), so bytes
are accounted exactly once.

Fault injection is off by default. Drop and delay rules match deliveries
by topic substring and occurrence index; a dropped delivery is logged and
the waiting agent's watchdog later turns the loss into a diagnosed
failure, so a faulted run terminates instead of hanging.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import agents as ag
from .bus import BusMessage, MessageKind
from .errors import DomainError, ScenarioError
from .model import (
    ModelParams,
    MsProfile,
    checkpoint_duration,
    pre_checkpoint_duration,
    restore_duration,
    strategy_kpis,
    transfer_duration,
)
from .orchestrator import MetricsView, MigrationConfig, design
from .scenario import Scenario, SimProfile

log = logging.getLogger(__name__)

MAX_EVENTS = 1_000_000
# Page draws made at once by dirty_set_size (8 MiB of int64).
DIRTY_DRAW_CHUNK = 1 << 20


def dirty_set_size(rate_pages_per_s: float, window_s: float, total_pages: int,
                   rng: Union[int, np.random.Generator]) -> int:
    """Distinct pages dirtied in a window by a memoryless write process.

    Writes arrive at ``rate_pages_per_s`` and each hits a uniformly random
    page, so the distinct count saturates at ``total_pages``; its
    expectation is ``P * (1 - exp(-rate * window / P))``.
    """
    if rate_pages_per_s < 0 or window_s < 0:
        raise DomainError("rate and window must be >= 0")
    if total_pages <= 0:
        raise DomainError("total_pages must be positive")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    writes = int(rng.poisson(rate_pages_per_s * window_s))
    if writes <= 0:
        return 0
    # Beyond ~64 writes per page the miss probability is below 1e-27;
    # every page has been touched for any practical purpose.
    if writes > 64 * total_pages:
        return total_pages
    # Mark the pages hit, drawing the write targets a chunk at a time: the
    # draws are the same stream as one call for all of them, but memory
    # stays O(pages + chunk) and nothing is sorted.
    hit = np.zeros(total_pages, dtype=bool)
    for start in range(0, writes, DIRTY_DRAW_CHUNK):
        size = min(DIRTY_DRAW_CHUNK, writes - start)
        hit[rng.integers(0, total_pages, size=size)] = True
    return int(np.count_nonzero(hit))


# --------------------------------------------------------------------------
# Fault injection


@dataclass(frozen=True, slots=True)
class DropRule:
    """Drop the Nth delivery whose topic contains the given fragment."""

    topic_contains: str
    occurrence: int = 1
    receiver: Optional[str] = None


@dataclass(frozen=True, slots=True)
class DelayRule:
    """Delay the Nth matching delivery, reordering it past later traffic."""

    topic_contains: str
    delay_s: float
    occurrence: int = 1
    receiver: Optional[str] = None


FaultRule = Union[DropRule, DelayRule]


class _FaultBox:
    def __init__(self, rules: Sequence[FaultRule]):
        self._rules = list(rules)
        self._hits = [0] * len(self._rules)

    def apply(self, msg: BusMessage, receiver: str) -> tuple[bool, float]:
        """Returns (dropped, extra_delay_s) for one delivery attempt."""
        dropped = False
        delay = 0.0
        for i, rule in enumerate(self._rules):
            if rule.topic_contains not in msg.topic:
                continue
            if rule.receiver is not None and rule.receiver != receiver:
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
        return json.dumps({
            "seq": self.seq,
            "time_s": self.time_s,
            "agent": self.agent,
            "role": self.role,
            "phase_before": self.phase_before,
            "phase_after": self.phase_after,
            "event": self.event,
            "actions": list(self.actions),
        })


def _describe_event(event: ag.Event) -> dict:
    if isinstance(event, ag.MessageEvent):
        msg = event.message
        return {"type": "message", "kind": msg.kind.value, "topic": msg.topic,
                "sender": msg.sender, "payload_bytes": msg.payload_bytes}
    if isinstance(event, ag.WorkDone):
        return {"type": "work_done", "work": event.kind.value,
                "bytes": event.bytes, "round": event.round}
    if isinstance(event, ag.TimerFired):
        return {"type": "timer", "token": event.token}
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
                 fault_rules: Sequence[FaultRule], watchdog_s: Optional[float],
                 record_events: bool):
        if scenario.task is None:
            raise ScenarioError("scenario has no task section")
        section = scenario.task
        self.scenario = scenario
        self.config = config
        self.params: ModelParams = scenario.model_params
        sim_profile: SimProfile = scenario.profile_by_id(section.ms_profile_id)
        self.profile: MsProfile = sim_profile.profile
        self.dirty_rate = sim_profile.dirty_rate_pages_per_s

        source = section.task.source_agent
        dest = section.task.destination_agent
        link = scenario.link_between(source, dest)
        if link is None:
            raise ScenarioError(f"no link between {source!r} and {dest!r}")
        if config.bandwidth_bytes_per_s > link.bandwidth_bytes_per_s * (1 + 1e-9):
            raise ScenarioError(
                "configured bandwidth exceeds the source-destination link")

        if watchdog_s is None:
            watchdog_s = 10.0 * strategy_kpis(
                self.profile, self.params, config.bandwidth_bytes_per_s,
                config.strategy).total_s + 10.0
        client_link = scenario.link_between(dest, section.client)
        self.info = ag.TaskInfo(
            task_id=section.task.container_id,
            container_id=section.task.container_id,
            source=source,
            destination=dest,
            client=section.client,
            orchestrator=section.orchestrator,
            strategy=config.strategy.kind,
            iterations=config.strategy.iterations,
            latency_s=client_link.latency_s if client_link else 0.0,
            flow_update_s=self.params.flow_update_s,
            watchdog_s=watchdog_s,
            ns_config=f"netns:{section.task.container_id}",
            connection=("tcp", section.client, 40001, source, 5201))

        self.agents: dict[str, ag.AgentState] = {
            source: ag.idle_agent(ag.Role.SOURCE, source),
            dest: ag.idle_agent(ag.Role.DESTINATION, dest),
            section.client: ag.idle_agent(ag.Role.CLIENT, section.client),
            section.orchestrator: ag.AgentState(
                role=ag.Role.ORCHESTRATOR, agent_id=section.orchestrator,
                info=self.info),
        }
        self.role_to_agent = {state.role: aid
                              for aid, state in self.agents.items()}
        self.subscribers = {
            topic: [self.role_to_agent[role] for role in roles]
            for topic, roles in ag.subscriptions(self.info).items()}

        self.rng = np.random.default_rng(scenario.seed)
        self.faults = _FaultBox(fault_rules)
        self.record_events = record_events

        self.heap: list[tuple] = []
        self.seq = 0
        self.now = 0.0
        self.events: list[ProtocolEvent] = []
        self.outstanding_queries: dict[str, str] = {}
        self.latencies: dict[tuple[str, str], float] = {}

        self.dirty_clock: Optional[float] = None
        self.message_count = 0
        self.bytes_transferred = 0.0
        self.dirty_pages_at_stopcopy = 0
        self.freeze_time: Optional[float] = None
        self.restore_end: Optional[float] = None
        self.downtime_s: Optional[float] = None

    # -- scheduling ---------------------------------------------------

    def _push(self, time_s: float, tag: str, agent_id: str, obj) -> None:
        heapq.heappush(self.heap, (time_s, self.seq, tag, agent_id, obj))
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

    def _receivers(self, msg: BusMessage) -> list[str]:
        if msg.kind is MessageKind.REPLY:
            # A reply to no outstanding query raises KeyError rather than
            # being counted and delivered to nobody.
            return [self.outstanding_queries[msg.correlation_id]]
        if msg.kind is MessageKind.QUERY:
            self.outstanding_queries[msg.topic] = msg.sender
        return self.subscribers[msg.topic]

    def _latency(self, sender: str, receiver: str) -> float:
        """Propagation delay of a delivery, looked up once per pair."""
        key = (sender, receiver)
        latency = self.latencies.get(key)
        if latency is None:
            link = self.scenario.link_between(sender, receiver)
            latency = self.latencies[key] = link.latency_s if link else 0.0
        return latency

    def _send(self, msg: BusMessage) -> None:
        self.message_count += 1
        for receiver in self._receivers(msg):
            dropped, extra = self.faults.apply(msg, receiver)
            if dropped:
                self._log("bus", "bus", "-", "-",
                          {"type": "drop", "topic": msg.topic,
                           "receiver": receiver})
                continue
            delay = self._latency(msg.sender, receiver) + extra
            self._push(self.now + delay, "deliver", receiver, msg)

    # -- work execution -----------------------------------------------

    def _work_bytes(self, action: ag.StartWork) -> float:
        sizing = action.sizing
        if sizing is ag.WorkSizing.FULL_STATE:
            return float(self.profile.state_size_bytes)
        if sizing is ag.WorkSizing.GIVEN:
            return action.bytes
        if sizing is ag.WorkSizing.NONE:
            return 0.0
        pages = self._capture_dirty()
        if sizing is ag.WorkSizing.DIRTY_PLUS_CONTEXT:
            self.dirty_pages_at_stopcopy = pages
            return (pages * self.profile.page_size_bytes
                    + self.profile.cpu_context_bytes)
        return float(pages * self.profile.page_size_bytes)

    def _work_duration(self, kind: ag.WorkKind, nbytes: float) -> float:
        params = self.params
        if kind in (ag.WorkKind.PRE_CHECKPOINT, ag.WorkKind.ROUND_CHECKPOINT):
            return pre_checkpoint_duration(params, nbytes)
        if kind is ag.WorkKind.STOP_CHECKPOINT:
            return checkpoint_duration(params, nbytes)
        if kind in (ag.WorkKind.TRANSFER_INITIAL, ag.WorkKind.TRANSFER_ROUND,
                    ag.WorkKind.TRANSFER_STOPCOPY):
            return transfer_duration(params, nbytes,
                                     self.config.bandwidth_bytes_per_s)
        if kind in (ag.WorkKind.NS_CLEAR, ag.WorkKind.NS_RECREATE):
            return params.ns_overhead_s
        if kind is ag.WorkKind.FLOW_UPDATE:
            return params.flow_update_s
        if kind is ag.WorkKind.RESTORE:
            return restore_duration(params, nbytes)
        raise DomainError(f"no duration rule for {kind}")

    def _start_work(self, agent_id: str,
                    action: ag.StartWork) -> tuple[float, float]:
        """Schedule one work item; returns its bytes and duration."""
        if action.kind is ag.WorkKind.PRE_CHECKPOINT:
            self.dirty_clock = self.now
        if action.kind is ag.WorkKind.STOP_CHECKPOINT:
            self.freeze_time = self.now
        nbytes = self._work_bytes(action)
        duration = self._work_duration(action.kind, nbytes)
        if action.kind in (ag.WorkKind.TRANSFER_INITIAL,
                           ag.WorkKind.TRANSFER_ROUND,
                           ag.WorkKind.TRANSFER_STOPCOPY):
            self.bytes_transferred += nbytes
        done = ag.WorkDone(kind=action.kind, bytes=nbytes, round=action.round)
        self._push(self.now + duration, "work", agent_id, done)
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
        orch = self.role_to_agent[ag.Role.ORCHESTRATOR]
        self._push(0.0, "kickoff", orch, ag.Kickoff())
        # Without an event log, nothing below formats log material.
        record = self.record_events
        processed = 0
        while self.heap:
            time_s, _, tag, agent_id, obj = heapq.heappop(self.heap)
            self.now = time_s
            processed += 1
            if processed > MAX_EVENTS:
                raise DomainError("event budget exceeded; simulation diverged")
            if tag == "deliver":
                event: ag.Event = ag.MessageEvent(obj)
            else:
                event = obj
            state = self.agents[agent_id]
            if record:
                before = str(state.phase)
            new_state, actions = ag.advance(state, event)
            self.agents[agent_id] = new_state

            action_docs: list[dict] = []
            for action in actions:
                if isinstance(action, ag.Send):
                    self._send(action.message)
                    if record:
                        action_docs.append(
                            {"send": action.message.kind.value,
                             "topic": action.message.topic,
                             "payload_bytes": action.message.payload_bytes})
                elif isinstance(action, ag.StartWork):
                    nbytes, duration = self._start_work(agent_id, action)
                    if record:
                        action_docs.append({"work": action.kind.value,
                                            "bytes": nbytes,
                                            "duration_s": duration})
                elif isinstance(action, ag.SetTimer):
                    self._push(self.now + action.delay_s, "timer", agent_id,
                               ag.TimerFired(action.token))
                    if record:
                        action_docs.append({"timer_s": action.delay_s,
                                            "token": action.token})
                elif record:
                    action_docs.append({"diagnostic": action.text})

            if (isinstance(event, ag.WorkDone)
                    and event.kind is ag.WorkKind.RESTORE
                    and new_state.phase.kind is ag.PhaseKind.DONE):
                self.restore_end = self.now
                if self.freeze_time is not None:
                    self.downtime_s = self.now - self.freeze_time

            if record:
                self._log(agent_id, state.role.value, before,
                          str(new_state.phase), _describe_event(event),
                          tuple(action_docs))

        final_phases = {aid: str(st.phase) for aid, st in self.agents.items()}
        diagnostics = {aid: st.diagnostic for aid, st in self.agents.items()
                       if st.diagnostic}
        completed = all(st.phase.kind is ag.PhaseKind.DONE
                        for st in self.agents.values())
        return MigrationOutcome(
            completed=completed,
            downtime_s=self.downtime_s if completed else None,
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
                 watchdog_s: Optional[float] = None,
                 event_log_path: Union[str, Path, None] = None,
                 record_events: bool = True) -> MigrationOutcome:
    """Simulate one migration run under the given configuration.

    ``watchdog_s`` defaults to ten times the predicted migration duration
    plus ten seconds, generous enough never to fire on a healthy run.
    """
    sim = _Sim(scenario, config, fault_rules, watchdog_s,
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
    return design(section.task, metrics)
