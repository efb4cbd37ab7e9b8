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
are accounted exactly once. Every message, replies included, is routed
by its kind and topic through one table, :func:`agents.clean_run`, as
:func:`agents.compile_protocol` resolves it to agent ids; no message off
that table is sent. A failed agent reports to no one: the outcome's
``diagnostics`` hold each agent's own reason. Like that table, the run
setting (the link, the designer's view, each hop's latency) is built once
per task and shared, read-only, by a plan and every run of an equal task
(a sweep's rows). The seeded generator is made at the first dirty draw,
from the seed or, on a sub-stream (a sweep row's), from the first 64-bit
word of ``SeedSequence([seed, *stream])``: a cold run never draws, so
derives none.

The simulator keeps all the time: it prices every work item and holds one
watchdog deadline per live agent, ten times the predicted total plus ten
seconds after the agent's last event. Any agent neither done nor failed
that hears nothing for that period fails, whatever it waits on. A run
stops once every agent is done or failed, so ``end_time_s`` is the time
of the last event an agent acted on.

Fault injection is off by default. Drop and delay rules match deliveries
by topic substring and occurrence index; a dropped delivery is logged and
the waiting agent's watchdog later turns the loss into a diagnosed
failure, so a faulted run terminates instead of hanging.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import agents as ag
from .bus import BusMessage
from .errors import DomainError, ScenarioError, check_number, checked
from .model import (
    BYTES_PER_S_PER_MBPS,
    ModelParams,
    MsProfile,
    checkpoint_duration,
    pre_checkpoint_duration,
    restore_duration,
    transfer_duration,
)
from .orchestrator import MetricsView, MigrationConfig, design
from .scenario import Link, Scenario, SimProfile, link_pairs

log = logging.getLogger(__name__)

MAX_EVENTS = 1_000_000
# Hot-path names, bound once at import (see the agents docstring).
_W = ag.WorkKind
_Work = ag.Work
# Work that takes an image, so comes back sized; work that moves one over
# the source-destination link.
_CHECKPOINTS = frozenset({_W.ROUND_CHECKPOINT, _W.STOP_CHECKPOINT})
_TRANSFERS = frozenset({_W.TRANSFER_ROUND, _W.TRANSFER_STOPCOPY})
_ROUND_CHECKPOINT = _W.ROUND_CHECKPOINT
_FLOW_UPDATE, _RESTORE = _W.FLOW_UPDATE, _W.RESTORE
_DONE = ag.DONE
_TIMER_FIRED = ag.TimerFired()


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
    check_number("rate_pages_per_s", rate_pages_per_s)
    check_number("window_s", window_s)
    check_number("total_pages", total_pages, 1, whole=True)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    p_dirty = -math.expm1(-rate_pages_per_s * window_s / total_pages)
    return int(rng.binomial(total_pages, p_dirty))


# --------------------------------------------------------------------------
# Fault injection


def _check_rule(rule: FaultRule) -> None:
    """Reject a rule that could never fire or would run the clock backwards;
    a run rejects one that names none of its agents or topics."""
    if not isinstance(rule.topic_contains, str):
        raise DomainError("topic_contains must be a string, got "
                          f"{rule.topic_contains!r}")
    if not isinstance(rule.receiver, (str, type(None))):
        raise DomainError("receiver must be None or an agent id string, "
                          f"got {rule.receiver!r}")
    check_number("occurrence", rule.occurrence, 1, whole=True)
    if isinstance(rule, DelayRule):
        check_number("delay_s", rule.delay_s)


@checked
class DropRule(NamedTuple):
    """Drop the Nth delivery whose topic contains the given fragment."""

    topic_contains: str
    occurrence: int = 1
    receiver: Optional[str] = None
    _check = _check_rule


@checked
class DelayRule(NamedTuple):
    """Delay the Nth matching delivery, reordering it past later traffic."""

    topic_contains: str
    delay_s: float
    occurrence: int = 1
    receiver: Optional[str] = None
    _check = _check_rule


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
# Run setting


class _Setting(NamedTuple):
    """The run setting of equal links, model, profile and task agents."""

    metrics: MetricsView
    dirty_rate: float
    latency: Mapping[str, Mapping[str, float]]


def _setting(scenario: Scenario) -> _Setting:
    if (section := scenario.task) is None:
        raise ScenarioError("scenario has no task section")
    return _run_setting(scenario.links, scenario.model_params,
                        scenario.profile_by_id(section.ms_profile_id),
                        (section.task.source_agent,
                         section.task.destination_agent, section.client,
                         section.orchestrator))


@functools.lru_cache(maxsize=256)
def _run_setting(links: tuple[Link, ...], params: ModelParams,
                 sim_profile: SimProfile,
                 agent_ids: tuple[str, ...]) -> _Setting:
    """Checked and built once per key, then shared by plans and runs."""
    if len(set(agent_ids)) < len(agent_ids):
        raise ScenarioError("task source, destination, client and "
                            f"orchestrator must differ, got {agent_ids}")
    pairs = link_pairs(links)
    if (link := pairs.get(frozenset(agent_ids[:2]))) is None:
        raise ScenarioError("no link between source {!r} and destination "
                            "{!r}".format(*agent_ids[:2]))
    latency = {a: MappingProxyType({
        b: getattr(pairs.get(frozenset((a, b))), "latency_s", 0.0)
        for b in agent_ids}) for a in agent_ids}
    return _Setting(
        MetricsView(sim_profile.profile, params, link.bandwidth_bytes_per_s),
        sim_profile.dirty_rate_pages_per_s, MappingProxyType(latency))


# --------------------------------------------------------------------------
# Event log


class ProtocolEvent(NamedTuple):
    seq: int
    time_s: float
    agent: str
    role: str
    phase_before: str
    phase_after: str
    event: dict
    actions: tuple[dict, ...] = ()

    def to_json_line(self) -> str:
        return json.dumps(self._asdict())  # a tuple as a list


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


class MigrationOutcome(NamedTuple):
    """Measured results of one simulated run."""

    completed: bool
    downtime_s: Optional[float]
    total_s: Optional[float]
    bytes_transferred: float
    dirty_pages_at_stopcopy: int
    message_count: int
    end_time_s: float
    final_phases: dict[str, str]
    diagnostics: dict[str, str]
    events: tuple[ProtocolEvent, ...] = ()


# --------------------------------------------------------------------------
# The simulation proper


class _Sim:
    def __init__(self, scenario: Scenario, config: MigrationConfig,
                 fault_rules: Sequence[FaultRule], record_events: bool,
                 stream: tuple[int, ...] = ()):
        setting = _setting(scenario)
        section, task = scenario.task, scenario.task.task
        self.config = config
        self.params: ModelParams = scenario.model_params
        self.profile: MsProfile = setting.metrics.profile
        self.total_pages = self.profile.total_pages
        self.dirty_rate = setting.dirty_rate
        if config.bandwidth_bytes_per_s > \
                setting.metrics.available_bandwidth_bytes_per_s * (1 + 1e-9):
            raise ScenarioError(
                "configured bandwidth exceeds the source-destination link")

        # The only watchdog period, derived from the plan (run_scenario).
        self.watchdog_s = 10.0 * config.predicted.total_s + 10.0
        source, dest = task.source_agent, task.destination_agent
        if not math.isfinite(self.watchdog_s):
            cause = ""  # the link, where it cannot move the state in time
            if math.isinf(transfer_duration(
                    self.params, self.profile.state_size_bytes,
                    config.bandwidth_bytes_per_s)):
                mbps = scenario.link_between(source, dest).bandwidth_mbps
                cause = (f" (the source-destination link {source!r}-{dest!r}"
                         f" has bandwidth_mbps {mbps!r})")
            raise ScenarioError(
                f"predicted total_s {config.predicted.total_s!r} is too large"
                " for a finite watchdog period" + cause)
        self.info = ag.TaskInfo(
            task.container_id, source, dest, section.client,
            section.orchestrator, config.strategy.kind,
            config.strategy.iterations, f"netns:{task.container_id}")
        self.agents: dict[str, ag.AgentState] = {
            source: ag.idle_agent(ag.Role.SOURCE, source),
            dest: ag.idle_agent(ag.Role.DESTINATION, dest),
            section.client: ag.idle_agent(ag.Role.CLIENT, section.client),
            section.orchestrator: ag.AgentState(
                ag.Role.ORCHESTRATOR, section.orchestrator, info=self.info),
        }
        self.subscribers = ag.compile_protocol(self.info).routes
        for rule in fault_rules:  # one that could never fire
            if rule.receiver not in (None, *self.agents):
                raise DomainError(f"{rule!r}: no agent of the run is "
                                  f"{rule.receiver!r}")
            if not any(rule.topic_contains in t for _, t in self.subscribers):
                raise DomainError(f"{rule!r}: no topic of the run contains "
                                  f"{rule.topic_contains!r}")
        self.latency = setting.latency
        self.seed = scenario.seed
        for index in stream:
            check_number("stream", index, whole=True)
        self.stream = stream
        self.rng: Optional[np.random.Generator] = None
        self.faults = _FaultBox(fault_rules) if fault_rules else None
        self.record_events = record_events

        # Heap entries are (time, seq, agent id, event); seq breaks ties in
        # insertion order.
        self.heap: list[tuple] = []
        self.next_seq = itertools.count().__next__
        self.now = 0.0
        self.events: list[ProtocolEvent] = []

        self.dirty_clock: Optional[float] = None
        self.message_count = 0
        self.bytes_transferred = 0.0
        self.dirty_pages_at_stopcopy = 0
        self.freeze_time: Optional[float] = None
        self.restore_end: Optional[float] = None

    # -- dirty process ------------------------------------------------

    def _capture_dirty(self) -> int:
        """Pages dirtied since the previous snapshot point."""
        if self.dirty_clock is None:
            raise DomainError("dirty capture before the initial snapshot")
        window = self.now - self.dirty_clock
        self.dirty_clock = self.now
        if self.total_pages == 0:
            # An empty state has no pages to dirty.
            return 0
        if self.rng is None:  # a cold run never draws
            seed = self.seed
            if self.stream:
                seed = int(np.random.SeedSequence([seed, *self.stream])
                           .generate_state(1, dtype=np.uint64)[0])
            self.rng = np.random.default_rng(seed)
        return dirty_set_size(self.dirty_rate, window, self.total_pages,
                              self.rng)

    # -- routing ------------------------------------------------------

    def _send(self, msg: BusMessage) -> None:
        # An unlisted (kind, topic) raises KeyError rather than being
        # counted and delivered to nobody.
        receivers = self.subscribers[msg.kind, msg.topic]
        self.message_count += 1
        latency = self.latency[msg.sender]
        now, faults = self.now, self.faults
        for receiver in receivers:
            dropped, extra = (faults.apply(msg, receiver) if faults
                              else (False, 0.0))
            if dropped:
                self._log("bus", "bus", "-", "-",
                          {"type": "drop", "topic": msg.topic,
                           "receiver": receiver})
                continue
            heappush(self.heap, (now + (latency[receiver] + extra),
                                 self.next_seq(), receiver, msg))

    # -- work execution -----------------------------------------------

    def _start_work(self, agent_id: str,
                    action: ag.Work) -> tuple[float, float]:
        """Size, price and schedule one work item; returns its bytes and
        duration. The one place that knows what each kind moves and costs.
        A checkpoint comes back holding the size it took; any other item
        comes back as it went out."""
        kind = action.kind
        params = self.params
        if kind in _CHECKPOINTS:
            page_size = self.profile.page_size_bytes
            if kind is _ROUND_CHECKPOINT:
                if action.round:
                    nbytes = float(self._capture_dirty() * page_size)
                else:  # round 0 takes the whole state and starts the clock
                    self.dirty_clock = self.now
                    nbytes = float(self.profile.state_size_bytes)
                duration = pre_checkpoint_duration(params, nbytes)
            else:
                self.freeze_time = self.now
                if self.dirty_clock is None:  # cold: no earlier snapshot
                    nbytes = float(self.profile.state_size_bytes)
                else:
                    # Left an int: the event log prints it without a ".0".
                    pages = self.dirty_pages_at_stopcopy = \
                        self._capture_dirty()
                    nbytes = (pages * page_size
                              + self.profile.cpu_context_bytes)
                duration = checkpoint_duration(params, nbytes)
            action = _Work(kind, nbytes, action.round)
        elif kind in _TRANSFERS:
            nbytes = action.bytes
            duration = transfer_duration(params, nbytes,
                                         self.config.bandwidth_bytes_per_s)
            self.bytes_transferred += nbytes
        elif kind is _RESTORE:
            nbytes = action.bytes
            duration = restore_duration(params, nbytes)
        elif kind is _FLOW_UPDATE:
            nbytes, duration = 0.0, params.flow_update_s
        else:  # NS_CLEAR, NS_RECREATE
            nbytes, duration = 0.0, params.ns_overhead_s
        heappush(self.heap,
                 (self.now + duration, self.next_seq(), agent_id, action))
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
        # Looked up per run, never at import: a tracer or a test may have
        # replaced agents.advance (and dirty_set_size, which _capture_dirty
        # looks up per draw).
        advance = ag.advance
        # Without an event log, nothing below formats log material; below
        # DEBUG, no phase change (as printed) is logged.
        record = self.record_events
        debug = log.isEnabledFor(logging.DEBUG)
        terminal = ag.TERMINAL_PHASES
        agents, send, start_work = self.agents, self._send, self._start_work
        watchdog_s = self.watchdog_s
        # agent id -> its watchdog as a heap entry, armed with the seq of
        # the event it follows. All share one delay, so the first is the
        # earliest; entries compare on unique (time, seq).
        heap, deadlines = self.heap, {}
        heappush(heap, (0.0, self.next_seq(), self.info.orchestrator,
                        ag.Kickoff()))
        processed = 0
        live = len(agents)  # agents neither done nor failed
        while live and (heap or deadlines):
            entry = next(iter(deadlines.values()), None)
            if entry is None or heap and heap[0] < entry:
                entry = heappop(heap)
            time_s, seq, agent_id, event = entry
            deadlines.pop(agent_id, None)  # re-armed below while live
            self.now = time_s
            processed += 1
            if processed > MAX_EVENTS:
                raise DomainError("event budget exceeded; simulation diverged")
            state = agents[agent_id]
            new_state, actions = advance(state, event)
            agents[agent_id] = new_state
            if new_state.phase not in terminal:
                deadlines[agent_id] = (time_s + watchdog_s, seq, agent_id,
                                       _TIMER_FIRED)
            elif state.phase not in terminal:
                live -= 1
            if debug and new_state.phase != state.phase:
                log.debug("%s at %.9g s: %s -> %s", agent_id, time_s,
                          state.phase, new_state.phase)

            if record:
                action_docs: list[dict] = []
            for action in actions:
                if type(action) is BusMessage:
                    send(action)
                    if record:
                        action_docs.append(
                            {"send": action.kind.value, "topic": action.topic,
                             "payload_bytes": action.payload_bytes})
                else:  # a Work item
                    nbytes, duration = start_work(agent_id, action)
                    if record:
                        action_docs.append({"work": action.kind.value,
                                            "bytes": nbytes,
                                            "duration_s": duration})

            if (type(event) is _Work and event.kind is _RESTORE
                    and new_state.phase == _DONE):
                self.restore_end = time_s

            if record:
                if new_state.diagnostic != state.diagnostic:
                    action_docs.append({"diagnostic": new_state.diagnostic})
                self._log(agent_id, state.role.value, state.phase,
                          new_state.phase, _describe_event(event),
                          tuple(action_docs))

        final_phases, diagnostics, completed = {}, {}, True
        for aid, st in agents.items():
            phase = st.phase
            final_phases[aid] = phase
            completed = completed and phase == _DONE
            # An agent still live here has no event left that could move it.
            if st.diagnostic or phase not in terminal:
                diagnostics[aid] = st.diagnostic or f"stalled in phase {phase}"
        downtime = self.restore_end - self.freeze_time if completed else None
        return MigrationOutcome(
            completed, downtime, self.restore_end if completed else None,
            self.bytes_transferred, self.dirty_pages_at_stopcopy,
            self.message_count, self.now, final_phases, diagnostics,
            tuple(self.events))


def run_scenario(scenario: Scenario, config: MigrationConfig, *,
                 fault_rules: Sequence[FaultRule] = (),
                 record_events: bool = True,
                 stream: tuple[int, ...] = ()) -> MigrationOutcome:
    """Simulate one migration run under the given configuration.

    ``stream``, a sweep row's (target index, profile index) for example,
    picks a sub-stream of the scenario seed for the dirty draws; empty, the
    seed itself. Every watchdog waits ten times the predicted migration
    duration plus ten seconds, generous enough never to fire on a healthy
    run. With ``record_events``, ``outcome.events`` holds the event log;
    the simulator writes no file. A fault rule whose receiver is no agent
    of the run, or whose fragment is in none of its topics, raises
    :class:`DomainError`.
    """
    outcome = _Sim(scenario, config, fault_rules, record_events,
                   stream).run()
    if not outcome.completed:
        log.warning("migration did not complete: %s", outcome.diagnostics)
    return outcome


def plan_from_scenario(scenario: Scenario) -> MigrationConfig:
    """Run the orchestration design step against a scenario's task."""
    metrics = _setting(scenario).metrics
    config = design(scenario.task.task, metrics)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("design: %s, %d iterations at %.6g Mbps; predicted "
                  "downtime %.6g s, total %.6g s; target met: %s",
                  config.strategy.kind.value, config.strategy.iterations,
                  config.bandwidth_bytes_per_s / BYTES_PER_S_PER_MBPS,
                  config.predicted.downtime_s, config.predicted.total_s,
                  config.target_met)
    return config
