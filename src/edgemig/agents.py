"""Protocol state machines for the agents executing a migration.

Four roles cooperate over the bus: the source host agent, the destination
host agent, the client-side agent (which redirects the service flow), and
the orchestrator (which publishes the task and collects the outcome).

The happy path, for an iterative pre-copy migration with I rounds:

1. the orchestrator publishes the task;
2. the source announces it has started and begins the running-state
   checkpoint, while the destination queries the namespace configuration;
3. the source answers that query once the initial image is transferred,
   handing over the namespace configuration and the initial image in one
   reply (one round trip saved: the destination cannot act before it holds
   both);
4. each dirty-page round is pulled by the destination (a ready
   publication, an image query, an image reply);
5. after the last round the source freezes the service, checkpoints, and
   pushes the stop-and-copy image without waiting to be asked (a request
   round trip inside the downtime window would cost downtime for nothing);
6. the destination recreates the network namespace (the source clears its
   own in parallel) and publishes that it is ready, which triggers the
   client's flow update;
7. the destination waits for the flow update to settle, restores and
   publishes the completion notice.

That comes to 7 + 3*I bus messages, a count the trace tests pin down. A
cold migration follows the same skeleton minus the running-state copies
(the namespace reply then carries no image), also 7 messages.

The topic builders below and :func:`subscriptions`, the table of roles
receiving each publication and query, are the protocol's only routing
facts. Messages stay in process, so headers carry typed objects: the task
publication hands every agent the frozen :class:`TaskInfo` itself. Image
sizes ride on ``payload_bytes``; no header repeats them.

State machines are pure: :func:`advance` maps (state, event) to a new state
plus a list of actions (messages to send, work items to run, watchdogs to
arm), and the simulator or any other driver executes those actions. States
and phases are immutable ``NamedTuple`` classes, copied with ``_replace``. A
:class:`BusMessage` is both: an agent emits it as an action and receives it
as an event. So is a :class:`Work` item, which comes back sized when the
work ends. It names only its kind (plus its round, and for a transfer or
the restore the bytes of the image it moves, as the checkpoint reported
them): the simulator sizes every checkpoint and prices every item,
including the destination's wait for the client's flow update. An agent
takes its task only from the task publication. An event that is not
legal in the current phase moves the agent to Failed and emits a
diagnostic; nothing is dropped silently. Watchdogs are the only timers,
and the driver keeps them: a :class:`SetTimer` guards the wait on a peer
that its transition entered, until the agent's next transition. If that
wait outlasts the driver's watchdog period, the driver delivers a
:class:`TimerFired`, which fails any live agent, so a lost message turns
into a diagnosed failure rather than a hang.

A transition runs once per simulated event, so the code on that path keeps
three rules (timings on CPython 3.11):

* enum members, and the fixed phases entered, are module globals bound at
  import: ``PhaseKind.DONE`` takes ``EnumType.__getattr__``'s slow path,
  0.13 µs against 0.008 µs for a global (0.039 µs on 3.12);
* messages and work items are built from positional arguments: 0.75 µs
  for a three-field frozen dataclass, against 1.28 µs from keywords;
* events and actions are told apart by their exact type.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

from .bus import BusMessage, MessageKind, topic
from .model import (
    STEP_CHECKPOINT,
    STEP_FLOW_UPDATE,
    STEP_NAMESPACE,
    STEP_RESTORE,
    STEP_TRANSFER,
    StrategyKind,
)
from .orchestrator import MigrationConfig


class Role(str, Enum):
    SOURCE = "source"
    DESTINATION = "destination"
    CLIENT = "client"
    ORCHESTRATOR = "orchestrator"


class PhaseKind(str, Enum):
    IDLE = "idle"
    PRE_COPY_ROUND = "precopy_round"
    AWAIT_IMAGE_PULL = "await_image_pull"
    STOP_COPY_CHECKPOINT = "stopcopy_checkpoint"
    NAMESPACE_TRANSITION = "namespace_transition"
    AWAIT_RESTORE = "await_restore"
    DONE = "done"
    FAILED = "failed"


class Phase(NamedTuple):
    kind: PhaseKind
    round: int = 0

    def __str__(self) -> str:  # compact form for logs
        if self.kind is _PRE_COPY_ROUND or self.kind is _AWAIT_IMAGE_PULL:
            return f"{self.kind.value}[{self.round}]"
        return self.kind.value


IDLE = Phase(PhaseKind.IDLE)
DONE = Phase(PhaseKind.DONE)
FAILED = Phase(PhaseKind.FAILED)

TERMINAL_PHASES = frozenset({PhaseKind.DONE, PhaseKind.FAILED})

# Hot-path names (see the module docstring): the members the transitions
# test, and the round-less and round-0 phases they enter.
_PUBLISH, _QUERY, _REPLY = MessageKind  # in definition order
_COLD = StrategyKind.COLD
_IDLE_KIND = PhaseKind.IDLE
_PRE_COPY_ROUND = PhaseKind.PRE_COPY_ROUND
_AWAIT_IMAGE_PULL = PhaseKind.AWAIT_IMAGE_PULL
_STOP_COPY = PhaseKind.STOP_COPY_CHECKPOINT
_NS_TRANSITION = PhaseKind.NAMESPACE_TRANSITION
_AWAIT_RESTORE = PhaseKind.AWAIT_RESTORE
_ROUND_ZERO = Phase(_PRE_COPY_ROUND, 0)
_STOP_COPY_PHASE = Phase(_STOP_COPY)
_NS_TRANSITION_PHASE = Phase(_NS_TRANSITION)
_AWAIT_RESTORE_PHASE = Phase(_AWAIT_RESTORE)


class WorkKind(str, Enum):
    """Timed activities an agent asks its host to carry out."""

    PRE_CHECKPOINT = "pre_checkpoint"
    ROUND_CHECKPOINT = "round_checkpoint"
    STOP_CHECKPOINT = "stop_checkpoint"
    TRANSFER_INITIAL = "transfer_initial"
    TRANSFER_ROUND = "transfer_round"
    TRANSFER_STOPCOPY = "transfer_stopcopy"
    NS_CLEAR = "ns_clear"
    NS_RECREATE = "ns_recreate"
    FLOW_UPDATE = "flow_update"
    # The destination's wait, after ns-ready, for the client's flow update.
    FLOW_SETTLE = "flow_settle"
    RESTORE = "restore"


(_PRE_CHECKPOINT, _ROUND_CHECKPOINT, _STOP_CHECKPOINT, _TRANSFER_INITIAL,
 _TRANSFER_ROUND, _TRANSFER_STOPCOPY, _NS_CLEAR, _NS_RECREATE, _FLOW_UPDATE,
 _FLOW_SETTLE, _RESTORE) = WorkKind  # hot-path names, in definition order


@dataclass(frozen=True, slots=True)
class Work:
    """A timed work item: an agent emits it to start the work, and the
    driver delivers it back, sized, when the work ends."""

    kind: WorkKind
    bytes: float = 0.0
    round: int = 0


@dataclass(frozen=True, slots=True)
class SetTimer:
    """Guard the wait this transition entered, until the agent's next one."""


@dataclass(frozen=True, slots=True)
class Diagnostic:
    text: str


Action = Union[BusMessage, Work, SetTimer, Diagnostic]
_SET_TIMER = SetTimer()


@dataclass(frozen=True, slots=True)
class TimerFired:
    """The agent's guarded wait outlasted the driver's watchdog period."""


@dataclass(frozen=True, slots=True)
class Kickoff:
    """Hands the orchestrator agent its cue to publish the task."""


Event = Union[BusMessage, Work, TimerFired, Kickoff]


# --------------------------------------------------------------------------
# Task wiring shared by every agent


@dataclass(frozen=True, slots=True)
class TaskInfo:
    """Everything an agent learns from the task publication."""

    task_id: str
    source: str
    destination: str
    client: str
    orchestrator: str
    strategy: StrategyKind
    iterations: int
    ns_config: str


# The topic builders are pure and asked for the same few topics on every
# simulated event, so each keeps its recent answers.
_memo = functools.lru_cache(maxsize=4096)


@_memo
def task_topic(task_id: str) -> str:
    return topic(task_id, Role.ORCHESTRATOR.value, "task")


@_memo
def started_topic(task_id: str) -> str:
    return topic(task_id, Role.SOURCE.value, "started")


@_memo
def nsconfig_topic(task_id: str) -> str:
    return topic(task_id, Role.SOURCE.value, "nsconfig")


@_memo
def round_ready_topic(task_id: str, round_index: int) -> str:
    return topic(task_id, Role.SOURCE.value, "round", round_index, "ready")


@_memo
def round_image_topic(task_id: str, round_index: int) -> str:
    return topic(task_id, Role.SOURCE.value, "round", round_index, "image")


@_memo
def stopcopy_topic(task_id: str) -> str:
    return topic(task_id, Role.SOURCE.value, "stopcopy", "image")


@_memo
def ns_ready_topic(task_id: str) -> str:
    return topic(task_id, Role.DESTINATION.value, "ns-ready")


@_memo
def done_topic(task_id: str) -> str:
    return topic(task_id, Role.DESTINATION.value, "done")


@_memo
def failed_topic(task_id: str, role: Role) -> str:
    return topic(task_id, role.value, "failed")


def subscriptions(info: TaskInfo) -> dict[str, tuple[Role, ...]]:
    """Roles receiving each publication and query of one task.

    A publication goes to every listed role, in delivery order; a query
    goes to its one listed role, the topic's owner.
    """
    task_id = info.task_id
    table = {
        task_topic(task_id): (Role.SOURCE, Role.DESTINATION, Role.CLIENT),
        started_topic(task_id): (Role.ORCHESTRATOR,),
        nsconfig_topic(task_id): (Role.SOURCE,),
        stopcopy_topic(task_id): (Role.DESTINATION,),
        ns_ready_topic(task_id): (Role.CLIENT,),
        done_topic(task_id): (Role.ORCHESTRATOR,),
    }
    for round_index in range(1, info.iterations + 1):
        table[round_ready_topic(task_id, round_index)] = (Role.DESTINATION,)
        table[round_image_topic(task_id, round_index)] = (Role.SOURCE,)
    for role in Role:
        table[failed_topic(task_id, role)] = (Role.ORCHESTRATOR,)
    return table


# --------------------------------------------------------------------------
# Agent state


class AgentState(NamedTuple):
    role: Role
    agent_id: str
    phase: Phase = IDLE
    info: Optional[TaskInfo] = None
    # Source side.
    ns_query_seen: bool = False
    preckpt_bytes: Optional[float] = None
    round_bytes: float = 0.0
    # Destination side.
    ns_config: Optional[str] = None
    sc_bytes: Optional[float] = None
    diagnostic: Optional[str] = None


def idle_agent(role: Role, agent_id: str) -> AgentState:
    return AgentState(role=role, agent_id=agent_id)


def _send(state: AgentState, kind: MessageKind, topic: str,
          payload_bytes: float = 0.0, **headers) -> BusMessage:
    return BusMessage(kind, topic, state.agent_id, payload_bytes, headers)


def _fail(state: AgentState, reason: str) -> tuple[AgentState, list[Action]]:
    actions: list[Action] = [Diagnostic(reason)]
    if state.info is not None:
        actions.append(_send(state, _PUBLISH,
                             failed_topic(state.info.task_id, state.role),
                             reason=reason))
    return state._replace(phase=FAILED, diagnostic=reason), actions


def _unexpected(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    if isinstance(event, BusMessage):
        what = f"{event.kind.value} on {event.topic}"
    elif isinstance(event, Work):
        what = f"end of {event.kind.value}"
    else:
        what = type(event).__name__
    return _fail(state, f"unexpected {what} in phase {state.phase}")


def _arm(state: AgentState, *sent: Action, **changes
         ) -> tuple[AgentState, list[Action]]:
    """Emit ``sent``, then guard the phase now waited in. ``changes`` are
    the transition's other field updates, applied in the same copy."""
    return state._replace(**changes), [*sent, _SET_TIMER]


# --------------------------------------------------------------------------
# Source


def _source_stop_copy(state: AgentState, *sent: Action, **changes
                      ) -> tuple[AgentState, list[Action]]:
    """Emit ``sent``, then freeze the service for the stop-and-copy checkpoint.

    ``changes`` are the transition's other field updates, as for :func:`_arm`.
    """
    return (state._replace(phase=_STOP_COPY_PHASE, **changes),
            [*sent, Work(_STOP_CHECKPOINT)])


def _source_image_sent(state: AgentState, reply: BusMessage, done_round: int
                       ) -> tuple[AgentState, list[Action]]:
    """Pre-copy round ``done_round`` is shipped (0: the initial image):
    checkpoint the next round, or stop and copy after the last."""
    if done_round >= state.info.iterations:
        return _source_stop_copy(state, reply)
    next_round = done_round + 1
    return (state._replace(phase=Phase(_PRE_COPY_ROUND, next_round)),
            [reply, Work(_ROUND_CHECKPOINT, 0.0, next_round)])


def _source_start(state: AgentState, info: TaskInfo
                  ) -> tuple[AgentState, list[Action]]:
    started = _send(state, _PUBLISH, started_topic(info.task_id))
    if info.strategy is _COLD:
        return _source_stop_copy(state, started, info=info)
    return (state._replace(info=info, phase=_ROUND_ZERO),
            [started, Work(_PRE_CHECKPOINT)])


def _advance_source(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if type(event) is BusMessage:
        if event.kind is _QUERY and event.topic == nsconfig_topic(info.task_id):
            if state.ns_query_seen:
                return _fail(state, "duplicate namespace-configuration query")
            state = state._replace(ns_query_seen=True)
            if info.strategy is _COLD:
                # Nothing rides along; answer straight away.
                if phase.kind is _STOP_COPY or phase.kind is _NS_TRANSITION:
                    return state, [_send(state, _REPLY, event.topic,
                                         ns_config=info.ns_config)]
                return _unexpected(state, event)
            if phase != _ROUND_ZERO:
                return _unexpected(state, event)
            if state.preckpt_bytes is not None:
                # Initial image already checkpointed; ship it.
                return state, [Work(_TRANSFER_INITIAL, state.preckpt_bytes)]
            return state, []

        if event.kind is _QUERY and phase.kind is _AWAIT_IMAGE_PULL \
                and event.topic == round_image_topic(info.task_id, phase.round):
            return state, [Work(_TRANSFER_ROUND, state.round_bytes,
                                phase.round)]
        return _unexpected(state, event)

    if type(event) is Work:
        kind = event.kind
        if kind is _PRE_CHECKPOINT and phase == _ROUND_ZERO:
            if state.ns_query_seen:
                return (state._replace(preckpt_bytes=event.bytes),
                        [Work(_TRANSFER_INITIAL, event.bytes)])
            # waiting for the destination query
            return _arm(state, preckpt_bytes=event.bytes)

        if kind is _TRANSFER_INITIAL and phase == _ROUND_ZERO:
            reply = _send(state, _REPLY, nsconfig_topic(info.task_id),
                          event.bytes, ns_config=info.ns_config)
            return _source_image_sent(state, reply, 0)

        if kind is _ROUND_CHECKPOINT and phase.kind is _PRE_COPY_ROUND \
                and phase.round == event.round:
            ready = _send(state, _PUBLISH,
                          round_ready_topic(info.task_id, event.round))
            return _arm(state, ready,  # waiting for the pull query
                        round_bytes=event.bytes,
                        phase=Phase(_AWAIT_IMAGE_PULL, event.round))

        if kind is _TRANSFER_ROUND and phase.kind is _AWAIT_IMAGE_PULL \
                and phase.round == event.round:
            reply = _send(state, _REPLY,
                          round_image_topic(info.task_id, event.round),
                          event.bytes)
            return _source_image_sent(state, reply, event.round)

        if kind is _STOP_CHECKPOINT and phase.kind is _STOP_COPY:
            return state, [Work(_TRANSFER_STOPCOPY, event.bytes)]

        if kind is _TRANSFER_STOPCOPY and phase.kind is _STOP_COPY:
            push = _send(state, _PUBLISH, stopcopy_topic(info.task_id),
                         event.bytes)
            return (state._replace(phase=_NS_TRANSITION_PHASE),
                    [push, Work(_NS_CLEAR)])

        if kind is _NS_CLEAR and phase.kind is _NS_TRANSITION:
            return state._replace(phase=DONE), []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Destination


def _dest_maybe_transition(state: AgentState, **changes
                           ) -> tuple[AgentState, list[Action]]:
    """Enter the namespace transition once image and config are both here.

    ``changes`` are the transition's other field updates, as for :func:`_arm`.
    """
    if changes.get("sc_bytes", state.sc_bytes) is None \
            or changes.get("ns_config", state.ns_config) is None:
        return _arm(state, **changes)
    return (state._replace(phase=_NS_TRANSITION_PHASE, **changes),
            [Work(_NS_RECREATE)])


def _dest_image_received(state: AgentState, done_round: int, **changes
                         ) -> tuple[AgentState, list[Action]]:
    """Pre-copy round ``done_round`` is here (0: the initial image): wait
    for the next round's announcement, or the stop-and-copy image after the
    last. ``changes`` are as for :func:`_arm`."""
    if done_round < state.info.iterations:
        next_phase = Phase(_PRE_COPY_ROUND, done_round + 1)
    else:
        next_phase = _STOP_COPY_PHASE
    return _arm(state, phase=next_phase, **changes)


def _dest_start(state: AgentState, info: TaskInfo
                ) -> tuple[AgentState, list[Action]]:
    query = _send(state, _QUERY, nsconfig_topic(info.task_id))
    next_phase = _STOP_COPY_PHASE if info.strategy is _COLD else _ROUND_ZERO
    return _arm(state, query, info=info, phase=next_phase)


def _advance_destination(state: AgentState, event: Event
                         ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if type(event) is BusMessage:
        kind = event.kind
        if kind is _REPLY and event.topic == nsconfig_topic(info.task_id):
            if info.strategy is _COLD:
                if phase.kind is not _STOP_COPY \
                        or state.ns_config is not None:
                    return _unexpected(state, event)
                return _dest_maybe_transition(
                    state, ns_config=str(event.headers["ns_config"]))
            if phase != _ROUND_ZERO:
                return _unexpected(state, event)
            return _dest_image_received(
                state, 0, ns_config=str(event.headers["ns_config"]))

        if kind is _PUBLISH \
                and phase.kind is _PRE_COPY_ROUND and phase.round >= 1 \
                and event.topic == round_ready_topic(info.task_id, phase.round):
            pull = _send(state, _QUERY,
                         round_image_topic(info.task_id, phase.round))
            return _arm(state, pull,
                        phase=Phase(_AWAIT_IMAGE_PULL, phase.round))

        if kind is _REPLY and phase.kind is _AWAIT_IMAGE_PULL \
                and event.topic == round_image_topic(info.task_id, phase.round):
            return _dest_image_received(state, phase.round)

        if kind is _PUBLISH and phase.kind is _STOP_COPY \
                and event.topic == stopcopy_topic(info.task_id):
            if state.sc_bytes is not None:
                return _fail(state, "duplicate stop-and-copy image")
            return _dest_maybe_transition(state, sc_bytes=event.payload_bytes)
        return _unexpected(state, event)

    if type(event) is Work:
        kind = event.kind
        if kind is _NS_RECREATE and phase.kind is _NS_TRANSITION:
            ready = _send(state, _PUBLISH, ns_ready_topic(info.task_id))
            return (state._replace(phase=_AWAIT_RESTORE_PHASE),
                    [ready, Work(_FLOW_SETTLE)])

        if kind is _FLOW_SETTLE and phase.kind is _AWAIT_RESTORE:
            return state, [Work(_RESTORE, state.sc_bytes)]

        if kind is _RESTORE and phase.kind is _AWAIT_RESTORE:
            done = _send(state, _PUBLISH, done_topic(info.task_id))
            return state._replace(phase=DONE), [done]
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Client


def _client_start(state: AgentState, info: TaskInfo
                  ) -> tuple[AgentState, list[Action]]:
    return _arm(state, info=info)


def _advance_client(state: AgentState, event: Event
                    ) -> tuple[AgentState, list[Action]]:
    phase = state.phase
    if type(event) is BusMessage:
        if event.kind is _PUBLISH and phase.kind is _IDLE_KIND \
                and event.topic == ns_ready_topic(state.info.task_id):
            state = state._replace(phase=_NS_TRANSITION_PHASE)
            return state, [Work(_FLOW_UPDATE)]

    if type(event) is Work:
        if event.kind is _FLOW_UPDATE and phase.kind is _NS_TRANSITION:
            return state._replace(phase=DONE), []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Orchestrator


def _advance_orchestrator(state: AgentState, event: Event
                          ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if type(event) is Kickoff:
        if phase.kind is not _IDLE_KIND or info is None:
            return _unexpected(state, event)
        pub = _send(state, _PUBLISH, task_topic(info.task_id), task=info)
        return _arm(state, pub)  # expect the start announcement

    if type(event) is BusMessage and info is not None:
        if event.topic.endswith("/failed") and event.kind is _PUBLISH:
            reason = str(event.headers.get("reason", "agent failure"))
            return (state._replace(phase=FAILED,
                                   diagnostic=f"{event.sender}: {reason}"),
                    [Diagnostic(f"failure reported by {event.sender}: {reason}")])
        if event.kind is _PUBLISH \
                and event.topic == started_topic(info.task_id) \
                and phase.kind is _IDLE_KIND:
            # expect the completion notice
            return _arm(state, phase=_AWAIT_RESTORE_PHASE)
        if event.kind is _PUBLISH \
                and event.topic == done_topic(info.task_id) \
                and phase.kind is _AWAIT_RESTORE:
            return state._replace(phase=DONE), []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Shared entry point


_ROLE_DISPATCH = {
    Role.SOURCE: _advance_source,
    Role.DESTINATION: _advance_destination,
    Role.CLIENT: _advance_client,
    Role.ORCHESTRATOR: _advance_orchestrator,
}
# First transitions; the orchestrator is built holding its task.
_ROLE_START = {
    Role.SOURCE: _source_start,
    Role.DESTINATION: _dest_start,
    Role.CLIENT: _client_start,
}


def _take_task(state: AgentState, event: Event
               ) -> tuple[AgentState, list[Action]]:
    """An agent without a task accepts only the publication of one."""
    task = None
    if type(event) is BusMessage and event.kind is _PUBLISH:
        task = event.headers.get("task")
    if not isinstance(task, TaskInfo) \
            or event.topic != task_topic(task.task_id):
        return _unexpected(state, event)
    return _ROLE_START[state.role](state, task)


def advance(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    """One transition of an agent's state machine.

    Terminal phases absorb every event; in any other phase a fired
    watchdog fails the agent, whatever its role. An agent without a task
    takes only the publication of one. Any other event that the current
    phase has no transition for fails the agent with a diagnostic.
    """
    if state.phase.kind in TERMINAL_PHASES:
        return state, []
    if type(event) is TimerFired:
        return _fail(state, f"timed out waiting in phase {state.phase}")
    if state.info is None and state.role is not Role.ORCHESTRATOR:
        return _take_task(state, event)
    return _ROLE_DISPATCH[state.role](state, event)


# --------------------------------------------------------------------------
# Stop-and-copy schedule


@dataclass(frozen=True, slots=True)
class ScheduledStep:
    step_id: str
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


def stopcopy_schedule(config: MigrationConfig) -> tuple[ScheduledStep, ...]:
    """Timed plan of the stop-and-copy pipeline for a configuration.

    Durations come from ``config.predicted.step_durations_s``; offsets are
    relative to the service freeze. The namespace clear (S2) and recreation
    (S4) share one window (they run on different hosts), the flow update
    follows, and the restore starts once the flow update has settled. The
    schedule spans exactly the predicted downtime.
    """
    durations = config.predicted.step_durations_s
    steps = []
    t = 0.0
    for step_ids, key in (((STEP_CHECKPOINT,), STEP_CHECKPOINT),
                          ((STEP_TRANSFER,), STEP_TRANSFER),
                          (("S2", "S4"), STEP_NAMESPACE),
                          ((STEP_FLOW_UPDATE,), STEP_FLOW_UPDATE),
                          ((STEP_RESTORE,), STEP_RESTORE)):
        steps.extend(ScheduledStep(step_id, t, durations[key])
                     for step_id in step_ids)
        t += durations[key]
    return tuple(steps)
