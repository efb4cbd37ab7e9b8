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
7. the destination restores once the flow update has settled and publishes
   the completion notice.

That comes to 7 + 3*I bus messages, a count the trace tests pin down. A
cold migration follows the same skeleton minus the running-state copies
(the namespace reply then carries no image), also 7 messages.

The topic builders below and :func:`subscriptions`, the table of roles
receiving each publication and query, are the protocol's only routing
facts.
Messages stay in process, so headers carry typed objects: the task
publication hands every agent the frozen :class:`TaskInfo` itself.

State machines are pure: :func:`advance` maps (state, event) to a new
state plus a list of actions (messages to send, work items to run, timers
to arm), and the simulator or any other driver executes those actions. An
event that is not legal in the current phase moves the agent to Failed and
emits a diagnostic; nothing is dropped silently. Agents arm a watchdog
whenever they wait on a peer, so a lost message turns into a diagnosed
failure rather than a hang.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Union

from .bus import BusMessage, MessageKind, topic
from .errors import MissingFlowError
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


@dataclass(frozen=True, slots=True)
class Phase:
    kind: PhaseKind
    round: int = 0

    def __str__(self) -> str:  # compact form for logs
        if self.kind in (PhaseKind.PRE_COPY_ROUND, PhaseKind.AWAIT_IMAGE_PULL):
            return f"{self.kind.value}[{self.round}]"
        return self.kind.value


IDLE = Phase(PhaseKind.IDLE)
DONE = Phase(PhaseKind.DONE)
FAILED = Phase(PhaseKind.FAILED)

TERMINAL_PHASES = frozenset({PhaseKind.DONE, PhaseKind.FAILED})


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
    RESTORE = "restore"


class WorkSizing(str, Enum):
    """How the executor determines the byte count of a work item."""

    FULL_STATE = "full_state"
    DIRTY_SET = "dirty_set"
    DIRTY_PLUS_CONTEXT = "dirty_plus_context"
    GIVEN = "given"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class Send:
    message: BusMessage


@dataclass(frozen=True, slots=True)
class StartWork:
    kind: WorkKind
    sizing: WorkSizing
    bytes: float = 0.0
    round: int = 0


@dataclass(frozen=True, slots=True)
class SetTimer:
    delay_s: float
    token: str


@dataclass(frozen=True, slots=True)
class Diagnostic:
    text: str


Action = Union[Send, StartWork, SetTimer, Diagnostic]


@dataclass(frozen=True, slots=True)
class MessageEvent:
    message: BusMessage


@dataclass(frozen=True, slots=True)
class WorkDone:
    kind: WorkKind
    bytes: float = 0.0
    round: int = 0


@dataclass(frozen=True, slots=True)
class TimerFired:
    token: str


@dataclass(frozen=True, slots=True)
class Kickoff:
    """Hands the orchestrator agent its cue to publish the task."""


Event = Union[MessageEvent, WorkDone, TimerFired, Kickoff]


# --------------------------------------------------------------------------
# Flow table


@dataclass(frozen=True, slots=True)
class FlowTable:
    """Connection 5-tuple to egress endpoint map, updated functionally."""

    entries: Mapping[tuple, str] = field(default_factory=dict)


def update_flow(table: FlowTable, connection: tuple, egress: str) -> FlowTable:
    """Return a table with one connection redirected.

    The input table is untouched, so a reader holding it never observes a
    half-applied update. Unknown connections are a caller bug.
    """
    if connection not in table.entries:
        raise MissingFlowError(f"unknown connection {connection!r}")
    entries = dict(table.entries)
    entries[connection] = egress
    return FlowTable(entries=entries)


# --------------------------------------------------------------------------
# Task wiring shared by every agent


@dataclass(frozen=True, slots=True)
class TaskInfo:
    """Everything an agent learns from the task publication."""

    task_id: str
    container_id: str
    source: str
    destination: str
    client: str
    orchestrator: str
    strategy: StrategyKind
    iterations: int
    latency_s: float
    flow_update_s: float
    watchdog_s: float
    ns_config: str
    connection: tuple


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


@dataclass(frozen=True, slots=True)
class AgentState:
    role: Role
    agent_id: str
    phase: Phase = IDLE
    info: Optional[TaskInfo] = None
    # Watchdog bookkeeping: only the most recently armed token is live.
    guard: Optional[str] = None
    guard_seq: int = 0
    # Source side.
    ns_query_seen: bool = False
    ns_replied: bool = False
    preckpt_bytes: Optional[float] = None
    round_bytes: float = 0.0
    # Destination side.
    ns_config: Optional[str] = None
    sc_bytes: Optional[float] = None
    restore_token: Optional[str] = None
    # Client side.
    flow_table: FlowTable = field(default_factory=FlowTable)
    diagnostic: Optional[str] = None


def idle_agent(role: Role, agent_id: str) -> AgentState:
    return AgentState(role=role, agent_id=agent_id)


def _fail(state: AgentState, reason: str) -> tuple[AgentState, list[Action]]:
    actions: list[Action] = [Diagnostic(reason)]
    if state.info is not None:
        actions.append(Send(BusMessage(
            kind=MessageKind.PUBLISH,
            topic=failed_topic(state.info.task_id, state.role),
            sender=state.agent_id,
            headers={"reason": reason})))
    return replace(state, phase=FAILED, diagnostic=reason), actions


def _unexpected(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    if isinstance(event, MessageEvent):
        what = f"{event.message.kind.value} on {event.message.topic}"
    else:
        what = type(event).__name__
    return _fail(state, f"unexpected {what} in phase {state.phase}")


def _arm(state: AgentState, actions: list[Action], **changes) -> AgentState:
    """Arm the watchdog for the phase the agent is now waiting in.

    ``changes`` are the transition's other field updates, applied in the
    same copy; the new guard replaces any armed one.
    """
    info = changes.get("info", state.info)
    assert info is not None
    token = f"{state.agent_id}:guard:{state.guard_seq}"
    actions.append(SetTimer(delay_s=info.watchdog_s, token=token))
    return replace(state, guard=token, guard_seq=state.guard_seq + 1,
                   **changes)


def _watchdog_fired(state: AgentState, event: TimerFired) -> bool:
    return state.guard is not None and event.token == state.guard


# --------------------------------------------------------------------------
# Source


def _source_stopcopy_actions(state: AgentState, **changes
                             ) -> tuple[AgentState, list[Action]]:
    """Freeze the service and start the stop-and-copy checkpoint.

    ``changes`` are the transition's other field updates, as for :func:`_arm`.
    """
    info = changes.get("info", state.info)
    sizing = (WorkSizing.FULL_STATE if info.strategy is StrategyKind.COLD
              else WorkSizing.DIRTY_PLUS_CONTEXT)
    actions: list[Action] = [StartWork(WorkKind.STOP_CHECKPOINT, sizing)]
    return (replace(state, guard=None,
                    phase=Phase(PhaseKind.STOP_COPY_CHECKPOINT), **changes),
            actions)


def _advance_source(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if isinstance(event, MessageEvent):
        msg = event.message
        if (msg.kind is MessageKind.PUBLISH and phase.kind is PhaseKind.IDLE
                and info is None):
            new_info = msg.headers["task"]
            started = Send(BusMessage(
                kind=MessageKind.PUBLISH,
                topic=started_topic(new_info.task_id),
                sender=state.agent_id))
            if new_info.strategy is StrategyKind.COLD:
                state, actions = _source_stopcopy_actions(state, info=new_info)
                return state, [started] + actions
            work = StartWork(WorkKind.PRE_CHECKPOINT, WorkSizing.FULL_STATE)
            return (replace(state, info=new_info,
                            phase=Phase(PhaseKind.PRE_COPY_ROUND, 0)),
                    [started, work])

        if msg.kind is MessageKind.QUERY and info is not None \
                and msg.topic == nsconfig_topic(info.task_id):
            if state.ns_query_seen:
                return _fail(state, "duplicate namespace-configuration query")
            state = replace(state, ns_query_seen=True)
            if info.strategy is StrategyKind.COLD:
                # Nothing rides along; answer straight away.
                if phase.kind in (PhaseKind.STOP_COPY_CHECKPOINT,
                                  PhaseKind.NAMESPACE_TRANSITION):
                    reply = Send(BusMessage(
                        kind=MessageKind.REPLY,
                        topic=msg.topic,
                        sender=state.agent_id,
                        correlation_id=msg.topic,
                        headers={"ns_config": info.ns_config}))
                    return replace(state, ns_replied=True), [reply]
                return _unexpected(state, event)
            if phase != Phase(PhaseKind.PRE_COPY_ROUND, 0):
                return _unexpected(state, event)
            if state.preckpt_bytes is not None:
                # Initial image already checkpointed; ship it.
                state = replace(state, guard=None)
                return state, [StartWork(WorkKind.TRANSFER_INITIAL,
                                         WorkSizing.GIVEN,
                                         bytes=state.preckpt_bytes)]
            return state, []

        if msg.kind is MessageKind.QUERY and info is not None \
                and phase.kind is PhaseKind.AWAIT_IMAGE_PULL \
                and msg.topic == round_image_topic(info.task_id, phase.round):
            state = replace(state, guard=None)
            return state, [StartWork(WorkKind.TRANSFER_ROUND, WorkSizing.GIVEN,
                                     bytes=state.round_bytes,
                                     round=phase.round)]
        return _unexpected(state, event)

    if isinstance(event, WorkDone):
        if event.kind is WorkKind.PRE_CHECKPOINT \
                and phase == Phase(PhaseKind.PRE_COPY_ROUND, 0):
            if state.ns_query_seen:
                return (replace(state, preckpt_bytes=event.bytes),
                        [StartWork(WorkKind.TRANSFER_INITIAL,
                                   WorkSizing.GIVEN, bytes=event.bytes)])
            actions: list[Action] = []
            # waiting for the destination query
            state = _arm(state, actions, preckpt_bytes=event.bytes)
            return state, actions

        if event.kind is WorkKind.TRANSFER_INITIAL \
                and phase == Phase(PhaseKind.PRE_COPY_ROUND, 0):
            reply = Send(BusMessage(
                kind=MessageKind.REPLY,
                topic=nsconfig_topic(info.task_id),
                sender=state.agent_id,
                payload_bytes=event.bytes,
                correlation_id=nsconfig_topic(info.task_id),
                headers={"ns_config": info.ns_config,
                         "image_bytes": event.bytes}))
            if info.iterations >= 1:
                work = StartWork(WorkKind.ROUND_CHECKPOINT, WorkSizing.DIRTY_SET,
                                 round=1)
                return (replace(state, ns_replied=True,
                                phase=Phase(PhaseKind.PRE_COPY_ROUND, 1)),
                        [reply, work])
            state, actions = _source_stopcopy_actions(state, ns_replied=True)
            return state, [reply] + actions

        if event.kind is WorkKind.ROUND_CHECKPOINT \
                and phase == Phase(PhaseKind.PRE_COPY_ROUND, event.round):
            ready = Send(BusMessage(
                kind=MessageKind.PUBLISH,
                topic=round_ready_topic(info.task_id, event.round),
                sender=state.agent_id,
                headers={"round": event.round, "image_bytes": event.bytes}))
            actions = [ready]
            state = _arm(state, actions,  # waiting for the pull query
                         round_bytes=event.bytes,
                         phase=Phase(PhaseKind.AWAIT_IMAGE_PULL, event.round))
            return state, actions

        if event.kind is WorkKind.TRANSFER_ROUND \
                and phase == Phase(PhaseKind.AWAIT_IMAGE_PULL, event.round):
            reply = Send(BusMessage(
                kind=MessageKind.REPLY,
                topic=round_image_topic(info.task_id, event.round),
                sender=state.agent_id,
                payload_bytes=event.bytes,
                correlation_id=round_image_topic(info.task_id, event.round),
                headers={"round": event.round, "image_bytes": event.bytes}))
            if event.round < info.iterations:
                next_round = event.round + 1
                work = StartWork(WorkKind.ROUND_CHECKPOINT, WorkSizing.DIRTY_SET,
                                 round=next_round)
                return (replace(state,
                                phase=Phase(PhaseKind.PRE_COPY_ROUND, next_round)),
                        [reply, work])
            state, actions = _source_stopcopy_actions(state)
            return state, [reply] + actions

        if event.kind is WorkKind.STOP_CHECKPOINT \
                and phase.kind is PhaseKind.STOP_COPY_CHECKPOINT:
            return state, [StartWork(WorkKind.TRANSFER_STOPCOPY, WorkSizing.GIVEN,
                                     bytes=event.bytes)]

        if event.kind is WorkKind.TRANSFER_STOPCOPY \
                and phase.kind is PhaseKind.STOP_COPY_CHECKPOINT:
            push = Send(BusMessage(
                kind=MessageKind.PUBLISH,
                topic=stopcopy_topic(info.task_id),
                sender=state.agent_id,
                payload_bytes=event.bytes,
                headers={"image_bytes": event.bytes}))
            work = StartWork(WorkKind.NS_CLEAR, WorkSizing.NONE)
            return (replace(state, phase=Phase(PhaseKind.NAMESPACE_TRANSITION)),
                    [push, work])

        if event.kind is WorkKind.NS_CLEAR \
                and phase.kind is PhaseKind.NAMESPACE_TRANSITION:
            return replace(state, phase=DONE), []
        return _unexpected(state, event)

    if isinstance(event, TimerFired):
        if _watchdog_fired(state, event):
            return _fail(state, f"timed out waiting in phase {phase}")
        return state, []
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
        actions: list[Action] = []
        state = _arm(state, actions, **changes)
        return state, actions
    return (replace(state, guard=None,
                    phase=Phase(PhaseKind.NAMESPACE_TRANSITION), **changes),
            [StartWork(WorkKind.NS_RECREATE, WorkSizing.NONE)])


def _advance_destination(state: AgentState, event: Event
                         ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if isinstance(event, MessageEvent):
        msg = event.message
        if (msg.kind is MessageKind.PUBLISH and phase.kind is PhaseKind.IDLE
                and info is None):
            new_info = msg.headers["task"]
            query = Send(BusMessage(
                kind=MessageKind.QUERY,
                topic=nsconfig_topic(new_info.task_id),
                sender=state.agent_id))
            if new_info.strategy is StrategyKind.COLD:
                next_phase = Phase(PhaseKind.STOP_COPY_CHECKPOINT)
            else:
                next_phase = Phase(PhaseKind.PRE_COPY_ROUND, 0)
            actions: list[Action] = [query]
            state = _arm(state, actions, info=new_info, phase=next_phase)
            return state, actions

        if info is None:
            return _unexpected(state, event)

        if msg.kind is MessageKind.REPLY \
                and msg.topic == nsconfig_topic(info.task_id):
            if info.strategy is StrategyKind.COLD:
                if phase.kind is not PhaseKind.STOP_COPY_CHECKPOINT \
                        or state.ns_config is not None:
                    return _unexpected(state, event)
                return _dest_maybe_transition(
                    state, ns_config=str(msg.headers["ns_config"]))
            if phase != Phase(PhaseKind.PRE_COPY_ROUND, 0):
                return _unexpected(state, event)
            if info.iterations >= 1:
                next_phase = Phase(PhaseKind.PRE_COPY_ROUND, 1)
            else:
                next_phase = Phase(PhaseKind.STOP_COPY_CHECKPOINT)
            actions = []
            state = _arm(state, actions, phase=next_phase,
                         ns_config=str(msg.headers["ns_config"]))
            return state, actions

        if msg.kind is MessageKind.PUBLISH \
                and phase.kind is PhaseKind.PRE_COPY_ROUND and phase.round >= 1 \
                and msg.topic == round_ready_topic(info.task_id, phase.round):
            pull = Send(BusMessage(
                kind=MessageKind.QUERY,
                topic=round_image_topic(info.task_id, phase.round),
                sender=state.agent_id))
            actions = [pull]
            state = _arm(state, actions,
                         phase=Phase(PhaseKind.AWAIT_IMAGE_PULL, phase.round))
            return state, actions

        if msg.kind is MessageKind.REPLY \
                and phase.kind is PhaseKind.AWAIT_IMAGE_PULL \
                and msg.topic == round_image_topic(info.task_id, phase.round):
            if phase.round < info.iterations:
                next_phase = Phase(PhaseKind.PRE_COPY_ROUND, phase.round + 1)
            else:
                next_phase = Phase(PhaseKind.STOP_COPY_CHECKPOINT)
            actions = []
            state = _arm(state, actions, phase=next_phase)
            return state, actions

        if msg.kind is MessageKind.PUBLISH \
                and phase.kind is PhaseKind.STOP_COPY_CHECKPOINT \
                and msg.topic == stopcopy_topic(info.task_id):
            if state.sc_bytes is not None:
                return _fail(state, "duplicate stop-and-copy image")
            return _dest_maybe_transition(state, sc_bytes=msg.payload_bytes)
        return _unexpected(state, event)

    if isinstance(event, WorkDone):
        if event.kind is WorkKind.NS_RECREATE \
                and phase.kind is PhaseKind.NAMESPACE_TRANSITION:
            ready = Send(BusMessage(
                kind=MessageKind.PUBLISH,
                topic=ns_ready_topic(info.task_id),
                sender=state.agent_id))
            # The flow update happens client-side; it is complete one
            # propagation delay plus the update cost after this
            # publication, which is when the restore may begin.
            token = f"{state.agent_id}:restore"
            timer = SetTimer(delay_s=info.latency_s + info.flow_update_s,
                             token=token)
            return (replace(state, phase=Phase(PhaseKind.AWAIT_RESTORE),
                            restore_token=token),
                    [ready, timer])

        if event.kind is WorkKind.RESTORE \
                and phase.kind is PhaseKind.AWAIT_RESTORE:
            done = Send(BusMessage(
                kind=MessageKind.PUBLISH,
                topic=done_topic(info.task_id),
                sender=state.agent_id))
            return replace(state, phase=DONE), [done]
        return _unexpected(state, event)

    if isinstance(event, TimerFired):
        if state.restore_token is not None and event.token == state.restore_token \
                and phase.kind is PhaseKind.AWAIT_RESTORE:
            return (replace(state, restore_token=None),
                    [StartWork(WorkKind.RESTORE, WorkSizing.GIVEN,
                               bytes=state.sc_bytes)])
        if _watchdog_fired(state, event):
            return _fail(state, f"timed out waiting in phase {phase}")
        return state, []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Client


def _advance_client(state: AgentState, event: Event
                    ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if isinstance(event, MessageEvent):
        msg = event.message
        if (msg.kind is MessageKind.PUBLISH and phase.kind is PhaseKind.IDLE
                and info is None):
            new_info = msg.headers["task"]
            table = FlowTable(entries={new_info.connection: new_info.source})
            actions: list[Action] = []
            state = _arm(state, actions, info=new_info, flow_table=table)
            return state, actions

        if info is not None and msg.kind is MessageKind.PUBLISH \
                and phase.kind is PhaseKind.IDLE \
                and msg.topic == ns_ready_topic(info.task_id):
            state = replace(state, guard=None,
                            phase=Phase(PhaseKind.NAMESPACE_TRANSITION))
            return state, [StartWork(WorkKind.FLOW_UPDATE, WorkSizing.NONE)]
        return _unexpected(state, event)

    if isinstance(event, WorkDone):
        if event.kind is WorkKind.FLOW_UPDATE \
                and phase.kind is PhaseKind.NAMESPACE_TRANSITION:
            table = update_flow(state.flow_table, info.connection,
                                info.destination)
            return replace(state, flow_table=table, phase=DONE), []
        return _unexpected(state, event)

    if isinstance(event, TimerFired):
        if _watchdog_fired(state, event):
            return _fail(state, f"timed out waiting in phase {phase}")
        return state, []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Orchestrator


def _advance_orchestrator(state: AgentState, event: Event
                          ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if isinstance(event, Kickoff):
        if phase.kind is not PhaseKind.IDLE or info is None:
            return _unexpected(state, event)
        pub = Send(BusMessage(
            kind=MessageKind.PUBLISH,
            topic=task_topic(info.task_id),
            sender=state.agent_id,
            headers={"task": info}))
        actions: list[Action] = [pub]
        state = _arm(state, actions)  # expect the start announcement
        return state, actions

    if isinstance(event, MessageEvent):
        msg = event.message
        if info is None:
            return _unexpected(state, event)
        if msg.topic.endswith("/failed") and msg.kind is MessageKind.PUBLISH:
            reason = str(msg.headers.get("reason", "agent failure"))
            return (replace(state, phase=FAILED,
                            diagnostic=f"{msg.sender}: {reason}"),
                    [Diagnostic(f"failure reported by {msg.sender}: {reason}")])
        if msg.kind is MessageKind.PUBLISH \
                and msg.topic == started_topic(info.task_id) \
                and phase.kind is PhaseKind.IDLE:
            actions = []
            # expect the completion notice
            state = _arm(state, actions, phase=Phase(PhaseKind.AWAIT_RESTORE))
            return state, actions
        if msg.kind is MessageKind.PUBLISH \
                and msg.topic == done_topic(info.task_id) \
                and phase.kind is PhaseKind.AWAIT_RESTORE:
            return replace(state, guard=None, phase=DONE), []
        return _unexpected(state, event)

    if isinstance(event, TimerFired):
        if _watchdog_fired(state, event):
            return _fail(state, f"timed out waiting in phase {phase}")
        return state, []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Shared entry point


_ROLE_DISPATCH = {
    Role.SOURCE: _advance_source,
    Role.DESTINATION: _advance_destination,
    Role.CLIENT: _advance_client,
    Role.ORCHESTRATOR: _advance_orchestrator,
}


def advance(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    """One transition of an agent's state machine.

    Terminal phases absorb every event. Any event that the current phase
    has no transition for fails the agent with a diagnostic.
    """
    if state.phase.kind in TERMINAL_PHASES:
        return state, []
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
