"""Protocol state machines for the agents executing a migration.

Four roles cooperate over the bus: the source host agent, the destination
host agent, the client-side agent (which redirects the service flow), and
the orchestrator (which publishes the task and collects the outcome).

The happy path, for an iterative pre-copy migration with I rounds:

1. the orchestrator publishes the task and waits for the completion
   notice;
2. the source begins the running-state checkpoint, while the destination
   queries the namespace configuration;
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
7. the client publishes that the flow is updated, upon which the
   destination restores and publishes the completion notice.

The sequence is written down once, as data: :func:`clean_run` lists the
messages a fault-free run sends, ``len(clean_run(info))`` of them (7 plus
3 per round), each with its sender, kind, topic and receiving roles. A cold
migration follows the same skeleton minus the running-state copies (the
namespace reply then carries no image). That table, the topic record
:class:`Topics` every :class:`TaskInfo` carries, and the simulator's
``_routes``, which resolves the table plus the failed topics to agent ids,
are the protocol's only routing facts. Messages stay in process, so
headers carry typed objects: the task publication hands every agent the
frozen :class:`TaskInfo` itself. Image sizes ride on ``payload_bytes``; no
header repeats them.

State machines are pure: :func:`advance` maps (state, event) to a new state
plus a list of actions (messages to send, work items to run, watchdogs to
arm), and the simulator or any other driver executes those actions. States,
phases, messages and work items are immutable ``NamedTuple`` classes. A
:class:`BusMessage` is both: an agent emits it as an action and receives it
as an event. So is a :class:`Work` item, which comes back sized when the
work ends. It names only its kind (plus its round, and for a transfer or
the restore the bytes of the image it moves, as the checkpoint reported
them): the simulator sizes every checkpoint and prices every item. The
destination's wait for the client's flow update is a wait on a peer like
any other. An agent takes its task only from the task publication. An
event that is not legal in the current phase moves the agent to Failed
and emits a diagnostic; nothing is dropped silently. Watchdogs are the
only timers, and the driver keeps them: a :class:`SetTimer` guards the
wait on a peer that its transition entered, until the agent's next
transition. If that wait outlasts the driver's watchdog period, the driver
delivers a :class:`TimerFired`, which fails any live agent, so a lost
message turns into a diagnosed failure rather than a hang.

A transition runs once per simulated event, so the code on that path keeps
five rules (timings on CPython 3.11, 2-core host):

* enum members, and the fixed phases and work items entered, are module
  globals bound at import: ``PhaseKind.DONE`` takes ``EnumType.__getattr__``'s
  slow path, 0.13 µs against 0.008 µs for a global (0.039 µs on 3.12);
* a state is copied positionally, by :func:`_with`: 0.5–0.7 µs against
  1.0–1.5 µs for ``_replace(phase=...)`` on :class:`AgentState`;
* no record is a frozen dataclass, whose ``__init__`` sets each field by
  ``object.__setattr__``: a :class:`BusMessage` with its two checks takes
  0.5 µs against 1.4 µs; a :class:`Work` item or a :class:`Phase` built by
  ``tuple.__new__``, 0.2 µs against 0.58 µs and 0.31 µs;
* records are built from positional arguments, never keywords;
* events and actions are told apart by their exact type.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union

from .bus import BusMessage, MessageKind
from .model import StrategyKind


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
        kind = self.kind  # _value_: the plain attribute behind .value
        if kind is _PRE_COPY_ROUND or kind is _AWAIT_IMAGE_PULL:
            return f"{kind._value_}[{self.round}]"
        return kind._value_


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
    RESTORE = "restore"


(_PRE_CHECKPOINT, _ROUND_CHECKPOINT, _STOP_CHECKPOINT, _TRANSFER_INITIAL,
 _TRANSFER_ROUND, _TRANSFER_STOPCOPY, _NS_CLEAR, _NS_RECREATE, _FLOW_UPDATE,
 _RESTORE) = WorkKind  # hot-path names, in definition order


class Work(NamedTuple):
    """A timed work item: an agent emits it to start the work, and the
    driver delivers it back, sized, when the work ends."""

    kind: WorkKind
    bytes: float = 0.0
    round: int = 0


# Positional record builds, and the size-less, round-less work items.
_new = tuple.__new__
(_PRE_CHECKPOINT_WORK, _STOP_CHECKPOINT_WORK, _NS_CLEAR_WORK,
 _NS_RECREATE_WORK, _FLOW_UPDATE_WORK) = (
    Work(kind) for kind in (_PRE_CHECKPOINT, _STOP_CHECKPOINT, _NS_CLEAR,
                            _NS_RECREATE, _FLOW_UPDATE))


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


class Topics(NamedTuple):
    """Every topic of one task. A round's two topics sit at its number;
    slot 0 is empty (a message cannot carry it), since round 0, the initial
    image, rides on the namespace reply. ``failed`` is in ``Role`` order."""

    task: str
    nsconfig: str
    round_ready: tuple[str, ...]
    round_image: tuple[str, ...]
    stopcopy: str
    ns_ready: str
    flow_updated: str
    done: str
    failed: tuple[str, ...]


@functools.lru_cache(maxsize=256)  # a sweep builds one task per row
def _topics(task_id: str, iterations: int) -> Topics:
    """The scheme of ``bus``: ``mig/{task_id}/{owning role}/{name}``."""
    roots = [f"mig/{task_id}/{role.value}/" for role in Role]
    src, dst, cli, orc = roots
    rounds = range(1, iterations + 1)
    return Topics(
        orc + "task", src + "nsconfig",
        ("", *(f"{src}round/{r}/ready" for r in rounds)),
        ("", *(f"{src}round/{r}/image" for r in rounds)),
        src + "stopcopy/image", dst + "ns-ready", cli + "flow-updated",
        dst + "done", tuple(root + "failed" for root in roots))


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
    # Derived once per task, so a transition builds no topic string.
    topics: Topics = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "topics",
                           _topics(self.task_id, self.iterations))


class Step(NamedTuple):
    """One message of a fault-free run; a publication reaches every
    receiver, in delivery order, and a query or reply its one receiver."""

    sender: Role
    kind: MessageKind
    topic: str
    receivers: tuple[Role, ...]


def clean_run(info: TaskInfo) -> tuple[Step, ...]:
    """The messages a fault-free run of ``info`` sends, in protocol order.

    Across senders the order is the protocol's; a run may interleave
    them differently, by timing, but each sender sends its own in order.
    """
    t = info.topics
    src, dst, cli, orc = Role
    steps = [Step(orc, _PUBLISH, t.task, (src, dst, cli)),
             Step(dst, _QUERY, t.nsconfig, (src,)),
             Step(src, _REPLY, t.nsconfig, (dst,))]
    for r in range(1, info.iterations + 1):
        steps += (Step(src, _PUBLISH, t.round_ready[r], (dst,)),
                  Step(dst, _QUERY, t.round_image[r], (src,)),
                  Step(src, _REPLY, t.round_image[r], (dst,)))
    steps += (Step(src, _PUBLISH, t.stopcopy, (dst,)),
              Step(dst, _PUBLISH, t.ns_ready, (cli,)),
              Step(cli, _PUBLISH, t.flow_updated, (dst,)),
              Step(dst, _PUBLISH, t.done, (orc,)))
    return tuple(steps)


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


# Field positions, for _with.
(_PHASE, _INFO, _NS_QUERY_SEEN, _PRECKPT_BYTES, _ROUND_BYTES, _NS_CONFIG,
 _SC_BYTES, _DIAGNOSTIC) = range(2, len(AgentState._fields))


def _with(state: AgentState, index: int, value: object) -> AgentState:
    """``state`` with its field at ``index`` set to ``value``: what
    ``_replace`` returns, built positionally (see the module docstring)."""
    return _new(AgentState, (*state[:index], value, *state[index + 1:]))


def idle_agent(role: Role, agent_id: str) -> AgentState:
    return AgentState(role=role, agent_id=agent_id)


def _fail(state: AgentState, reason: str) -> tuple[AgentState, list[Action]]:
    actions: list[Action] = [Diagnostic(reason)]
    if (info := state.info) is not None:
        failed = info.topics.failed[tuple(Role).index(state.role)]
        actions.append(BusMessage(_PUBLISH, failed, state.agent_id, 0.0,
                                  {"reason": reason}))
    return state._replace(phase=FAILED, diagnostic=reason), actions


def _unexpected(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    if isinstance(event, BusMessage):
        what = f"{event.kind.value} on {event.topic}"
    elif isinstance(event, Work):
        what = f"end of {event.kind.value}"
    else:
        what = type(event).__name__
    return _fail(state, f"unexpected {what} in phase {state.phase}")


# --------------------------------------------------------------------------
# Source


def _source_image_sent(state: AgentState, reply: BusMessage, done_round: int
                       ) -> tuple[AgentState, list[Action]]:
    """Pre-copy round ``done_round`` is shipped (0: the initial image):
    checkpoint the next round, or freeze the service for the stop-and-copy
    checkpoint after the last."""
    if done_round >= state.info.iterations:
        return (_with(state, _PHASE, _STOP_COPY_PHASE),
                [reply, _STOP_CHECKPOINT_WORK])
    next_round = done_round + 1
    return (_with(state, _PHASE, _new(Phase, (_PRE_COPY_ROUND, next_round))),
            [reply, _new(Work, (_ROUND_CHECKPOINT, 0.0, next_round))])


def _source_start(state: AgentState, info: TaskInfo
                  ) -> tuple[AgentState, list[Action]]:
    if info.strategy is _COLD:
        phase, work = _STOP_COPY_PHASE, _STOP_CHECKPOINT_WORK
    else:
        phase, work = _ROUND_ZERO, _PRE_CHECKPOINT_WORK
    return _with(_with(state, _INFO, info), _PHASE, phase), [work]


def _advance_source(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if type(event) is BusMessage:
        if event.kind is _QUERY and event.topic == info.topics.nsconfig:
            if state.ns_query_seen:
                return _fail(state, "duplicate namespace-configuration query")
            state = _with(state, _NS_QUERY_SEEN, True)
            if info.strategy is _COLD:
                # Nothing rides along; answer straight away.
                if phase.kind is _STOP_COPY or phase.kind is _NS_TRANSITION:
                    return state, [BusMessage(
                        _REPLY, event.topic, state.agent_id, 0.0,
                        {"ns_config": info.ns_config})]
                return _unexpected(state, event)
            if phase != _ROUND_ZERO:
                return _unexpected(state, event)
            if state.preckpt_bytes is not None:
                # Initial image already checkpointed; ship it.
                return state, [_new(Work, (_TRANSFER_INITIAL,
                                           state.preckpt_bytes, 0))]
            return state, []

        if event.kind is _QUERY and phase.kind is _AWAIT_IMAGE_PULL \
                and event.topic == info.topics.round_image[phase.round]:
            return state, [_new(Work, (_TRANSFER_ROUND, state.round_bytes,
                                       phase.round))]
        return _unexpected(state, event)

    if type(event) is Work:
        kind = event.kind
        if kind is _PRE_CHECKPOINT and phase == _ROUND_ZERO:
            if state.ns_query_seen:
                return (_with(state, _PRECKPT_BYTES, event.bytes),
                        [_new(Work, (_TRANSFER_INITIAL, event.bytes, 0))])
            # waiting for the destination query
            return _with(state, _PRECKPT_BYTES, event.bytes), [_SET_TIMER]

        if kind is _TRANSFER_INITIAL and phase == _ROUND_ZERO:
            reply = BusMessage(_REPLY, info.topics.nsconfig, state.agent_id,
                               event.bytes, {"ns_config": info.ns_config})
            return _source_image_sent(state, reply, 0)

        if kind is _ROUND_CHECKPOINT and phase.kind is _PRE_COPY_ROUND \
                and phase.round == event.round:
            ready = BusMessage(_PUBLISH, info.topics.round_ready[event.round],
                               state.agent_id)
            state = _with(state, _ROUND_BYTES, event.bytes)
            next_phase = _new(Phase, (_AWAIT_IMAGE_PULL, event.round))
            # waiting for the pull query
            return _with(state, _PHASE, next_phase), [ready, _SET_TIMER]

        if kind is _TRANSFER_ROUND and phase.kind is _AWAIT_IMAGE_PULL \
                and phase.round == event.round:
            reply = BusMessage(_REPLY, info.topics.round_image[event.round],
                               state.agent_id, event.bytes)
            return _source_image_sent(state, reply, event.round)

        if kind is _STOP_CHECKPOINT and phase.kind is _STOP_COPY:
            return state, [_new(Work, (_TRANSFER_STOPCOPY, event.bytes, 0))]

        if kind is _TRANSFER_STOPCOPY and phase.kind is _STOP_COPY:
            push = BusMessage(_PUBLISH, info.topics.stopcopy, state.agent_id,
                              event.bytes)
            return (_with(state, _PHASE, _NS_TRANSITION_PHASE),
                    [push, _NS_CLEAR_WORK])

        if kind is _NS_CLEAR and phase.kind is _NS_TRANSITION:
            return _with(state, _PHASE, DONE), []
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Destination


def _dest_maybe_transition(state: AgentState
                           ) -> tuple[AgentState, list[Action]]:
    """Enter the namespace transition once image and config are both here
    (``state`` holds what just arrived); until then, guard the wait."""
    if state.sc_bytes is None or state.ns_config is None:
        return state, [_SET_TIMER]
    return _with(state, _PHASE, _NS_TRANSITION_PHASE), [_NS_RECREATE_WORK]


def _dest_image_received(state: AgentState, done_round: int
                         ) -> tuple[AgentState, list[Action]]:
    """Pre-copy round ``done_round`` is here (0: the initial image): wait
    for the next round's announcement, or the stop-and-copy image after the
    last."""
    if done_round < state.info.iterations:
        next_phase = _new(Phase, (_PRE_COPY_ROUND, done_round + 1))
    else:
        next_phase = _STOP_COPY_PHASE
    return _with(state, _PHASE, next_phase), [_SET_TIMER]


def _dest_start(state: AgentState, info: TaskInfo
                ) -> tuple[AgentState, list[Action]]:
    query = BusMessage(_QUERY, info.topics.nsconfig, state.agent_id)
    next_phase = _STOP_COPY_PHASE if info.strategy is _COLD else _ROUND_ZERO
    return (_with(_with(state, _INFO, info), _PHASE, next_phase),
            [query, _SET_TIMER])


def _advance_destination(state: AgentState, event: Event
                         ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if type(event) is BusMessage:
        kind = event.kind
        if kind is _REPLY and event.topic == info.topics.nsconfig:
            # A reply without the configuration is unexpected too.
            ns_config = event.headers.get("ns_config")
            if ns_config is None:
                return _unexpected(state, event)
            if info.strategy is _COLD:
                if phase.kind is not _STOP_COPY \
                        or state.ns_config is not None:
                    return _unexpected(state, event)
                return _dest_maybe_transition(
                    _with(state, _NS_CONFIG, str(ns_config)))
            if phase != _ROUND_ZERO:
                return _unexpected(state, event)
            return _dest_image_received(
                _with(state, _NS_CONFIG, str(ns_config)), 0)

        if kind is _PUBLISH and phase.kind is _PRE_COPY_ROUND \
                and event.topic == info.topics.round_ready[phase.round]:
            pull = BusMessage(_QUERY, info.topics.round_image[phase.round],
                              state.agent_id)
            next_phase = _new(Phase, (_AWAIT_IMAGE_PULL, phase.round))
            return _with(state, _PHASE, next_phase), [pull, _SET_TIMER]

        if kind is _REPLY and phase.kind is _AWAIT_IMAGE_PULL \
                and event.topic == info.topics.round_image[phase.round]:
            return _dest_image_received(state, phase.round)

        if kind is _PUBLISH and phase.kind is _STOP_COPY \
                and event.topic == info.topics.stopcopy:
            if state.sc_bytes is not None:
                return _fail(state, "duplicate stop-and-copy image")
            return _dest_maybe_transition(
                _with(state, _SC_BYTES, event.payload_bytes))

        if kind is _PUBLISH and phase.kind is _AWAIT_RESTORE \
                and event.topic == info.topics.flow_updated:
            return state, [_new(Work, (_RESTORE, state.sc_bytes, 0))]
        return _unexpected(state, event)

    if type(event) is Work:
        kind = event.kind
        if kind is _NS_RECREATE and phase.kind is _NS_TRANSITION:
            ready = BusMessage(_PUBLISH, info.topics.ns_ready, state.agent_id)
            # waiting for the client's flow update
            return (_with(state, _PHASE, _AWAIT_RESTORE_PHASE),
                    [ready, _SET_TIMER])

        if kind is _RESTORE and phase.kind is _AWAIT_RESTORE:
            done = BusMessage(_PUBLISH, info.topics.done, state.agent_id)
            return _with(state, _PHASE, DONE), [done]
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Client


def _client_start(state: AgentState, info: TaskInfo
                  ) -> tuple[AgentState, list[Action]]:
    return _with(state, _INFO, info), [_SET_TIMER]


def _advance_client(state: AgentState, event: Event
                    ) -> tuple[AgentState, list[Action]]:
    phase = state.phase
    if type(event) is BusMessage:
        if event.kind is _PUBLISH and phase.kind is _IDLE_KIND \
                and event.topic == state.info.topics.ns_ready:
            return (_with(state, _PHASE, _NS_TRANSITION_PHASE),
                    [_FLOW_UPDATE_WORK])

    if type(event) is Work:
        if event.kind is _FLOW_UPDATE and phase.kind is _NS_TRANSITION:
            updated = BusMessage(_PUBLISH, state.info.topics.flow_updated,
                                 state.agent_id)
            return _with(state, _PHASE, DONE), [updated]
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
        pub = BusMessage(_PUBLISH, info.topics.task, state.agent_id,
                         0.0, {"task": info})
        # expect the completion notice
        return _with(state, _PHASE, _AWAIT_RESTORE_PHASE), [pub, _SET_TIMER]

    if type(event) is BusMessage and info is not None:
        if event.kind is _PUBLISH and event.topic in info.topics.failed:
            reason = str(event.headers.get("reason", "agent failure"))
            return (state._replace(phase=FAILED,
                                   diagnostic=f"{event.sender}: {reason}"),
                    [Diagnostic(f"failure reported by {event.sender}: {reason}")])
        if event.kind is _PUBLISH \
                and event.topic == info.topics.done \
                and phase.kind is _AWAIT_RESTORE:
            return _with(state, _PHASE, DONE), []
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
            or event.topic != task.topics.task:
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

