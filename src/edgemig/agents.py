"""Protocol state machines for the agents executing a migration.

Four roles cooperate over the bus: the source host agent, the destination
host agent, the client-side agent (which redirects the service flow), and
the orchestrator (which publishes the task and collects the outcome).

The happy path, for an iterative pre-copy migration with I rounds:

1. the orchestrator publishes the task and waits for the completion
   notice;
2. each pre-copy round r = 0..I is pulled by the destination: the source
   checkpoints (round 0 the whole running state, each later round the
   pages dirtied since the previous one), the destination queries the
   round's image, and the source transfers it and replies with it and the
   namespace configuration. The destination asks for round 0 as soon as it
   holds its task, so that query may arrive before the checkpoint ends and
   is then held; every later round is announced by a ready publication
   once its checkpoint ends;
3. after the last round the source freezes the service, checkpoints, and
   pushes the stop-and-copy image without waiting to be asked (a request
   round trip inside the downtime window would cost downtime for nothing);
4. the destination recreates the network namespace (the source clears its
   own in parallel) and publishes that it is ready, which triggers the
   client's flow update;
5. the client publishes that the flow is updated, upon which the
   destination restores and publishes the completion notice.

The sequence is written down once, as data: :func:`clean_run` lists the
messages a fault-free run sends, ``len(clean_run(info))`` of them (7 plus
3 per round after round 0), each with its sender, kind, topic and
receiving roles. A cold migration follows the same skeleton minus the
running-state copies: its source checkpoints nothing in round 0, answers
the query at once with a 0-byte reply, and then freezes the service as
after a last round, so the destination walks one path whatever the
strategy. That table, the topic record :class:`Topics` every
:class:`TaskInfo` carries, and the simulator's ``_routes``, which resolves
the table to agent ids, are the protocol's only routing facts. Messages stay in process, so headers
carry typed objects: the task publication hands every agent the frozen
:class:`TaskInfo` itself. Image sizes ride on ``payload_bytes``; no
header repeats them.

State machines are pure: :func:`advance` maps (state, event) to a new
state plus a list of actions, each a message to send or a work item to
run, and the simulator or any other driver executes those actions. States,
phases, messages and work items are immutable ``NamedTuple`` classes. A
:class:`BusMessage` is both: an agent emits it as an action and receives
it as an event. So is a :class:`Work` item, which comes back sized when
the work ends. It names only its kind (plus its round, and for a transfer
or the restore the bytes of the image it moves, as the checkpoint reported
them): the simulator sizes every checkpoint and prices every item. The
destination's wait for the client's flow update is a wait on a peer like
any other. An agent takes its task only from the task publication. An
event that is not legal in the current phase moves the agent to Failed and
records its reason in the agent's state, ``diagnostic``; the failing
transition sends nothing, and nothing is dropped silently. Watchdogs are
the only timers, and the driver alone keeps them: any agent neither done
nor failed that hears nothing for one watchdog period fails. The driver
then delivers it a :class:`TimerFired`, which fails any live agent. So a
lost message turns into a diagnosed failure rather than a hang, and no
transition can leave its agent unguarded.

A transition runs once per simulated event, so the code on that path keeps
five rules (timings on CPython 3.11, 2-core host):

* enum members, and the fixed phases and work items entered, are module
  globals bound at import: ``PhaseKind.DONE`` takes ``EnumType.__getattr__``'s
  slow path, 0.13 µs against 0.008 µs for a global (0.039 µs on 3.12);
* a state is copied positionally, by :func:`_with`: 0.5–0.7 µs against
  1.0–1.5 µs for ``_replace(phase=...)`` on :class:`AgentState`;
* every record with fields is a ``NamedTuple``, never a frozen dataclass.
  A :class:`BusMessage` with its two checks takes 0.5 µs against 1.4 µs,
  and a :class:`Work` item or a :class:`Phase` built by ``tuple.__new__``
  0.2 µs against 0.58 µs and 0.31 µs. At import, a class of 1–9 fields
  takes 0.06–0.13 ms to build against 0.74–1.39 ms;
* records are built from positional arguments, never keywords;
* events and actions are told apart by their exact type.
"""

from __future__ import annotations

import functools
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
_PULL_ZERO = Phase(_AWAIT_IMAGE_PULL, 0)
_STOP_COPY_PHASE = Phase(_STOP_COPY)
_NS_TRANSITION_PHASE = Phase(_NS_TRANSITION)
_AWAIT_RESTORE_PHASE = Phase(_AWAIT_RESTORE)
_RESTORING = Phase(_AWAIT_RESTORE, 1)  # prints as await_restore too


class WorkKind(str, Enum):
    """Timed activities an agent asks its host to carry out."""

    ROUND_CHECKPOINT = "round_checkpoint"
    STOP_CHECKPOINT = "stop_checkpoint"
    TRANSFER_ROUND = "transfer_round"
    TRANSFER_STOPCOPY = "transfer_stopcopy"
    NS_CLEAR = "ns_clear"
    NS_RECREATE = "ns_recreate"
    FLOW_UPDATE = "flow_update"
    RESTORE = "restore"


# Hot-path names, in definition order.
(_ROUND_CHECKPOINT, _STOP_CHECKPOINT, _TRANSFER_ROUND, _TRANSFER_STOPCOPY,
 _NS_CLEAR, _NS_RECREATE, _FLOW_UPDATE, _RESTORE) = WorkKind


class Work(NamedTuple):
    """A timed work item: an agent emits it to start the work, and the
    driver delivers it back, sized, when the work ends."""

    kind: WorkKind
    bytes: float = 0.0
    round: int = 0


# Positional record builds, and the size-less, round-0 work items.
_new = tuple.__new__
(_ROUND_CHECKPOINT_WORK, _STOP_CHECKPOINT_WORK, _NS_CLEAR_WORK,
 _NS_RECREATE_WORK, _FLOW_UPDATE_WORK) = (
    Work(kind) for kind in (_ROUND_CHECKPOINT, _STOP_CHECKPOINT, _NS_CLEAR,
                            _NS_RECREATE, _FLOW_UPDATE))


class _Marker:
    """A field-less event or action: equal to every other of its class
    only. (An empty ``NamedTuple`` would equal ``()`` and be falsy.)"""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


Action = Union[BusMessage, Work]


class TimerFired(_Marker):
    """The live agent heard nothing for the driver's watchdog period."""


class Kickoff(_Marker):
    """Hands the orchestrator agent its cue to publish the task."""


Event = Union[BusMessage, Work, TimerFired, Kickoff]


# --------------------------------------------------------------------------
# Task wiring shared by every agent


class Topics(NamedTuple):
    """Every topic of one task, each the topic of a :func:`clean_run`
    row. A round's two topics sit at its number. Round 0's image topic is
    named ``nsconfig``, as the destination holds no namespace configuration
    before that reply; its ready slot is empty (a message cannot carry it),
    since the destination asks for round 0 unannounced."""

    task: str
    round_ready: tuple[str, ...]
    round_image: tuple[str, ...]
    stopcopy: str
    ns_ready: str
    flow_updated: str
    done: str


@functools.lru_cache(maxsize=256)  # a sweep builds one task per row
def _topics(task_id: str, iterations: int) -> Topics:
    """The scheme of ``bus``: ``mig/{task_id}/{owning role}/{name}``."""
    src, dst, cli, orc = (f"mig/{task_id}/{role.value}/" for role in Role)
    rounds = range(1, iterations + 1)
    return Topics(
        orc + "task", ("", *(f"{src}round/{r}/ready" for r in rounds)),
        (src + "nsconfig", *(f"{src}round/{r}/image" for r in rounds)),
        src + "stopcopy/image", dst + "ns-ready", cli + "flow-updated",
        dst + "done")


class _TaskFields(NamedTuple):
    task_id: str
    source: str
    destination: str
    client: str
    orchestrator: str
    strategy: StrategyKind
    iterations: int
    ns_config: str
    topics: Optional[Topics] = None


class TaskInfo(_TaskFields):
    """Everything an agent learns from the task publication. Every build,
    ``_replace``, a copy and unpickling included, derives ``topics``, once
    per task, so a transition builds no topic string."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TaskInfo:
        info = _TaskFields.__new__(cls, *args, **kwargs)
        return _new(cls, (*info[:8], _topics(info.task_id, info.iterations)))

    _make = classmethod(lambda cls, values: cls(*values))


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
    steps = [Step(orc, _PUBLISH, t.task, (src, dst, cli))]
    for r in range(info.iterations + 1):
        if r:  # round 0 is asked for unannounced
            steps.append(Step(src, _PUBLISH, t.round_ready[r], (dst,)))
        steps += (Step(dst, _QUERY, t.round_image[r], (src,)),
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
    # The source's last round asked for.
    pulled: int = -1
    # The source's image of the current round; the destination's
    # stop-and-copy image.
    image_bytes: float = 0.0
    diagnostic: Optional[str] = None


# Field positions, for _with.
_PHASE, _INFO, _PULLED, _IMAGE_BYTES, _DIAGNOSTIC = range(
    2, len(AgentState._fields))


def _with(state: AgentState, index: int, value: object) -> AgentState:
    """``state`` with its field at ``index`` set to ``value``: what
    ``_replace`` returns, built positionally (see the module docstring)."""
    return _new(AgentState, (*state[:index], value, *state[index + 1:]))


def idle_agent(role: Role, agent_id: str) -> AgentState:
    return AgentState(role=role, agent_id=agent_id)


def _fail(state: AgentState, reason: str) -> tuple[AgentState, list[Action]]:
    return state._replace(phase=FAILED, diagnostic=reason), []


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


def _source_image_sent(state: AgentState, done_round: int, nbytes: float
                       ) -> tuple[AgentState, list[Action]]:
    """Reply with pre-copy round ``done_round``'s image of ``nbytes`` and
    the namespace configuration, then checkpoint the next round, or freeze
    the service for the stop-and-copy checkpoint after the last."""
    info = state.info
    reply = BusMessage(_REPLY, info.topics.round_image[done_round],
                       state.agent_id, nbytes, {"ns_config": info.ns_config})
    if done_round >= info.iterations:
        return (_with(state, _PHASE, _STOP_COPY_PHASE),
                [reply, _STOP_CHECKPOINT_WORK])
    next_round = done_round + 1
    return (_with(state, _PHASE, _new(Phase, (_PRE_COPY_ROUND, next_round))),
            [reply, _new(Work, (_ROUND_CHECKPOINT, 0.0, next_round))])


def _source_start(state: AgentState, info: TaskInfo
                  ) -> tuple[AgentState, list[Action]]:
    # Every source starts in round 0. A cold one makes no running-state
    # copy: it waits for the destination's query, and freezes the service
    # only once asked, so it cannot finish before the query comes.
    actions = [] if info.strategy is _COLD else [_ROUND_CHECKPOINT_WORK]
    return _with(_with(state, _INFO, info), _PHASE, _ROUND_ZERO), actions


def _advance_source(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase
    r = phase.round

    if type(event) is BusMessage:
        if event.kind is _QUERY and (phase.kind is _PRE_COPY_ROUND
                                     or phase.kind is _AWAIT_IMAGE_PULL) \
                and event.topic == info.topics.round_image[r]:
            if state.pulled == r:
                return _fail(state, f"duplicate query for round {r}")
            state = _with(state, _PULLED, r)
            if phase.kind is _AWAIT_IMAGE_PULL:
                return state, [_new(Work, (_TRANSFER_ROUND, state.image_bytes,
                                           r))]
            if info.strategy is _COLD:  # no initial image to copy
                return _source_image_sent(state, 0, 0.0)
            return state, []  # held until the round's checkpoint ends
        return _unexpected(state, event)

    if type(event) is Work:
        kind = event.kind
        if kind is _ROUND_CHECKPOINT and phase.kind is _PRE_COPY_ROUND \
                and event.round == r:
            state = _with(_with(state, _IMAGE_BYTES, event.bytes), _PHASE,
                          _new(Phase, (_AWAIT_IMAGE_PULL, r)))
            if state.pulled == r:  # its query came first
                return state, [_new(Work, (_TRANSFER_ROUND, event.bytes, r))]
            if r == 0:  # asked for unannounced; waiting for the query
                return state, []
            # announced; waiting for the pull query
            return state, [BusMessage(_PUBLISH, info.topics.round_ready[r],
                                      state.agent_id)]

        if kind is _TRANSFER_ROUND and phase.kind is _AWAIT_IMAGE_PULL \
                and event.round == r:
            return _source_image_sent(state, r, event.bytes)

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


def _dest_image_received(state: AgentState, done_round: int
                         ) -> tuple[AgentState, list[Action]]:
    """Pre-copy round ``done_round`` is here: wait for the next round's
    announcement, or the stop-and-copy image after the last."""
    if done_round < state.info.iterations:
        next_phase = _new(Phase, (_PRE_COPY_ROUND, done_round + 1))
    else:
        next_phase = _STOP_COPY_PHASE
    return _with(state, _PHASE, next_phase), []


def _dest_start(state: AgentState, info: TaskInfo
                ) -> tuple[AgentState, list[Action]]:
    query = BusMessage(_QUERY, info.topics.round_image[0], state.agent_id)
    return _with(_with(state, _INFO, info), _PHASE, _PULL_ZERO), [query]


def _advance_destination(state: AgentState, event: Event
                         ) -> tuple[AgentState, list[Action]]:
    info = state.info
    phase = state.phase

    if type(event) is BusMessage:
        kind = event.kind
        if kind is _PUBLISH and phase.kind is _PRE_COPY_ROUND \
                and event.topic == info.topics.round_ready[phase.round]:
            pull = BusMessage(_QUERY, info.topics.round_image[phase.round],
                              state.agent_id)
            next_phase = _new(Phase, (_AWAIT_IMAGE_PULL, phase.round))
            return _with(state, _PHASE, next_phase), [pull]

        # A reply without the configuration is unexpected too.
        if kind is _REPLY and phase.kind is _AWAIT_IMAGE_PULL \
                and event.topic == info.topics.round_image[phase.round] \
                and event.headers.get("ns_config") is not None:
            return _dest_image_received(state, phase.round)

        if kind is _PUBLISH and phase.kind is _STOP_COPY \
                and event.topic == info.topics.stopcopy:
            return (_with(_with(state, _IMAGE_BYTES, event.payload_bytes),
                          _PHASE, _NS_TRANSITION_PHASE), [_NS_RECREATE_WORK])

        if kind is _PUBLISH and phase == _AWAIT_RESTORE_PHASE \
                and event.topic == info.topics.flow_updated:
            return (_with(state, _PHASE, _RESTORING),
                    [_new(Work, (_RESTORE, state.image_bytes, 0))])
        return _unexpected(state, event)

    if type(event) is Work:
        kind = event.kind
        if kind is _NS_RECREATE and phase.kind is _NS_TRANSITION:
            ready = BusMessage(_PUBLISH, info.topics.ns_ready, state.agent_id)
            # waiting for the client's flow update
            return _with(state, _PHASE, _AWAIT_RESTORE_PHASE), [ready]

        if kind is _RESTORE and phase == _RESTORING:
            done = BusMessage(_PUBLISH, info.topics.done, state.agent_id)
            return _with(state, _PHASE, DONE), [done]
    return _unexpected(state, event)


# --------------------------------------------------------------------------
# Client


def _client_start(state: AgentState, info: TaskInfo
                  ) -> tuple[AgentState, list[Action]]:
    return _with(state, _INFO, info), []


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
        return _with(state, _PHASE, _AWAIT_RESTORE_PHASE), [pub]

    if type(event) is BusMessage and info is not None \
            and event.kind is _PUBLISH and event.topic == info.topics.done \
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
    phase has no transition for fails the agent, its reason in
    ``diagnostic``.
    """
    if state.phase.kind in TERMINAL_PHASES:
        return state, []
    if type(event) is TimerFired:
        return _fail(state, f"timed out waiting in phase {state.phase}")
    if state.info is None and state.role is not Role.ORCHESTRATOR:
        return _take_task(state, event)
    return _ROLE_DISPATCH[state.role](state, event)

