"""The migration protocol, written once as a table, and its interpreter.

Four roles cooperate over the bus: the source host agent, the destination
host agent, the client-side agent (which redirects the service flow), and
the orchestrator (which publishes the task and collects the outcome).

:func:`clean_run` lists the messages a fault-free run sends, in protocol
order: ``7 + 3·I`` of them for I pre-copy rounds after round 0. Each row
names its sender, kind, topic and receiving roles, the work its sender
runs before sending it, and whether it carries an image. In order: the
orchestrator publishes the task; the destination pulls each round r =
0..I (the source checkpoints it and, from round 1, announces it; the
destination queries it; the source transfers it and replies with the image
and the namespace configuration); the source freezes the service,
checkpoints and pushes the stop-and-copy image unasked (a request inside
the downtime window would cost downtime for nothing); the destination
recreates the namespace and publishes ns-ready; the client updates the
flow and publishes flow-updated; the destination restores and publishes
the completion notice. A cold run walks the same table without the
running-state copies: its round-0 reply is empty. The table, which writes
each topic once, is the protocol's only routing fact:
:func:`compile_protocol` builds it once per task into the receiving agent
ids of each message, which the simulator routes by, and the four role
scripts. Headers carry typed objects (the task publication hands every
agent the :class:`TaskInfo`); image sizes ride on ``payload_bytes``.

Every agent runs one interpreter, :func:`advance`, over its role's
projection of the table, its :class:`Script`: await each row it receives,
run each work item and await its end, send each row it sends. Two work
items precede no send of their role: the source's round-0 checkpoint after
its task (none when cold) and its namespace clear after the stop-and-copy
push. An agent takes its task's script when it takes the task, the
script's first wait, and its state keeps it. A message's position in
the script decides its fate:

* at the current wait: taken, and the agent emits up to its next wait;
* ahead of it, or any message before the task: held, and taken when its
  turn comes;
* behind it (a duplicate), or nowhere in the script: the agent fails.

A work item's end is taken only at its own position, and a reply only
with the namespace configuration. The orchestrator, built holding its
task, starts on :class:`Kickoff`. A failing agent records its reason in
``diagnostic`` and sends nothing. ``phase`` prints the current wait
(``await reply source/round/2/image``, ``transfer_round[2]``), or
``idle``, ``done`` or ``failed``. The driver alone keeps watchdogs: a live
agent that hears nothing for one period gets a :class:`TimerFired`, which
fails it, so a lost message ends in a diagnosis rather than a hang.

:func:`advance` is pure: it maps (state, event) to a new state and a list
of actions, each a :class:`BusMessage` to send or a :class:`Work` item to
run, and a driver executes them. A message is received as it was sent; a
work item comes back sized when it ends (the driver sizes every checkpoint
and prices every item). A transition runs once per simulated event, so
that path keeps four rules (CPython 3.11, 2-core host): enum members are
module globals (0.008 µs against 0.13 µs through
``EnumType.__getattr__``); every record is a ``NamedTuple``, never a
frozen dataclass (a checked :class:`BusMessage` takes 0.5 µs against
1.4 µs, a :class:`Work` built by ``tuple.__new__`` 0.2 µs against 0.58 µs,
and a class 0.06–0.13 ms to build at import against 0.74–1.39 ms);
records, a state included, are built positionally and in full, never by
keywords or ``_replace``; events and actions are told apart by exact type.
"""

from __future__ import annotations

import functools
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .bus import BusMessage, MessageKind
from .model import StrategyKind


class Role(str, Enum):
    SOURCE = "source"
    DESTINATION = "destination"
    CLIENT = "client"
    ORCHESTRATOR = "orchestrator"


# The phases that are no wait of a script.
IDLE, DONE, FAILED = "idle", "done", "failed"
TERMINAL_PHASES = frozenset({DONE, FAILED})

# Hot-path names (see the module docstring), in definition order.
_PUBLISH, _QUERY, _REPLY = MessageKind
_SOURCE, _ORCHESTRATOR = Role.SOURCE, Role.ORCHESTRATOR
_COLD = StrategyKind.COLD


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


(_ROUND_CHECKPOINT, _STOP_CHECKPOINT, _TRANSFER_ROUND, _TRANSFER_STOPCOPY,
 _NS_CLEAR, _NS_RECREATE, _FLOW_UPDATE, _RESTORE) = WorkKind
# Work that comes back sized by the image it took; work handed that image;
# work printed with its round.
_CHECKPOINTS = frozenset({_ROUND_CHECKPOINT, _STOP_CHECKPOINT})
_TAKES_IMAGE = frozenset({_TRANSFER_ROUND, _TRANSFER_STOPCOPY, _RESTORE})
_ROUNDED = frozenset({_ROUND_CHECKPOINT, _TRANSFER_ROUND})


class Work(NamedTuple):
    """A timed work item: an agent emits it to start the work, and the
    driver delivers it back, sized, when the work ends."""

    kind: WorkKind
    bytes: float = 0.0
    round: int = 0


_new = tuple.__new__  # a positional record build


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
# The protocol table


class TaskInfo(NamedTuple):
    """Everything an agent learns from the task publication."""

    task_id: str
    source: str
    destination: str
    client: str
    orchestrator: str
    strategy: StrategyKind
    iterations: int
    ns_config: str


class Step(NamedTuple):
    """One message of a fault-free run; a publication reaches every
    receiver, in delivery order, and a query or reply its one receiver.
    Its sender runs ``work``, in order, before sending it. A row that
    carries an ``image`` has the size of the image its sender last took as
    its payload."""

    sender: Role
    kind: MessageKind
    topic: str
    receivers: tuple[Role, ...]
    work: tuple[Work, ...] = ()
    image: bool = False


def clean_run(info: TaskInfo) -> tuple[Step, ...]:
    """The messages a fault-free run of ``info`` sends, in protocol order.

    Across senders the order is the protocol's; a run may interleave
    them differently, by timing, but each sender sends its own in order.
    """
    src, dst, cli, orc = Role
    # Topics follow bus's scheme: mig/{task_id}/{owning role}/{name}.
    mig = f"mig/{info.task_id}/"
    steps = [Step(orc, _PUBLISH, mig + "orchestrator/task", (src, dst, cli))]
    for r in range(info.iterations + 1):
        # Round 0, asked for unannounced, brings the namespace configuration.
        image = mig + (f"source/round/{r}/image" if r else "source/nsconfig")
        if r:
            steps.append(Step(src, _PUBLISH, f"{mig}source/round/{r}/ready",
                              (dst,), (Work(_ROUND_CHECKPOINT, 0.0, r),)))
        # A cold source has no running-state copy: its reply is empty.
        transfer = () if info.strategy is _COLD else (
            Work(_TRANSFER_ROUND, 0.0, r),)
        steps += (Step(dst, _QUERY, image, (src,)),
                  Step(src, _REPLY, image, (dst,), transfer, True))
    steps += (Step(src, _PUBLISH, mig + "source/stopcopy/image", (dst,),
                   (Work(_STOP_CHECKPOINT), Work(_TRANSFER_STOPCOPY)), True),
              Step(dst, _PUBLISH, mig + "destination/ns-ready", (cli,),
                   (Work(_NS_RECREATE),)),
              Step(cli, _PUBLISH, mig + "client/flow-updated", (dst,),
                   (Work(_FLOW_UPDATE),)),
              Step(dst, _PUBLISH, mig + "destination/done", (orc,),
                   (Work(_RESTORE),)))
    return tuple(steps)


# --------------------------------------------------------------------------
# Scripts: the table projected onto one role


class Script(NamedTuple):
    """One role's projection of :func:`clean_run`, compiled. Position p
    waits for a message, whose ``(kind, topic)`` ``index`` maps to p, or
    for the end of the work item ``waits[p]``; ``names[p]`` prints it, and
    taking it sets the image size when ``sized[p]``. ``emits[p + 1]`` is
    what follows it up to the next wait (``emits[0]`` what precedes the
    first), with the image size put into the actions at ``fills[p + 1]``.
    Past the last wait the agent is done: ``names[-1]`` is ``done``."""

    index: dict[tuple[MessageKind, str], int]
    waits: tuple[Optional[Work], ...]
    sized: tuple[bool, ...]
    names: tuple[str, ...]
    emits: tuple[tuple[Action, ...], ...]
    fills: tuple[tuple[int, ...], ...]


def _script(info: TaskInfo, steps: tuple[Step, ...], role: Role,
            agent_id: str) -> Script:
    """``role``'s projection of ``steps``, the rows of ``info``'s run."""
    # A wait prints its topic without the task's "mig/{task_id}/".
    prefix = len(f"mig/{info.task_id}/")
    # Work that comes before no send of its role, by the row it follows:
    # the task's and the stop-and-copy push's.
    after = {0: () if info.strategy is _COLD else (Work(_ROUND_CHECKPOINT),),
             len(steps) - 4: (Work(_NS_CLEAR),)} if role is _SOURCE else {}
    index, waits, sized, names = {}, [], [], []
    emits, fills = [[]], [[]]

    def emit(action: Action, takes_image: bool) -> None:
        if takes_image:
            fills[-1].append(len(emits[-1]))
        emits[-1].append(action)

    def wait(work: Optional[Work], name: str, image: bool) -> None:
        waits.append(work)
        sized.append(image)
        names.append(name)
        emits.append([])
        fills.append([])

    def run(items: tuple[Work, ...]) -> None:
        for work in items:
            kind = work.kind
            emit(work, kind in _TAKES_IMAGE)
            wait(work, f"{kind.value}[{work.round}]" if kind in _ROUNDED
                 else kind.value, kind in _CHECKPOINTS)

    for i, step in enumerate(steps):
        if step.sender is role:
            run(step.work)
            headers = ({"task": info} if i == 0 else
                       {"ns_config": info.ns_config} if step.kind is _REPLY
                       else None)
            emit(BusMessage(step.kind, step.topic, agent_id, 0.0, headers),
                 step.image)
        elif role in step.receivers:
            index[step.kind, step.topic] = len(waits)
            wait(None, f"await {step.kind.value} {step.topic[prefix:]}",
                 step.image)
        run(after.get(i, ()))
    return Script(index, tuple(waits), tuple(sized), (*names, DONE),
                  tuple(map(tuple, emits)), tuple(map(tuple, fills)))


class Protocol(NamedTuple):
    """One task's :func:`clean_run`, compiled: the agent ids receiving
    each ``(kind, topic)``, in delivery order, read-only, and each role's
    :class:`Script`, its sends signed with the role's agent id."""

    routes: Mapping[tuple[MessageKind, str], tuple[str, ...]]
    scripts: Mapping[Role, Script]


@functools.lru_cache(maxsize=4)  # sweep rows reuse a task in turn
def compile_protocol(info: TaskInfo) -> Protocol:
    """The protocol of ``info``, built once and shared, read-only, by the
    simulator's routing and every agent of every run of an equal task."""
    steps = clean_run(info)
    agent_of = dict(zip(Role, (info.source, info.destination, info.client,
                               info.orchestrator)))
    return Protocol(
        MappingProxyType({(step.kind, step.topic): tuple(
            agent_of[r] for r in step.receivers) for step in steps}),
        MappingProxyType({role: _script(info, steps, role, agent_of[role])
                          for role in Role}))


def _emit(script: Script, pos: int, image: float) -> list[Action]:
    """The actions that follow wait ``pos - 1``, the image sized in."""
    actions = list(script.emits[pos])
    for i in script.fills[pos]:
        action = actions[i]
        actions[i] = (_new(Work, (action.kind, image, action.round))
                      if type(action) is Work else
                      BusMessage(*action[:3], image, action.headers))
    return actions


# --------------------------------------------------------------------------
# Agent state and the interpreter


class AgentState(NamedTuple):
    role: Role
    agent_id: str
    phase: str = IDLE
    info: Optional[TaskInfo] = None
    script: Optional[Script] = None
    pos: int = 0
    # Messages that came before their turn, in arrival order.
    held: tuple[BusMessage, ...] = ()
    # The size of the image last taken: checkpointed or received.
    image_bytes: float = 0.0
    diagnostic: Optional[str] = None


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


def _begin(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    """An agent without a script takes its task (the orchestrator its
    kickoff), and holds any other message until then."""
    role, agent_id, _, info, _, _, held, _, _ = state
    if type(event) is BusMessage:
        task = event.headers.get("task")
        script = compile_protocol(task).scripts[role] if isinstance(
            task, TaskInfo) and role is not _ORCHESTRATOR else None
        if script is None or script.index.get((event.kind, event.topic)) != 0:
            return state._replace(held=(*held, event)), []
        info, early = task, (event, *held)  # the task is its first wait
    elif type(event) is Kickoff and role is _ORCHESTRATOR and info is not None:
        script, early = compile_protocol(info).scripts[role], held
    else:
        return _unexpected(state, event)
    return _feed(AgentState(role, agent_id, script.names[0], info, script),
                 _emit(script, 0, 0.0), early)


def _feed(state: AgentState, actions: list[Action],
          messages: tuple[BusMessage, ...]) -> tuple[AgentState, list[Action]]:
    """``state`` after ``actions`` and then each of ``messages`` in turn,
    through :func:`advance`'s rule, so that each is taken, held again, or
    fails the agent, whereupon the transition sends nothing."""
    for message in messages:
        state, more = _advance(state, message)
        actions += more
    return state, [] if state.phase == FAILED else actions


def advance(state: AgentState, event: Event) -> tuple[AgentState, list[Action]]:
    """One transition of an agent's interpreter.

    Terminal phases absorb every event; in any other phase a fired
    watchdog fails the agent, whatever its role. An agent without a
    script takes only its task, and holds every other message. Otherwise
    the event's position in the script decides: at the current wait it is
    taken, ahead of it a message is held, and behind it or nowhere the
    agent fails, its reason in ``diagnostic``.
    """
    role, agent_id, phase, info, script, pos, held, image, _ = state
    if phase in TERMINAL_PHASES:
        return state, []
    if type(event) is TimerFired:
        return _fail(state, f"timed out waiting in phase {phase}")
    if script is None:
        return _begin(state, event)
    if type(event) is BusMessage:
        at = script.index.get((event.kind, event.topic))
        if at is None or at < pos or event.kind is _REPLY \
                and event.headers.get("ns_config") is None:
            return _unexpected(state, event)
        if at > pos:
            index = script.index
            if any(index[m.kind, m.topic] == at for m in held):
                return _unexpected(state, event)
            return _new(AgentState, (role, agent_id, phase, info, script, pos,
                                     (*held, event), image, None)), []
        if script.sized[pos]:
            image = event.payload_bytes
    elif type(event) is Work and (wait := script.waits[pos]) is not None \
            and event.kind is wait.kind and event.round == wait.round:
        if script.sized[pos]:
            image = event.bytes
    else:
        return _unexpected(state, event)
    pos += 1
    state = _new(AgentState, (role, agent_id, script.names[pos], info, script,
                              pos, (), image, None))
    if held:  # each held message is taken if its turn has come
        return _feed(state, _emit(script, pos, image), held)
    return state, _emit(script, pos, image)


# What _feed delivers through: a wrapper on ``advance`` (a tracer, a test
# spy) then sees one call per event.
_advance = advance
