"""Pure transition tests for the protocol table and its interpreter.

These drive :func:`edgemig.agents.advance` directly, event by event, with
no simulator in the loop, checking each role's projection of
:func:`edgemig.agents.clean_run`, phases, emitted actions, held messages,
failure behaviour and the client's flow update.
"""

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemig import agents as ag
from edgemig import load_scenario, plan_from_scenario, run_scenario
from edgemig.bus import BusMessage, MessageKind
from edgemig.errors import DomainError
from edgemig.model import StrategyKind

M = 10_485_760
DEMO = Path(__file__).resolve().parent.parent / "demos" / "scenario.json"


def task_info(strategy=StrategyKind.ITERATIVE_PRE_COPY, iterations=2):
    return ag.TaskInfo(
        task_id="t1", source="src", destination="dst",
        client="cli", orchestrator="orc", strategy=strategy,
        iterations=iterations, ns_config="netns:t1")


# The topics of task t1, spelled out; a round's image topic at its number.
TASK_TOPIC = "mig/t1/orchestrator/task"
READY_TOPIC = {r: f"mig/t1/source/round/{r}/ready" for r in (1, 2)}
IMAGE_TOPIC = ("mig/t1/source/nsconfig", "mig/t1/source/round/1/image",
               "mig/t1/source/round/2/image")
STOPCOPY_TOPIC = "mig/t1/source/stopcopy/image"
NS_READY_TOPIC = "mig/t1/destination/ns-ready"
FLOW_UPDATED_TOPIC = "mig/t1/client/flow-updated"
DONE_TOPIC = "mig/t1/destination/done"


def idle(role, info):
    """The agent of ``role`` in task ``info``, before its first take."""
    return ag.AgentState(role, ag.compile_protocol(info).scripts[role])


def task_message(info):
    return BusMessage(kind=MessageKind.PUBLISH, topic=TASK_TOPIC, sender="orc")


def pull_query(info, round_index=0):
    return BusMessage(
        kind=MessageKind.QUERY, topic=IMAGE_TOPIC[round_index],
        sender="dst")


def sends(actions):
    return [a for a in actions if isinstance(a, BusMessage)]


def works(actions):
    return [a for a in actions if isinstance(a, ag.Work)]


# ---------------------------------------------------------------------------
# Source


def test_source_task_receipt_checkpoints_without_a_message():
    info = task_info()
    state, actions = ag.advance(idle(ag.Role.SOURCE, info),
                                task_message(info))
    assert state.phase == "round_checkpoint[0]"
    assert actions == [ag.Work(ag.WorkKind.ROUND_CHECKPOINT, 0.0, 0)]


def test_source_cold_freezes_once_asked():
    info = task_info(StrategyKind.COLD, 0)
    state, actions = ag.advance(idle(ag.Role.SOURCE, info),
                                task_message(info))
    # No running-state copy to make: it only waits for the query.
    assert state.phase == "await query source/nsconfig"
    assert actions == []
    state, actions = ag.advance(state, pull_query(info))
    assert state.phase == "stop_checkpoint"
    assert actions == [BusMessage(MessageKind.REPLY, IMAGE_TOPIC[0],
                                  "src", 0.0, {"ns_config": "netns:t1"}),
                       ag.Work(ag.WorkKind.STOP_CHECKPOINT)]


CHECKPOINT_ZERO = ag.Work(ag.WorkKind.ROUND_CHECKPOINT, float(M), 0)


def test_source_initial_image_waits_for_query_and_checkpoint():
    """Whichever of {query, checkpoint end} lands second starts the copy."""
    info = task_info()
    fresh = idle(ag.Role.SOURCE, info)

    # Order A: query first, held until the checkpoint completes.
    state, _ = ag.advance(fresh, task_message(info))
    state, actions = ag.advance(state, pull_query(info))
    assert actions == []
    assert state.held == (pull_query(info),)
    assert state.phase == "round_checkpoint[0]"
    state, actions = ag.advance(state, CHECKPOINT_ZERO)
    assert state.phase == "transfer_round[0]" and state.held == ()
    assert actions == [ag.Work(ag.WorkKind.TRANSFER_ROUND, float(M), 0)]

    # Order B: checkpoint completes first, query afterwards.
    state, _ = ag.advance(fresh, task_message(info))
    state, actions = ag.advance(state, CHECKPOINT_ZERO)
    assert state.phase == "await query source/nsconfig"
    # No announcement for round 0: a passive wait for the query.
    assert actions == []
    state, actions = ag.advance(state, pull_query(info))
    assert actions == [ag.Work(ag.WorkKind.TRANSFER_ROUND, float(M), 0)]


def test_source_full_iterative_walk():
    info = task_info(iterations=2)
    state, _ = ag.advance(idle(ag.Role.SOURCE, info),
                          task_message(info))
    state, _ = ag.advance(state, pull_query(info))
    state, actions = ag.advance(state, CHECKPOINT_ZERO)
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, float(M), 0))
    # The round-0 reply carries the initial image; round 1 begins.
    [reply] = sends(actions)
    assert reply.topic == IMAGE_TOPIC[0]
    assert reply.kind is MessageKind.REPLY
    assert reply.payload_bytes == M
    assert reply.headers["ns_config"] == "netns:t1"
    assert state.phase == "round_checkpoint[1]"
    [work] = works(actions)
    assert work.kind is ag.WorkKind.ROUND_CHECKPOINT

    # Round 1: checkpoint done -> ready published, wait for the pull.
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, bytes=8192.0, round=1))
    [ready] = sends(actions)
    assert ready.topic == READY_TOPIC[1]
    assert state.phase == "await query source/round/1/image"
    pull = BusMessage(
        kind=MessageKind.QUERY, topic=IMAGE_TOPIC[1],
        sender="dst")
    state, actions = ag.advance(state, pull)
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_ROUND and work.bytes == 8192.0
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, bytes=8192.0, round=1))
    [reply] = sends(actions)
    assert reply.topic == IMAGE_TOPIC[1]
    assert reply.headers["ns_config"] == "netns:t1"
    assert state.phase == "round_checkpoint[2]"

    # Round 2 ends the pre-copy: next comes the stop-and-copy checkpoint.
    state, _ = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, bytes=4096.0, round=2))
    pull2 = BusMessage(
        kind=MessageKind.QUERY, topic=IMAGE_TOPIC[2],
        sender="dst")
    state, _ = ag.advance(state, pull2)
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, bytes=4096.0, round=2))
    assert state.phase == "stop_checkpoint"
    [work] = works(actions)
    assert work.kind is ag.WorkKind.STOP_CHECKPOINT

    # Stop-and-copy: checkpoint, transfer, push, namespace clear, done.
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.STOP_CHECKPOINT, bytes=20480.0))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_STOPCOPY and work.bytes == 20480.0
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_STOPCOPY, bytes=20480.0))
    [push] = sends(actions)
    assert push.topic == STOPCOPY_TOPIC
    assert push.payload_bytes == 20480.0
    assert state.phase == "ns_clear"
    state, actions = ag.advance(state,
                                ag.Work(ag.WorkKind.NS_CLEAR, bytes=0.0))
    assert state.phase == "done"
    assert actions == []


def _source_in_round(info, round_index):
    """A source checkpointing pre-copy round ``round_index``."""
    state, _ = ag.advance(idle(ag.Role.SOURCE, info),
                          task_message(info))
    for r in range(round_index):
        for event in (ag.Work(ag.WorkKind.ROUND_CHECKPOINT, 4096.0, r),
                      pull_query(info, r),
                      ag.Work(ag.WorkKind.TRANSFER_ROUND, 4096.0, r)):
            state, _ = ag.advance(state, event)
    assert state.phase == f"round_checkpoint[{round_index}]"
    return state


@pytest.mark.parametrize("round_index,phase", [
    (0, "round_checkpoint[0]"), (2, "transfer_round[2]")])
def test_source_rejects_a_duplicate_query(round_index, phase):
    # Round 0's query is held while its checkpoint runs, so a repeat is
    # ahead of the source a second time; round 2's, once announced, starts
    # the transfer, so a repeat is behind it. Either fails the source and
    # starts nothing.
    info = task_info(iterations=2)
    state = _source_in_round(info, round_index)
    if round_index:
        state, _ = ag.advance(state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT,
                                             4096.0, round_index))
    state, actions = ag.advance(state, pull_query(info, round_index))
    assert works(actions) == ([ag.Work(ag.WorkKind.TRANSFER_ROUND, 4096.0, 2)]
                              if round_index else [])
    state, actions = ag.advance(state, pull_query(info, round_index))
    assert state.phase == "failed"
    assert state.diagnostic == (
        f"unexpected query on {IMAGE_TOPIC[round_index]} in phase "
        f"{phase}")
    assert actions == []  # a failing agent sends nothing


def test_source_unexpected_event_fails_with_diagnostic():
    info = task_info()
    state, _ = ag.advance(idle(ag.Role.SOURCE, info),
                          task_message(info))
    bogus = ag.Work(ag.WorkKind.RESTORE, bytes=1.0)
    state, actions = ag.advance(state, bogus)
    assert state.phase == "failed"
    assert state.diagnostic == (
        "unexpected end of restore in phase round_checkpoint[0]")
    assert actions == []


@pytest.mark.parametrize("round_index", [0, 2])
def test_source_fails_on_another_rounds_checkpoint_end(round_index):
    # Only the current round's checkpoint may end: another round's, before
    # or after it, fails the source with a diagnostic.
    info = task_info(iterations=2)
    state = _source_in_round(info, 1)
    phase = state.phase
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, 4096.0, round_index))
    assert phase == "round_checkpoint[1]"
    assert state.phase == "failed"
    assert state.diagnostic == (
        f"unexpected end of round_checkpoint in phase {phase}")
    assert actions == []


def _armed_source(info):
    state, _ = ag.advance(idle(ag.Role.SOURCE, info),
                          task_message(info))
    # The checkpoint ends before the destination's query: a passive wait.
    return ag.advance(state, CHECKPOINT_ZERO)


def _armed_destination(info):
    return ag.advance(idle(ag.Role.DESTINATION, info),
                      task_message(info))


def _armed_client(info):
    return ag.advance(idle(ag.Role.CLIENT, info),
                      task_message(info))


def _armed_orchestrator(info):
    state = idle(ag.Role.ORCHESTRATOR, info)
    return ag.advance(state, ag.Kickoff())


ARM_WATCHDOG = {
    ag.Role.SOURCE: _armed_source,
    ag.Role.DESTINATION: _armed_destination,
    ag.Role.CLIENT: _armed_client,
    ag.Role.ORCHESTRATOR: _armed_orchestrator,
}


@pytest.mark.parametrize("role", list(ag.Role), ids=lambda r: r.value)
def test_watchdog_and_stale_timers(role):
    info = task_info()
    state, _ = ARM_WATCHDOG[role](info)
    # The fired watchdog diagnoses the stall.
    failed, failed_actions = ag.advance(state, ag.TimerFired())
    assert failed.phase == "failed"
    assert failed.diagnostic == f"timed out waiting in phase {state.phase}"
    assert failed_actions == []
    # Once the agent is failed, a late watchdog changes nothing. (Which
    # timers are stale is the driver's business: see the simulator tests.)
    assert ag.advance(failed, ag.TimerFired()) == (failed, [])


# The task is wait 0 of every script but the orchestrator's (its kickoff),
# and a message meets the same rule there as at every other wait. What
# each role makes of ns-ready before its task (ahead in the client's
# script, so held; in no step of the others', so failing on arrival), and
# of a second task after the first (behind every script).
BEFORE_TASK = {
    (ag.Role.SOURCE, NS_READY_TOPIC): "idle",
    (ag.Role.DESTINATION, NS_READY_TOPIC): "idle",
    (ag.Role.CLIENT, NS_READY_TOPIC): None,
    (ag.Role.SOURCE, TASK_TOPIC): "round_checkpoint[0]",
    (ag.Role.DESTINATION, TASK_TOPIC): "await reply source/nsconfig",
    (ag.Role.CLIENT, TASK_TOPIC): "await publish destination/ns-ready",
}


@pytest.mark.parametrize("role,topic", list(BEFORE_TASK), ids=lambda x: (
    x.value if isinstance(x, ag.Role) else x.rsplit("/", 1)[-1]))
def test_the_task_is_the_first_wait_of_every_script(role, topic):
    info = task_info()
    state = idle(role, info)
    if topic == TASK_TOPIC:
        state, _ = ag.advance(state, task_message(info))
        message = task_message(info)
    else:
        message = BusMessage(MessageKind.PUBLISH, NS_READY_TOPIC, "dst")
    state, actions = ag.advance(state, message)
    phase = BEFORE_TASK[role, topic]
    if phase is None:  # the client's ns-ready, taken in its turn
        assert state == ag.AgentState(role, state.script, held=(message,))
        assert actions == []
        state, actions = ag.advance(state, task_message(info))
        assert state.phase == "flow_update" and state.held == ()
        assert actions == [ag.Work(ag.WorkKind.FLOW_UPDATE)]
    else:
        assert state.phase == "failed"
        assert state.diagnostic == (
            f"unexpected publish on {topic} in phase {phase}")
        assert actions == []


def test_kickoff_starts_only_the_idle_orchestrator():
    info = task_info()
    for role in (ag.Role.SOURCE, ag.Role.DESTINATION, ag.Role.CLIENT):
        state, actions = ag.advance(idle(role, info), ag.Kickoff())
        assert (state.phase, state.diagnostic, actions) == (
            "failed", "unexpected Kickoff in phase idle", [])
    state, _ = _armed_orchestrator(info)
    state, actions = ag.advance(state, ag.Kickoff())
    assert (state.phase, state.diagnostic, actions) == (
        "failed",
        "unexpected Kickoff in phase await publish destination/done", [])


def test_terminal_phases_absorb_everything():
    info = task_info()
    state, _ = ag.advance(idle(ag.Role.SOURCE, info),
                          task_message(info))
    failed, _ = ag.advance(state, ag.Work(ag.WorkKind.RESTORE))
    assert failed.phase == "failed"
    after, actions = ag.advance(failed, pull_query(info))
    assert after == failed and actions == []


# ---------------------------------------------------------------------------
# Destination


def image_reply(info, payload=0.0, round_index=0):
    return BusMessage(
        kind=MessageKind.REPLY, topic=IMAGE_TOPIC[round_index],
        sender="src", payload_bytes=payload,
        headers={"ns_config": "netns:t1"})


def sc_push(info, payload=20480.0):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=STOPCOPY_TOPIC,
        sender="src", payload_bytes=payload)


def test_destination_pulls_round_zero_on_task():
    info = task_info()
    state, actions = ag.advance(idle(ag.Role.DESTINATION, info),
                                task_message(info))
    [query] = sends(actions)
    assert query.kind is MessageKind.QUERY
    assert query.topic == IMAGE_TOPIC[0] == "mig/t1/source/nsconfig"
    assert state.phase == "await reply source/nsconfig"
    assert actions == [query]


def flow_updated(info):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=FLOW_UPDATED_TOPIC,
        sender="cli")


def test_destination_full_walk_restores_on_flow_updated():
    info = task_info(iterations=1)
    state, _ = ag.advance(idle(ag.Role.DESTINATION, info),
                          task_message(info))
    state, _ = ag.advance(state, image_reply(info, payload=float(M)))
    assert state.phase == "await publish source/round/1/ready"
    ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=READY_TOPIC[1],
        sender="src")
    state, actions = ag.advance(state, ready)
    [pull] = sends(actions)
    assert pull.kind is MessageKind.QUERY
    assert pull.topic == IMAGE_TOPIC[1]
    assert state.phase == "await reply source/round/1/image"
    state, actions = ag.advance(state, image_reply(info, 8192.0, 1))
    assert state.phase == "await publish source/stopcopy/image"
    assert actions == []

    state, actions = ag.advance(state, sc_push(info))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.NS_RECREATE
    assert state.phase == "ns_recreate"

    state, actions = ag.advance(state,
                                ag.Work(ag.WorkKind.NS_RECREATE))
    # Restore waits for the client's word that the flow is updated.
    assert actions == [BusMessage(MessageKind.PUBLISH, NS_READY_TOPIC, "dst")]
    assert state.phase == "await publish client/flow-updated"

    state, actions = ag.advance(state, flow_updated(info))
    assert actions == [ag.Work(ag.WorkKind.RESTORE, 20480.0)]
    assert state.phase == "restore"
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.RESTORE, bytes=20480.0))
    [done] = sends(actions)
    assert done.topic == DONE_TOPIC
    assert state.phase == "done"


def test_destination_fails_on_a_second_flow_updated_while_restoring():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(idle(ag.Role.DESTINATION, info),
                          task_message(info))
    state, _ = ag.advance(state, image_reply(info, payload=0.0))
    state, _ = ag.advance(state, sc_push(info))
    state, _ = ag.advance(state, ag.Work(ag.WorkKind.NS_RECREATE))
    state, actions = ag.advance(state, flow_updated(info))
    [restore] = works(actions)
    assert restore.kind is ag.WorkKind.RESTORE
    assert state.phase == "restore"
    # The same publication again: the restore already runs, so the
    # destination fails naming it and starts nothing.
    state, actions = ag.advance(state, flow_updated(info))
    assert actions == []
    assert state.phase == "failed"
    assert state.diagnostic == (f"unexpected publish on {FLOW_UPDATED_TOPIC}"
                                " in phase restore")


def test_destination_holds_flow_updated_before_ns_ready():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(idle(ag.Role.DESTINATION, info),
                          task_message(info))
    state, actions = ag.advance(state, flow_updated(info))
    assert state.phase == "await reply source/nsconfig"
    assert state.held == (flow_updated(info),) and actions == []
    state, _ = ag.advance(state, image_reply(info))
    state, _ = ag.advance(state, sc_push(info))
    # Its turn comes once ns-ready is out: the restore starts at once.
    state, actions = ag.advance(state, ag.Work(ag.WorkKind.NS_RECREATE))
    assert actions == [BusMessage(MessageKind.PUBLISH, NS_READY_TOPIC, "dst"),
                       ag.Work(ag.WorkKind.RESTORE, 20480.0)]
    assert state.phase == "restore" and state.held == ()


def test_destination_cold_takes_the_reply_before_the_image():
    info = task_info(StrategyKind.COLD, 0)
    fresh = idle(ag.Role.DESTINATION, info)

    # The 0-byte reply is round 0; the image follows it.
    state, _ = ag.advance(fresh, task_message(info))
    assert state.phase == "await reply source/nsconfig"
    state, actions = ag.advance(state, image_reply(info))
    assert state.phase == "await publish source/stopcopy/image"
    assert actions == []  # still waiting on the image
    state, actions = ag.advance(state, sc_push(info, payload=float(M)))
    assert state.phase == "ns_recreate"
    assert actions == [ag.Work(ag.WorkKind.NS_RECREATE)]

    # An image ahead of the reply (which a slower link may delay) is held
    # until the reply comes, and sized by the image, not the reply.
    state, _ = ag.advance(fresh, task_message(info))
    state, actions = ag.advance(state, sc_push(info, payload=float(M)))
    assert state.phase == "await reply source/nsconfig"
    assert actions == []
    state, actions = ag.advance(state, image_reply(info))
    assert state.phase == "ns_recreate" and state.held == ()
    assert state.image_bytes == M
    assert actions == [ag.Work(ag.WorkKind.NS_RECREATE)]


def test_destination_duplicate_stop_copy_image_fails():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(idle(ag.Role.DESTINATION, info),
                          task_message(info))
    state, _ = ag.advance(state, image_reply(info))
    state, _ = ag.advance(state, sc_push(info))
    state, actions = ag.advance(state, sc_push(info))
    assert state.phase == "failed"
    assert state.diagnostic == (f"unexpected publish on {STOPCOPY_TOPIC}"
                                " in phase ns_recreate")
    assert actions == []


# ---------------------------------------------------------------------------
# Client


def test_client_updates_flow_and_publishes_once():
    info = task_info()
    state, actions = ag.advance(idle(ag.Role.CLIENT, info),
                                task_message(info))
    assert actions == []
    assert state.phase == "await publish destination/ns-ready"
    ns_ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=NS_READY_TOPIC, sender="dst")
    state, actions = ag.advance(state, ns_ready)
    assert actions == [ag.Work(ag.WorkKind.FLOW_UPDATE)]
    assert state.phase == "flow_update"
    state, actions = ag.advance(state, ag.Work(ag.WorkKind.FLOW_UPDATE))
    # The client's one message tells the destination that the flow moved.
    assert actions == [flow_updated(info)]
    assert state.phase == "done"


# ---------------------------------------------------------------------------
# Orchestrator


def test_orchestrator_lifecycle():
    info = task_info()
    state = idle(ag.Role.ORCHESTRATOR, info)
    state, actions = ag.advance(state, ag.Kickoff())
    # It publishes the task, then waits for the completion notice.
    assert actions == [BusMessage(MessageKind.PUBLISH, TASK_TOPIC, "orc")]
    assert state.phase == "await publish destination/done"

    done = BusMessage(
        kind=MessageKind.PUBLISH, topic=DONE_TOPIC, sender="dst")
    state, actions = ag.advance(state, done)
    assert state.phase == "done"
    assert actions == []

    # The kickoff is its first wait: a notice ahead of it is held, and
    # taken once the task is out.
    state, actions = ag.advance(idle(ag.Role.ORCHESTRATOR, info), done)
    assert (state.phase, state.held, actions) == ("idle", (done,), [])
    state, actions = ag.advance(state, ag.Kickoff())
    assert (state.phase, state.held) == ("done", ())
    assert actions == [BusMessage(MessageKind.PUBLISH, TASK_TOPIC, "orc")]


# ---------------------------------------------------------------------------
# Routing


# Iterative pre-copy with I=2, spelled out: (sender, kind, topic, receivers).
CLEAN_RUN_I2 = [
    ("orchestrator", "publish", "mig/t1/orchestrator/task",
     ["source", "destination", "client"]),
    ("destination", "query", "mig/t1/source/nsconfig", ["source"]),
    ("source", "reply", "mig/t1/source/nsconfig", ["destination"]),
    ("source", "publish", "mig/t1/source/round/1/ready", ["destination"]),
    ("destination", "query", "mig/t1/source/round/1/image", ["source"]),
    ("source", "reply", "mig/t1/source/round/1/image", ["destination"]),
    ("source", "publish", "mig/t1/source/round/2/ready", ["destination"]),
    ("destination", "query", "mig/t1/source/round/2/image", ["source"]),
    ("source", "reply", "mig/t1/source/round/2/image", ["destination"]),
    ("source", "publish", "mig/t1/source/stopcopy/image", ["destination"]),
    ("destination", "publish", "mig/t1/destination/ns-ready", ["client"]),
    ("client", "publish", "mig/t1/client/flow-updated", ["destination"]),
    ("destination", "publish", "mig/t1/destination/done", ["orchestrator"]),
]


def test_clean_run_is_the_spelled_out_protocol():
    info = task_info(iterations=2)
    assert [(step.sender.value, step.kind.value, step.topic,
             [role.value for role in step.receivers])
            for step in ag.clean_run(info)] == CLEAN_RUN_I2
    # The route table holds exactly these routes, each role resolved to
    # its agent, and nothing else.
    agent_of = {"source": "src", "destination": "dst", "client": "cli",
                "orchestrator": "orc"}
    expected = {(MessageKind(kind), topic): tuple(agent_of[r] for r in to)
                for _, kind, topic, to in CLEAN_RUN_I2}
    assert dict(ag.compile_protocol(info).routes) == expected


# The waits each role's script passes, in order, for I=2, spelled out.
SCRIPTS_I2 = {
    ag.Role.SOURCE: [
        "await publish orchestrator/task", "round_checkpoint[0]",
        "await query source/nsconfig", "transfer_round[0]",
        "round_checkpoint[1]", "await query source/round/1/image",
        "transfer_round[1]", "round_checkpoint[2]",
        "await query source/round/2/image", "transfer_round[2]",
        "stop_checkpoint", "transfer_stopcopy", "ns_clear"],
    ag.Role.DESTINATION: [
        "await publish orchestrator/task", "await reply source/nsconfig",
        "await publish source/round/1/ready",
        "await reply source/round/1/image",
        "await publish source/round/2/ready",
        "await reply source/round/2/image",
        "await publish source/stopcopy/image", "ns_recreate",
        "await publish client/flow-updated", "restore"],
    ag.Role.CLIENT: ["await publish orchestrator/task",
                     "await publish destination/ns-ready", "flow_update"],
    ag.Role.ORCHESTRATOR: ["kickoff", "await publish destination/done"],
}


@pytest.mark.parametrize("role", list(ag.Role), ids=lambda r: r.value)
def test_each_role_walks_its_projection_of_the_table(role):
    info = task_info(iterations=2)
    agent_id = dict(zip(ag.Role, ("src", "dst", "cli", "orc")))[role]
    script = ag.compile_protocol(info).scripts[role]
    assert list(script.names) == [*SCRIPTS_I2[role], "done"]
    # It sends its rows of the table in order, signed with its agent id,
    # each after the work the row names, and waits for each row it
    # receives.
    rows = [step for step in ag.clean_run(info) if step.sender is role]
    emitted = [action for segment in script.emits for action in segment]
    assert [(m.kind, m.topic, m.sender) for m in sends(emitted)] == [
        (step.kind, step.topic, agent_id) for step in rows]
    for step in rows:
        at = next(i for i, m in enumerate(emitted)
                  if type(m) is BusMessage and m.topic == step.topic)
        assert tuple(emitted[at - len(step.work):at]) == step.work
    assert sorted(script.index.values()) == [
        i for i, name in enumerate(SCRIPTS_I2[role])
        if name.startswith("await ")]
    assert {key for key in script.index} == {
        (step.kind, step.topic) for step in ag.clean_run(info)
        if role in step.receivers}


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    *((StrategyKind.ITERATIVE_PRE_COPY, i) for i in range(1, 9)),
])
def test_clean_run_sends_seven_plus_three_per_round(strategy, iters):
    assert len(ag.clean_run(task_info(strategy, iters))) == 7 + 3 * iters


@pytest.mark.parametrize("strategy,round_index", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 1),
])
def test_image_reply_without_its_configuration_fails(strategy, round_index):
    info = task_info(strategy, round_index)
    state, _ = ag.advance(idle(ag.Role.DESTINATION, info),
                          task_message(info))
    if round_index:
        state, _ = ag.advance(state, image_reply(info))
        state, _ = ag.advance(state, BusMessage(
            MessageKind.PUBLISH, READY_TOPIC[1], "src"))
    topic = IMAGE_TOPIC[round_index]
    state, actions = ag.advance(state,
                                BusMessage(MessageKind.REPLY, topic, "src"))
    assert state.phase == "failed"
    assert state.diagnostic == (f"unexpected reply on {topic} in phase "
                                f"await reply {topic[len('mig/t1/'):]}")
    assert actions == []


# ---------------------------------------------------------------------------
# Records


@pytest.mark.parametrize("change,match", [
    ({"topic": ""}, "topic must be non-empty"),
    ({"payload_bytes": -1.0}, "payload_bytes must be >= 0"),
])
def test_message_checks_its_topic_and_payload(change, match):
    fields = {"kind": MessageKind.PUBLISH, "topic": "mig/t1/x",
              "sender": "src"}
    with pytest.raises(DomainError, match=match):
        BusMessage(**{**fields, **change})
    with pytest.raises(DomainError, match=match):
        BusMessage(**fields)._replace(**change)


SCENARIO = load_scenario(DEMO)
RECORDS = [
    BusMessage(MessageKind.REPLY, "mig/t1/x", "src", 8.0,
               {"ns_config": "netns:t1"}),
    BusMessage(MessageKind.PUBLISH, "mig/t1/y", "dst"),
    ag.Work(ag.WorkKind.TRANSFER_ROUND, 4096.0, 2),
    # A source holding its round-0 query: a script, a held message.
    ag.advance(ag.advance(idle(ag.Role.SOURCE, task_info()),
                          task_message(task_info()))[0],
               pull_query(task_info()))[0],
    task_info(),
    SCENARIO,  # every section present, as a parallel sweep pickles it
    run_scenario(SCENARIO, plan_from_scenario(SCENARIO)),
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_copy_and_pickle_whole(record):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for copied in (copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record
        if type(record) is ag.AgentState:
            assert copied.held == record.held != ()


MARKERS = (ag.TimerFired, ag.Kickoff)


@pytest.mark.parametrize("kind", MARKERS, ids=lambda kind: kind.__name__)
def test_markers_are_equal_to_their_own_kind_only_and_truthy(kind):
    marker = kind()
    assert marker == kind() and hash(marker) == hash(kind())
    assert [other for other in MARKERS if other() == marker] == [kind]
    assert marker != () and marker
    for copied in (copy.deepcopy(marker), pickle.loads(pickle.dumps(marker))):
        assert type(copied) is kind and copied == marker


def test_messages_without_headers_get_their_own_empty_headers():
    first, second = (BusMessage(MessageKind.PUBLISH, "mig/t1/y", "dst")
                     for _ in range(2))
    assert first.headers == {} and first.headers is not second.headers


# ---------------------------------------------------------------------------
# Purity


def _noise(info):
    """Events a protocol step may not be waiting for: every topic of the
    task in every message kind, every work kind and round, a watchdog and
    a second kickoff."""
    topics = dict.fromkeys(step.topic for step in ag.clean_run(info))
    msgs = [BusMessage(kind=kind, topic=topic, sender="x")
            for topic in topics for kind in MessageKind]
    done = [ag.Work(kind, 4096.0, round_index) for kind in ag.WorkKind
            for round_index in range(info.iterations + 1)]
    return msgs + done + [ag.TimerFired(), ag.Kickoff()]


def _early(info):
    """Every row of the table as its sender sends it, for one of its
    receivers: delivered at any time, most come ahead of their turn."""
    agent_of = dict(zip(ag.Role, ("src", "dst", "cli", "orc")))
    return [(agent_of[role], BusMessage(
        step.kind, step.topic, agent_of[step.sender], 4096.0 * step.image,
        {"ns_config": info.ns_config} if step.kind is MessageKind.REPLY
        else None))
            for step in ag.clean_run(info) for role in step.receivers]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(StrategyKind)), st.integers(0, 3), st.data())
def test_transitions_never_change_their_input(strategy, iterations, data):
    # Walk all four agents through one task. Each step delivers, in any
    # order, an event the agents' own actions produced; now and then a
    # watchdog instead, a row of the table to one of its receivers ahead
    # of (or after) its turn, or a noise event to any agent. (Fired as
    # often as messages, watchdogs and noise would fail nearly every walk
    # early.) As in the simulator, every agent an event leaves neither
    # done nor failed is guarded by a watchdog until its next event. Every
    # action is a message or a work item, told apart by exact type as the
    # simulator does.
    info = task_info(strategy, iterations)
    states = {aid: idle(role, info) for role, aid in zip(
        ag.Role, ("src", "dst", "cli", "orc"))}
    routes = ag.compile_protocol(info).routes
    noise, early = _noise(info), _early(info)
    pending, guarded = [("orc", ag.Kickoff())], set()
    for _ in range(data.draw(st.integers(1, 80))):
        roll = data.draw(st.integers(0, 29))
        if roll == 0 or not (pending or guarded):
            agent_id = data.draw(st.sampled_from(sorted(states)))
            event = data.draw(st.sampled_from(noise))
        elif roll in (2, 3):
            agent_id, event = data.draw(st.sampled_from(early))
        elif guarded and (roll == 1 or not pending):
            agent_id = data.draw(st.sampled_from(sorted(guarded)))
            event = ag.TimerFired()
        else:
            agent_id, event = pending.pop(
                data.draw(st.integers(0, len(pending) - 1)))
        guarded.discard(agent_id)
        state = states[agent_id]
        state_copy, event_copy = copy.deepcopy((state, event))
        new_state, actions = ag.advance(state, event)
        assert state == state_copy
        assert event == event_copy
        with pytest.raises(AttributeError):
            new_state.phase = ag.DONE
        with pytest.raises(ValueError):
            new_state._replace(no_such_field=1)
        with pytest.raises(AttributeError):
            new_state.script.names = ()
        # A live agent holds only messages ahead of it, one a wait.
        held = [new_state.script.index[m.kind, m.topic]
                for m in new_state.held]
        assert new_state.phase in ag.TERMINAL_PHASES or (
            len(set(held)) == len(held)
            and all(at > new_state.pos for at in held))
        states[agent_id] = new_state
        if new_state.phase not in ag.TERMINAL_PHASES:
            guarded.add(agent_id)
        elif new_state.phase == ag.FAILED:
            assert actions == []  # a failing transition sends nothing
        for action in actions:
            assert type(action) in (BusMessage, ag.Work)
            if type(action) is BusMessage:
                pending += [(receiver, action) for receiver in
                            routes.get((action.kind, action.topic), ())]
            else:
                pending.append((agent_id, ag.Work(
                    action.kind, action.bytes or 4096.0, action.round)))
