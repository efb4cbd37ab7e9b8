"""Pure transition tests for the protocol state machines.

These drive :func:`edgemig.agents.advance` directly, event by event, with
no simulator in the loop, checking phases, emitted actions, failure
behaviour and the client's flow update.
"""

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemig import agents as ag
from edgemig import load_scenario, plan_from_scenario, run_scenario, simnet
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


TOPICS = task_info().topics


def task_message(info):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=info.topics.task,
        sender="orc", headers={"task": info})


def pull_query(info, round_index=0):
    return BusMessage(
        kind=MessageKind.QUERY, topic=info.topics.round_image[round_index],
        sender="dst")


def sends(actions):
    return [a for a in actions if isinstance(a, BusMessage)]


def works(actions):
    return [a for a in actions if isinstance(a, ag.Work)]


def timers(actions):
    return [a for a in actions if isinstance(a, ag.SetTimer)]


# ---------------------------------------------------------------------------
# Source


def test_source_task_receipt_checkpoints_without_a_message():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                                task_message(info))
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 0)
    assert actions == [ag.Work(ag.WorkKind.ROUND_CHECKPOINT, 0.0, 0)]


def test_source_cold_freezes_once_asked():
    info = task_info(StrategyKind.COLD, 0)
    state, actions = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                                task_message(info))
    # No running-state copy to make: only the wait for the query is guarded.
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 0)
    assert actions == [ag.SetTimer()]
    state, actions = ag.advance(state, pull_query(info))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    assert actions == [BusMessage(MessageKind.REPLY, TOPICS.round_image[0],
                                  "src", 0.0, {"ns_config": "netns:t1"}),
                       ag.Work(ag.WorkKind.STOP_CHECKPOINT)]


CHECKPOINT_ZERO = ag.Work(ag.WorkKind.ROUND_CHECKPOINT, float(M), 0)


def test_source_initial_image_waits_for_query_and_checkpoint():
    """Whichever of {query, checkpoint end} lands second starts the copy."""
    info = task_info()
    idle = ag.idle_agent(ag.Role.SOURCE, "src")

    # Order A: query first, then checkpoint completion.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(state, pull_query(info))
    assert works(actions) == [] and sends(actions) == []
    state, actions = ag.advance(state, CHECKPOINT_ZERO)
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 0)
    assert actions == [ag.Work(ag.WorkKind.TRANSFER_ROUND, float(M), 0)]

    # Order B: checkpoint completes first, query afterwards.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(state, CHECKPOINT_ZERO)
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 0)
    # No announcement for round 0; the passive wait is guarded.
    assert actions == [ag.SetTimer()]
    state, actions = ag.advance(state, pull_query(info))
    assert actions == [ag.Work(ag.WorkKind.TRANSFER_ROUND, float(M), 0)]


def test_source_full_iterative_walk():
    info = task_info(iterations=2)
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    state, _ = ag.advance(state, pull_query(info))
    state, actions = ag.advance(state, CHECKPOINT_ZERO)
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, float(M), 0))
    # The round-0 reply carries the initial image; round 1 begins.
    [reply] = sends(actions)
    assert reply.topic == TOPICS.round_image[0]
    assert reply.kind is MessageKind.REPLY
    assert reply.payload_bytes == M
    assert reply.headers["ns_config"] == "netns:t1"
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 1)
    [work] = works(actions)
    assert work.kind is ag.WorkKind.ROUND_CHECKPOINT

    # Round 1: checkpoint done -> ready published, wait for the pull.
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, bytes=8192.0, round=1))
    [ready] = sends(actions)
    assert ready.topic == TOPICS.round_ready[1]
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    pull = BusMessage(
        kind=MessageKind.QUERY, topic=TOPICS.round_image[1],
        sender="dst")
    state, actions = ag.advance(state, pull)
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_ROUND and work.bytes == 8192.0
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, bytes=8192.0, round=1))
    [reply] = sends(actions)
    assert reply.topic == TOPICS.round_image[1]
    assert reply.headers["ns_config"] == "netns:t1"
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 2)

    # Round 2 ends the pre-copy: next comes the stop-and-copy checkpoint.
    state, _ = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, bytes=4096.0, round=2))
    pull2 = BusMessage(
        kind=MessageKind.QUERY, topic=TOPICS.round_image[2],
        sender="dst")
    state, _ = ag.advance(state, pull2)
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, bytes=4096.0, round=2))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
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
    assert push.topic == TOPICS.stopcopy
    assert push.payload_bytes == 20480.0
    assert state.phase.kind is ag.PhaseKind.NAMESPACE_TRANSITION
    state, actions = ag.advance(state,
                                ag.Work(ag.WorkKind.NS_CLEAR, bytes=0.0))
    assert state.phase.kind is ag.PhaseKind.DONE
    assert actions == []


def _source_in_round(info, round_index):
    """A source checkpointing pre-copy round ``round_index``."""
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    for r in range(round_index):
        for event in (ag.Work(ag.WorkKind.ROUND_CHECKPOINT, 4096.0, r),
                      pull_query(info, r),
                      ag.Work(ag.WorkKind.TRANSFER_ROUND, 4096.0, r)):
            state, _ = ag.advance(state, event)
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, round_index)
    return state


@pytest.mark.parametrize("round_index", [0, 2])
def test_source_rejects_a_duplicate_query(round_index):
    # Round 0's query is held while its checkpoint runs; round 2's, once
    # announced, starts the transfer. A repeat of either fails the source
    # and starts nothing.
    info = task_info(iterations=2)
    state = _source_in_round(info, round_index)
    if round_index:
        state, _ = ag.advance(state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT,
                                             4096.0, round_index))
    state, actions = ag.advance(state, pull_query(info, round_index))
    assert works(actions) == ([ag.Work(ag.WorkKind.TRANSFER_ROUND, 4096.0, 2)]
                              if round_index else [])
    state, actions = ag.advance(state, pull_query(info, round_index))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == f"duplicate query for round {round_index}"
    assert actions == []  # a failing agent sends nothing


def test_source_unexpected_event_fails_with_diagnostic():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    bogus = ag.Work(ag.WorkKind.RESTORE, bytes=1.0)
    state, actions = ag.advance(state, bogus)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (
        "unexpected end of restore in phase precopy_round[0]")
    assert actions == []


@pytest.mark.parametrize("round_index", [0, 2])
def test_source_fails_on_another_rounds_checkpoint_end(round_index):
    # Only the current round's checkpoint may end: another round's fails
    # the source with a diagnostic, whatever slot that round's topics hold.
    info = task_info(iterations=2)
    state = _source_in_round(info, 1)
    phase = state.phase
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, 4096.0, round_index))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (
        f"unexpected end of round_checkpoint in phase {phase}")
    assert actions == []


def _armed_source(info):
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    # The checkpoint ends before the destination's query: a passive wait.
    return ag.advance(state, CHECKPOINT_ZERO)


def _armed_destination(info):
    return ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                      task_message(info))


def _armed_client(info):
    return ag.advance(ag.idle_agent(ag.Role.CLIENT, "cli"),
                      task_message(info))


def _armed_orchestrator(info):
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
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
    state, actions = ARM_WATCHDOG[role](info)
    assert timers(actions) == [ag.SetTimer()]
    # The fired watchdog diagnoses the stall.
    failed, failed_actions = ag.advance(state, ag.TimerFired())
    assert failed.phase.kind is ag.PhaseKind.FAILED
    assert failed.diagnostic == f"timed out waiting in phase {state.phase}"
    assert failed_actions == []
    # Once the agent is failed, a late watchdog changes nothing. (Which
    # timers are stale is the driver's business: see the simulator tests.)
    assert ag.advance(failed, ag.TimerFired()) == (failed, [])


@pytest.mark.parametrize("role", [ag.Role.SOURCE, ag.Role.DESTINATION,
                                  ag.Role.CLIENT], ids=lambda r: r.value)
@pytest.mark.parametrize("topic,headers", [
    (TOPICS.ns_ready, {}),
    (TOPICS.task, {}),
    (TOPICS.ns_ready, {"task": task_info()}),
], ids=["other-topic", "no-task", "task-off-its-topic"])
def test_idle_agent_takes_only_its_task_publication(role, topic, headers):
    stray = BusMessage(kind=MessageKind.PUBLISH, topic=topic,
                       sender="dst", headers=headers)
    state, actions = ag.advance(ag.idle_agent(role, "agent"), stray)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == f"unexpected publish on {topic} in phase idle"
    assert actions == []


def test_terminal_phases_absorb_everything():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    failed, _ = ag.advance(state, ag.Work(ag.WorkKind.RESTORE))
    assert failed.phase.kind is ag.PhaseKind.FAILED
    after, actions = ag.advance(failed, pull_query(info))
    assert after == failed and actions == []


# ---------------------------------------------------------------------------
# Destination


def image_reply(info, payload=0.0, round_index=0):
    return BusMessage(
        kind=MessageKind.REPLY, topic=info.topics.round_image[round_index],
        sender="src", payload_bytes=payload,
        headers={"ns_config": "netns:t1"})


def sc_push(info, payload=20480.0):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=info.topics.stopcopy,
        sender="src", payload_bytes=payload)


def test_destination_pulls_round_zero_on_task():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                                task_message(info))
    [query] = sends(actions)
    assert query.kind is MessageKind.QUERY
    assert query.topic == TOPICS.round_image[0] == "mig/t1/source/nsconfig"
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 0)
    assert timers(actions)


def flow_updated(info):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=info.topics.flow_updated,
        sender="cli")


def test_destination_full_walk_restores_on_flow_updated():
    info = task_info(iterations=1)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, image_reply(info, payload=float(M)))
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 1)
    ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=TOPICS.round_ready[1],
        sender="src")
    state, actions = ag.advance(state, ready)
    [pull] = sends(actions)
    assert pull.kind is MessageKind.QUERY
    assert pull.topic == TOPICS.round_image[1]
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    state, actions = ag.advance(state, image_reply(info, 8192.0, 1))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    assert timers(actions) == [ag.SetTimer()]

    state, actions = ag.advance(state, sc_push(info))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.NS_RECREATE
    assert state.phase.kind is ag.PhaseKind.NAMESPACE_TRANSITION
    # The image is here and the namespace work is the agent's own: the
    # transition leaves it unguarded.
    assert timers(actions) == []

    state, actions = ag.advance(state,
                                ag.Work(ag.WorkKind.NS_RECREATE))
    # Restore waits for the client's word that the flow is updated: a wait
    # on a peer, so the watchdog guards it.
    assert actions == [BusMessage(MessageKind.PUBLISH, TOPICS.ns_ready, "dst"),
                       ag.SetTimer()]
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE

    state, actions = ag.advance(state, flow_updated(info))
    assert actions == [ag.Work(ag.WorkKind.RESTORE, 20480.0)]
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.RESTORE, bytes=20480.0))
    [done] = sends(actions)
    assert done.topic == TOPICS.done
    assert state.phase.kind is ag.PhaseKind.DONE


def test_destination_fails_on_a_second_flow_updated_while_restoring():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, image_reply(info, payload=0.0))
    state, _ = ag.advance(state, sc_push(info))
    state, _ = ag.advance(state, ag.Work(ag.WorkKind.NS_RECREATE))
    state, actions = ag.advance(state, flow_updated(info))
    [restore] = works(actions)
    assert restore.kind is ag.WorkKind.RESTORE
    assert str(state.phase) == "await_restore"
    # The same publication again: the restore already runs, so the
    # destination fails naming it and starts nothing.
    state, actions = ag.advance(state, flow_updated(info))
    assert actions == []
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (f"unexpected publish on {TOPICS.flow_updated}"
                                " in phase await_restore")


def test_destination_fails_on_flow_updated_before_ns_ready():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, actions = ag.advance(state, flow_updated(info))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (f"unexpected publish on {TOPICS.flow_updated}"
                                " in phase await_image_pull[0]")
    assert actions == []


def test_destination_cold_takes_the_reply_before_the_image():
    info = task_info(StrategyKind.COLD, 0)
    idle = ag.idle_agent(ag.Role.DESTINATION, "dst")

    # The 0-byte reply is round 0; the image follows it.
    state, _ = ag.advance(idle, task_message(info))
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 0)
    state, actions = ag.advance(state, image_reply(info))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    assert actions == [ag.SetTimer()]  # still waiting on the image
    state, actions = ag.advance(state, sc_push(info, payload=float(M)))
    assert state.phase.kind is ag.PhaseKind.NAMESPACE_TRANSITION
    assert actions == [ag.Work(ag.WorkKind.NS_RECREATE)]

    # The source freezes only once it has answered, so an image ahead of
    # the reply is unexpected.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(state, sc_push(info, payload=float(M)))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (f"unexpected publish on {TOPICS.stopcopy}"
                                " in phase await_image_pull[0]")
    assert actions == []


def test_destination_duplicate_stop_copy_image_fails():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, image_reply(info))
    state, _ = ag.advance(state, sc_push(info))
    state, actions = ag.advance(state, sc_push(info))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (f"unexpected publish on {TOPICS.stopcopy}"
                                " in phase namespace_transition")
    assert actions == []


# ---------------------------------------------------------------------------
# Client


def test_client_updates_flow_and_publishes_once():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.CLIENT, "cli"),
                                task_message(info))
    assert actions == [ag.SetTimer()]
    ns_ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=TOPICS.ns_ready, sender="dst")
    state, actions = ag.advance(state, ns_ready)
    assert actions == [ag.Work(ag.WorkKind.FLOW_UPDATE)]
    state, actions = ag.advance(state, ag.Work(ag.WorkKind.FLOW_UPDATE))
    # The client's one message tells the destination that the flow moved.
    assert actions == [flow_updated(info)]
    assert state.phase.kind is ag.PhaseKind.DONE


# ---------------------------------------------------------------------------
# Orchestrator


def test_orchestrator_lifecycle():
    info = task_info()
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
    state, actions = ag.advance(state, ag.Kickoff())
    # One watchdog guards the whole migration, up to the completion notice.
    assert actions == [BusMessage(MessageKind.PUBLISH, TOPICS.task, "orc",
                                  0.0, {"task": info}), ag.SetTimer()]
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE

    done = BusMessage(
        kind=MessageKind.PUBLISH, topic=TOPICS.done, sender="dst")
    state, actions = ag.advance(state, done)
    assert state.phase.kind is ag.PhaseKind.DONE
    assert actions == []


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
    assert dict(simnet._routes(info)) == expected


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
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    if round_index:
        state, _ = ag.advance(state, image_reply(info))
        state, _ = ag.advance(state, BusMessage(
            MessageKind.PUBLISH, info.topics.round_ready[1], "src"))
    topic = info.topics.round_image[round_index]
    state, actions = ag.advance(state,
                                BusMessage(MessageKind.REPLY, topic, "src"))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (f"unexpected reply on {topic} in phase "
                                f"await_image_pull[{round_index}]")
    assert actions == []


# ---------------------------------------------------------------------------
# Records


def test_positional_state_copy_equals_replace_for_every_field():
    state = ag.AgentState(ag.Role.DESTINATION, "dst", info=task_info(),
                          pulled=1, image_bytes=2.0)
    names = ("phase", "info", "pulled", "image_bytes", "diagnostic")
    assert [ag.AgentState._fields[i] for i in (
        ag._PHASE, ag._INFO, ag._PULLED, ag._IMAGE_BYTES,
        ag._DIAGNOSTIC)] == list(names)
    for index, name in enumerate(ag.AgentState._fields):
        value = object()
        copied = ag._with(state, index, value)
        assert type(copied) is ag.AgentState
        assert copied == state._replace(**{name: value})
        assert copied[index] is value


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
    ag.AgentState(ag.Role.SOURCE, "src", ag.Phase(
        ag.PhaseKind.AWAIT_IMAGE_PULL, 2), task_info(), image_bytes=4096.0),
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
        if type(record) is ag.TaskInfo:
            assert copied.topics == record.topics == TOPICS


MARKERS = (ag.SetTimer, ag.TimerFired, ag.Kickoff)


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(StrategyKind)), st.integers(0, 3), st.data())
def test_transitions_never_change_their_input(strategy, iterations, data):
    # Walk all four agents through one task. Each step delivers, in any
    # order, an event the agents' own actions produced; now and then a
    # watchdog instead, or a noise event to any agent. (Fired as often as
    # messages, watchdogs and noise would fail nearly every walk early.)
    # As in the simulator, any event delivered to an agent drops its
    # pending watchdog, and only the agent's next SetTimer sets another.
    info = task_info(strategy, iterations)
    states = {aid: ag.idle_agent(role, aid) for aid, role in (
        ("src", ag.Role.SOURCE), ("dst", ag.Role.DESTINATION),
        ("cli", ag.Role.CLIENT))}
    states["orc"] = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc",
                                  info=info)
    routes = simnet._routes(info)
    noise = _noise(info)
    pending, guarded = [("orc", ag.Kickoff())], set()
    for _ in range(data.draw(st.integers(1, 80))):
        roll = data.draw(st.integers(0, 29))
        if roll == 0 or not (pending or guarded):
            agent_id = data.draw(st.sampled_from(sorted(states)))
            event = data.draw(st.sampled_from(noise))
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
        with pytest.raises(AttributeError):
            new_state.phase.round = 1
        with pytest.raises(ValueError):
            new_state._replace(no_such_field=1)
        states[agent_id] = new_state
        for action in actions:
            if isinstance(action, BusMessage):
                pending += [(receiver, action) for receiver in
                            routes.get((action.kind, action.topic), ())]
            elif isinstance(action, ag.Work):
                pending.append((agent_id, ag.Work(
                    action.kind, action.bytes or 4096.0, action.round)))
            elif isinstance(action, ag.SetTimer):
                guarded.add(agent_id)

