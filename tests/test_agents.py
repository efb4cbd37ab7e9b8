"""Pure transition tests for the protocol state machines.

These drive :func:`edgemig.agents.advance` directly, event by event, with
no simulator in the loop, checking phases, emitted actions, failure
behaviour and the client's flow update.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemig import agents as ag
from edgemig import simnet
from edgemig.bus import BusMessage, MessageKind
from edgemig.errors import DomainError
from edgemig.model import StrategyKind

M = 10_485_760


def task_info(strategy=StrategyKind.ITERATIVE_PRE_COPY, iterations=2):
    return ag.TaskInfo(
        task_id="t1", source="src", destination="dst",
        client="cli", orchestrator="orc", strategy=strategy,
        iterations=iterations, ns_config="netns:t1")


TOPICS = task_info().topics
FAILED = dict(zip(ag.Role, TOPICS.failed))


def task_message(info):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=info.topics.task,
        sender="orc", headers={"task": info})


def ns_query(info):
    return BusMessage(
        kind=MessageKind.QUERY, topic=info.topics.nsconfig,
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
    assert actions == [ag.Work(ag.WorkKind.PRE_CHECKPOINT)]


def test_source_cold_goes_straight_to_stop_copy():
    info = task_info(StrategyKind.COLD, 0)
    state, actions = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                                task_message(info))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    [work] = works(actions)
    assert work.kind is ag.WorkKind.STOP_CHECKPOINT


def test_source_initial_image_waits_for_query_and_checkpoint():
    """Whichever of {query, checkpoint end} lands second starts the copy."""
    info = task_info()
    idle = ag.idle_agent(ag.Role.SOURCE, "src")

    # Order A: query first, then checkpoint completion.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(state, ns_query(info))
    assert works(actions) == [] and sends(actions) == []
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_INITIAL and work.bytes == M

    # Order B: checkpoint completes first, query afterwards.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
    assert works(actions) == []
    assert timers(actions)  # passive wait is guarded
    state, actions = ag.advance(state, ns_query(info))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_INITIAL and work.bytes == M


def test_source_full_iterative_walk():
    info = task_info(iterations=2)
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    state, _ = ag.advance(state, ns_query(info))
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_INITIAL, bytes=float(M)))
    # The namespace reply carries the initial image; round 1 begins.
    [reply] = sends(actions)
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


def test_source_rejects_duplicate_ns_query():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    state, _ = ag.advance(state, ns_query(info))
    state, actions = ag.advance(state, ns_query(info))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic and "duplicate" in state.diagnostic
    topics = [m.topic for m in sends(actions)]
    assert FAILED[ag.Role.SOURCE] in topics
    assert any(isinstance(a, ag.Diagnostic) for a in actions)


def test_source_unexpected_event_fails_with_diagnostic():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    bogus = ag.Work(ag.WorkKind.RESTORE, bytes=1.0)
    state, actions = ag.advance(state, bogus)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert any(isinstance(a, ag.Diagnostic) for a in actions)


def _armed_source(info):
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    # The checkpoint ends before the destination's query: a passive wait.
    return ag.advance(
        state, ag.Work(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))


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
    assert "timed out" in failed.diagnostic
    assert [m.topic for m in sends(failed_actions)] == [
        FAILED[role]]
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
    assert sends(actions) == []  # no task, so no one to report to


def test_terminal_phases_absorb_everything():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    failed, _ = ag.advance(state, ag.Work(ag.WorkKind.RESTORE))
    assert failed.phase.kind is ag.PhaseKind.FAILED
    after, actions = ag.advance(failed, ns_query(info))
    assert after == failed and actions == []


# ---------------------------------------------------------------------------
# Destination


def ns_reply(info, payload=0.0):
    return BusMessage(
        kind=MessageKind.REPLY, topic=info.topics.nsconfig,
        sender="src", payload_bytes=payload,
        headers={"ns_config": "netns:t1"})


def sc_push(info, payload=20480.0):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=info.topics.stopcopy,
        sender="src", payload_bytes=payload)


def test_destination_queries_namespace_config_on_task():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                                task_message(info))
    [query] = sends(actions)
    assert query.kind is MessageKind.QUERY
    assert query.topic == TOPICS.nsconfig
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 0)
    assert timers(actions)


def flow_updated(info):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=info.topics.flow_updated,
        sender="cli")


def test_destination_full_walk_restores_on_flow_updated():
    info = task_info(iterations=1)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, ns_reply(info, payload=float(M)))
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 1)
    ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=TOPICS.round_ready[1],
        sender="src")
    state, actions = ag.advance(state, ready)
    [pull] = sends(actions)
    assert pull.kind is MessageKind.QUERY
    assert pull.topic == TOPICS.round_image[1]
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    image = BusMessage(
        kind=MessageKind.REPLY, topic=TOPICS.round_image[1],
        sender="src", payload_bytes=8192.0)
    state, actions = ag.advance(state, image)
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


def test_destination_fails_on_flow_updated_before_ns_ready():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, actions = ag.advance(state, flow_updated(info))
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic == (f"unexpected publish on {TOPICS.flow_updated}"
                                " in phase stopcopy_checkpoint")
    assert [a.topic for a in sends(actions)] == [
        FAILED[ag.Role.DESTINATION]]


def test_destination_cold_accepts_either_arrival_order():
    info = task_info(StrategyKind.COLD, 0)
    idle = ag.idle_agent(ag.Role.DESTINATION, "dst")

    # Config reply first, then the image.
    state, _ = ag.advance(idle, task_message(info))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    state, actions = ag.advance(state, ns_reply(info))
    assert works(actions) == []  # still waiting on the image
    state, actions = ag.advance(state, sc_push(info, payload=float(M)))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.NS_RECREATE

    # Image first, then the config reply.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(state, sc_push(info, payload=float(M)))
    assert works(actions) == []
    state, actions = ag.advance(state, ns_reply(info))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.NS_RECREATE


def test_destination_duplicate_stop_copy_image_fails():
    info = task_info(StrategyKind.COLD, 0)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, sc_push(info))
    state, _ = ag.advance(state, sc_push(info))
    assert state.phase.kind is ag.PhaseKind.FAILED


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


def test_orchestrator_collects_failures():
    info = task_info()
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
    state, _ = ag.advance(state, ag.Kickoff())
    failure = BusMessage(
        kind=MessageKind.PUBLISH, topic=FAILED[ag.Role.CLIENT],
        sender="cli", headers={"reason": "timed out waiting in phase idle"})
    state, actions = ag.advance(state, failure)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert "cli" in state.diagnostic
    assert any(isinstance(a, ag.Diagnostic) for a in actions)


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
    # Every role reports its failure to the orchestrator, and the route
    # table holds exactly these routes, each role resolved to its agent.
    failures = [("publish", f"mig/t1/{role}/failed", ["orchestrator"])
                for role in ("source", "destination", "client",
                             "orchestrator")]
    agent_of = {"source": "src", "destination": "dst", "client": "cli",
                "orchestrator": "orc"}
    expected = {(MessageKind(kind), topic): tuple(agent_of[r] for r in to)
                for kind, topic, to in ([step[1:] for step in CLEAN_RUN_I2]
                                        + failures)}
    assert dict(simnet._routes(info)) == expected


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    *((StrategyKind.ITERATIVE_PRE_COPY, i) for i in range(1, 9)),
])
def test_clean_run_sends_seven_plus_three_per_round(strategy, iters):
    assert len(ag.clean_run(task_info(strategy, iters))) == 7 + 3 * iters


@pytest.mark.parametrize("strategy", [StrategyKind.COLD,
                                      StrategyKind.PRE_COPY])
def test_namespace_reply_without_its_configuration_fails(strategy):
    info = task_info(strategy, 0)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    bare = BusMessage(MessageKind.REPLY, TOPICS.nsconfig, "src")
    state, actions = ag.advance(state, bare)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert state.diagnostic.startswith(
        "unexpected reply on mig/t1/source/nsconfig in phase ")
    assert [a.topic for a in sends(actions)] == [
        FAILED[ag.Role.DESTINATION]]


# ---------------------------------------------------------------------------
# Records


def test_positional_state_copy_equals_replace_for_every_field():
    state = ag.AgentState(ag.Role.DESTINATION, "dst", info=task_info(),
                          preckpt_bytes=1.0, sc_bytes=2.0)
    names = ("phase", "info", "ns_query_seen", "preckpt_bytes",
             "round_bytes", "ns_config", "sc_bytes", "diagnostic")
    assert [ag.AgentState._fields[i] for i in (
        ag._PHASE, ag._INFO, ag._NS_QUERY_SEEN, ag._PRECKPT_BYTES,
        ag._ROUND_BYTES, ag._NS_CONFIG, ag._SC_BYTES,
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


RECORDS = [
    BusMessage(MessageKind.REPLY, "mig/t1/x", "src", 8.0,
               {"ns_config": "netns:t1"}),
    BusMessage(MessageKind.PUBLISH, "mig/t1/y", "dst"),
    ag.Work(ag.WorkKind.TRANSFER_ROUND, 4096.0, 2),
    ag.AgentState(ag.Role.SOURCE, "src", ag.Phase(
        ag.PhaseKind.AWAIT_IMAGE_PULL, 2), task_info(), round_bytes=4096.0),
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
    topics = dict.fromkeys([*(step.topic for step in ag.clean_run(info)),
                            *info.topics.failed])
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

