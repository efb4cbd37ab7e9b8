"""Pure transition tests for the protocol state machines.

These drive :func:`edgemig.agents.advance` directly, event by event, with
no simulator in the loop, checking phases, emitted actions, failure
behaviour and the client's flow update.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemig import agents as ag
from edgemig.bus import BusMessage, MessageKind
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    cold_kpis,
    precopy_kpis,
)
from edgemig.orchestrator import MigrationConfig

M = 10_485_760
GBPS = 1000.0 * BYTES_PER_S_PER_MBPS
PROFILE = MsProfile(state_size_bytes=M, dirty_rate_norm=4 / 2559)
PARAMS = ModelParams(
    ckpt_fixed_s=0.5, pre_ckpt_fixed_s=0.5, restore_fixed_s=0.35,
    transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)


def task_info(strategy=StrategyKind.ITERATIVE_PRE_COPY, iterations=2):
    return ag.TaskInfo(
        task_id="t1", source="src", destination="dst",
        client="cli", orchestrator="orc", strategy=strategy,
        iterations=iterations, ns_config="netns:t1")


def task_message(info):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.task_topic(info.task_id),
        sender="orc", headers={"task": info})


def ns_query(info):
    return BusMessage(
        kind=MessageKind.QUERY, topic=ag.nsconfig_topic(info.task_id),
        sender="dst")


def sends(actions):
    return [a for a in actions if isinstance(a, BusMessage)]


def works(actions):
    return [a for a in actions if isinstance(a, ag.Work)]


def timers(actions):
    return [a for a in actions if isinstance(a, ag.SetTimer)]


# ---------------------------------------------------------------------------
# Source


def test_source_task_receipt_announces_and_checkpoints():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                                task_message(info))
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 0)
    [started] = sends(actions)
    assert started.topic == ag.started_topic("t1")
    [work] = works(actions)
    assert work.kind is ag.WorkKind.PRE_CHECKPOINT


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
    assert ready.topic == ag.round_ready_topic("t1", 1)
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    pull = BusMessage(
        kind=MessageKind.QUERY, topic=ag.round_image_topic("t1", 1),
        sender="dst")
    state, actions = ag.advance(state, pull)
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_ROUND and work.bytes == 8192.0
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.TRANSFER_ROUND, bytes=8192.0, round=1))
    [reply] = sends(actions)
    assert reply.topic == ag.round_image_topic("t1", 1)
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 2)

    # Round 2 ends the pre-copy: next comes the stop-and-copy checkpoint.
    state, _ = ag.advance(
        state, ag.Work(ag.WorkKind.ROUND_CHECKPOINT, bytes=4096.0, round=2))
    pull2 = BusMessage(
        kind=MessageKind.QUERY, topic=ag.round_image_topic("t1", 2),
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
    assert push.topic == ag.stopcopy_topic("t1")
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
    assert ag.failed_topic("t1", ag.Role.SOURCE) in topics
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
        ag.failed_topic("t1", role)]
    # Once the agent is failed, a late watchdog changes nothing. (Which
    # timers are stale is the driver's business: see the simulator tests.)
    assert ag.advance(failed, ag.TimerFired()) == (failed, [])


@pytest.mark.parametrize("role", [ag.Role.SOURCE, ag.Role.DESTINATION,
                                  ag.Role.CLIENT], ids=lambda r: r.value)
@pytest.mark.parametrize("topic,headers", [
    (ag.ns_ready_topic("t1"), {}),
    (ag.task_topic("t1"), {}),
    (ag.ns_ready_topic("t1"), {"task": task_info()}),
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
        kind=MessageKind.REPLY, topic=ag.nsconfig_topic(info.task_id),
        sender="src", payload_bytes=payload,
        headers={"ns_config": "netns:t1"})


def sc_push(info, payload=20480.0):
    return BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.stopcopy_topic(info.task_id),
        sender="src", payload_bytes=payload)


def test_destination_queries_namespace_config_on_task():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                                task_message(info))
    [query] = sends(actions)
    assert query.kind is MessageKind.QUERY
    assert query.topic == ag.nsconfig_topic("t1")
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 0)
    assert timers(actions)


def test_destination_full_walk_with_flow_settle():
    info = task_info(iterations=1)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, ns_reply(info, payload=float(M)))
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 1)
    ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.round_ready_topic("t1", 1),
        sender="src")
    state, actions = ag.advance(state, ready)
    [pull] = sends(actions)
    assert pull.kind is MessageKind.QUERY
    assert pull.topic == ag.round_image_topic("t1", 1)
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    image = BusMessage(
        kind=MessageKind.REPLY, topic=ag.round_image_topic("t1", 1),
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
    [msg] = sends(actions)
    assert msg.topic == ag.ns_ready_topic("t1")
    # Restore waits for the flow update to settle, a work item like any
    # other; no timer is armed for it.
    [work] = works(actions)
    assert work.kind is ag.WorkKind.FLOW_SETTLE and timers(actions) == []
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE

    state, actions = ag.advance(state, ag.Work(ag.WorkKind.FLOW_SETTLE))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.RESTORE and work.bytes == 20480.0
    state, actions = ag.advance(
        state, ag.Work(ag.WorkKind.RESTORE, bytes=20480.0))
    [done] = sends(actions)
    assert done.topic == ag.done_topic("t1")
    assert state.phase.kind is ag.PhaseKind.DONE


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


def test_client_updates_flow_and_publishes_nothing():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.CLIENT, "cli"),
                                task_message(info))
    assert sends(actions) == []
    ns_ready = BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.ns_ready_topic("t1"), sender="dst")
    state, actions = ag.advance(state, ns_ready)
    assert sends(actions) == []
    [work] = works(actions)
    assert work.kind is ag.WorkKind.FLOW_UPDATE
    state, actions = ag.advance(state, ag.Work(ag.WorkKind.FLOW_UPDATE))
    # Transparency: the client redirects the flow (its done phase says so)
    # without a single bus message along the way.
    assert sends(actions) == []
    assert state.phase.kind is ag.PhaseKind.DONE


# ---------------------------------------------------------------------------
# Orchestrator


def test_orchestrator_lifecycle():
    info = task_info()
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
    state, actions = ag.advance(state, ag.Kickoff())
    [pub] = sends(actions)
    assert pub.topic == ag.task_topic("t1")
    assert pub.headers == {"task": info}

    started = BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.started_topic("t1"), sender="src")
    state, _ = ag.advance(state, started)
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE

    done = BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.done_topic("t1"), sender="dst")
    state, actions = ag.advance(state, done)
    assert state.phase.kind is ag.PhaseKind.DONE
    assert actions == []


def test_orchestrator_collects_failures():
    info = task_info()
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
    state, _ = ag.advance(state, ag.Kickoff())
    failure = BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.failed_topic("t1", ag.Role.CLIENT),
        sender="cli", headers={"reason": "timed out waiting in phase idle"})
    state, actions = ag.advance(state, failure)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert "cli" in state.diagnostic
    assert any(isinstance(a, ag.Diagnostic) for a in actions)


# ---------------------------------------------------------------------------
# Routing


def test_every_topic_builder_routes_to_its_roles():
    info = task_info(iterations=2)
    src, dst, cli, orc = (ag.Role.SOURCE, ag.Role.DESTINATION,
                          ag.Role.CLIENT, ag.Role.ORCHESTRATOR)
    routes = {
        ag.task_topic("t1"): (src, dst, cli),
        ag.started_topic("t1"): (orc,),
        ag.round_ready_topic("t1", 1): (dst,),
        ag.round_ready_topic("t1", 2): (dst,),
        ag.stopcopy_topic("t1"): (dst,),
        ag.ns_ready_topic("t1"): (cli,),
        ag.done_topic("t1"): (orc,),
        # Queries go to the one role owning the topic.
        ag.nsconfig_topic("t1"): (src,),
        ag.round_image_topic("t1", 1): (src,),
        ag.round_image_topic("t1", 2): (src,),
    }
    routes.update({ag.failed_topic("t1", role): (orc,) for role in ag.Role})
    assert ag.subscriptions(info) == routes


# ---------------------------------------------------------------------------
# Purity


def _noise(info):
    """Events a protocol step may not be waiting for: every topic of the
    task in every message kind, every work kind and round, a watchdog and
    a second kickoff."""
    msgs = [BusMessage(kind=kind, topic=topic, sender="x")
            for topic in ag.subscriptions(info) for kind in MessageKind]
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
    by_role = {state.role: aid for aid, state in states.items()}
    routes = ag.subscriptions(info)
    asked = {}  # query topic -> the agent that asked
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
                if action.kind is MessageKind.REPLY:
                    receivers = [asked[action.topic]] \
                        if action.topic in asked else []
                else:
                    if action.kind is MessageKind.QUERY:
                        asked[action.topic] = agent_id
                    receivers = [by_role[role]
                                 for role in routes.get(action.topic, ())]
                pending += [(receiver, action) for receiver in receivers]
            elif isinstance(action, ag.Work):
                pending.append((agent_id, ag.Work(
                    action.kind, action.bytes or 4096.0, action.round)))
            elif isinstance(action, ag.SetTimer):
                guarded.add(agent_id)


# ---------------------------------------------------------------------------
# Stop-and-copy schedule


def _config(strategy, iterations=0, bw=GBPS):
    choice = StrategyChoice(strategy, iterations)
    if strategy is StrategyKind.COLD:
        predicted = cold_kpis(PROFILE, PARAMS, bw)
    else:
        predicted = precopy_kpis(PROFILE, PARAMS, bw, iterations)
    return MigrationConfig(strategy=choice, bandwidth_bytes_per_s=bw,
                           predicted=predicted, target_met=True)


@pytest.mark.parametrize("strategy,iterations", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 7),
])
def test_schedule_spans_exactly_the_predicted_downtime(strategy, iterations):
    config = _config(strategy, iterations)
    steps = ag.stopcopy_schedule(config)
    start = min(s.start_s for s in steps)
    end = max(s.end_s for s in steps)
    assert start == 0.0
    assert end == pytest.approx(config.predicted.downtime_s, rel=1e-12)


def test_schedule_step_structure():
    steps = ag.stopcopy_schedule(_config(StrategyKind.ITERATIVE_PRE_COPY, 3))
    by_id = {s.step_id: s for s in steps}
    assert set(by_id) == {"S1", "S3", "S2", "S4", "S5", "S6"}
    # Checkpoint before transfer; both namespace operations share a window;
    # the flow update follows them; the restore closes the pipeline.
    assert by_id["S1"].end_s == pytest.approx(by_id["S3"].start_s)
    assert by_id["S2"].start_s == by_id["S4"].start_s
    assert by_id["S2"].start_s == pytest.approx(by_id["S3"].end_s)
    assert by_id["S5"].start_s == pytest.approx(by_id["S4"].end_s)
    assert by_id["S5"].duration_s == PARAMS.flow_update_s
    assert by_id["S6"].start_s == pytest.approx(by_id["S5"].end_s)
