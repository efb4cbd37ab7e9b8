"""Pure transition tests for the protocol state machines.

These drive :func:`edgemig.agents.advance` directly, event by event, with
no simulator in the loop, checking phases, emitted actions, failure
behaviour and the functional flow table.
"""

import pytest

from edgemig import agents as ag
from edgemig.bus import BusMessage, MessageKind
from edgemig.errors import MissingFlowError
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
        task_id="t1", container_id="t1", source="src", destination="dst",
        client="cli", orchestrator="orc", strategy=strategy,
        iterations=iterations, latency_s=0.0, flow_update_s=0.004,
        watchdog_s=30.0, ns_config="netns:t1",
        connection=("tcp", "cli", 40001, "src", 5201))


def task_message(info):
    return ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.task_topic(info.task_id),
        sender="orc", headers={"task": info}))


def ns_query(info):
    return ag.MessageEvent(BusMessage(
        kind=MessageKind.QUERY, topic=ag.nsconfig_topic(info.task_id),
        sender="dst"))


def sends(actions):
    return [a.message for a in actions if isinstance(a, ag.Send)]


def works(actions):
    return [a for a in actions if isinstance(a, ag.StartWork)]


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
    assert work.sizing is ag.WorkSizing.FULL_STATE


def test_source_cold_goes_straight_to_stop_copy():
    info = task_info(StrategyKind.COLD, 0)
    state, actions = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                                task_message(info))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    [work] = works(actions)
    assert work.kind is ag.WorkKind.STOP_CHECKPOINT
    assert work.sizing is ag.WorkSizing.FULL_STATE


def test_source_initial_image_waits_for_query_and_checkpoint():
    """Whichever of {query, checkpoint end} lands second starts the copy."""
    info = task_info()
    idle = ag.idle_agent(ag.Role.SOURCE, "src")

    # Order A: query first, then checkpoint completion.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(state, ns_query(info))
    assert works(actions) == [] and sends(actions) == []
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_INITIAL and work.bytes == M

    # Order B: checkpoint completes first, query afterwards.
    state, _ = ag.advance(idle, task_message(info))
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
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
        state, ag.WorkDone(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.TRANSFER_INITIAL, bytes=float(M)))
    # The namespace reply carries the initial image; round 1 begins.
    [reply] = sends(actions)
    assert reply.kind is MessageKind.REPLY
    assert reply.payload_bytes == M
    assert reply.headers["ns_config"] == "netns:t1"
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 1)
    [work] = works(actions)
    assert work.kind is ag.WorkKind.ROUND_CHECKPOINT
    assert work.sizing is ag.WorkSizing.DIRTY_SET

    # Round 1: checkpoint done -> ready published, wait for the pull.
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.ROUND_CHECKPOINT, bytes=8192.0, round=1))
    [ready] = sends(actions)
    assert ready.topic == ag.round_ready_topic("t1", 1)
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    pull = ag.MessageEvent(BusMessage(
        kind=MessageKind.QUERY, topic=ag.round_image_topic("t1", 1),
        sender="dst"))
    state, actions = ag.advance(state, pull)
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_ROUND and work.bytes == 8192.0
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.TRANSFER_ROUND, bytes=8192.0, round=1))
    [reply] = sends(actions)
    assert reply.correlation_id == ag.round_image_topic("t1", 1)
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 2)

    # Round 2 ends the pre-copy: next comes the stop-and-copy checkpoint.
    state, _ = ag.advance(
        state, ag.WorkDone(ag.WorkKind.ROUND_CHECKPOINT, bytes=4096.0, round=2))
    pull2 = ag.MessageEvent(BusMessage(
        kind=MessageKind.QUERY, topic=ag.round_image_topic("t1", 2),
        sender="dst"))
    state, _ = ag.advance(state, pull2)
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.TRANSFER_ROUND, bytes=4096.0, round=2))
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    [work] = works(actions)
    assert work.kind is ag.WorkKind.STOP_CHECKPOINT
    assert work.sizing is ag.WorkSizing.DIRTY_PLUS_CONTEXT

    # Stop-and-copy: checkpoint, transfer, push, namespace clear, done.
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.STOP_CHECKPOINT, bytes=20480.0))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.TRANSFER_STOPCOPY and work.bytes == 20480.0
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.TRANSFER_STOPCOPY, bytes=20480.0))
    [push] = sends(actions)
    assert push.topic == ag.stopcopy_topic("t1")
    assert push.payload_bytes == 20480.0
    assert state.phase.kind is ag.PhaseKind.NAMESPACE_TRANSITION
    state, actions = ag.advance(state,
                                ag.WorkDone(ag.WorkKind.NS_CLEAR, bytes=0.0))
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
    bogus = ag.WorkDone(ag.WorkKind.RESTORE, bytes=1.0)
    state, actions = ag.advance(state, bogus)
    assert state.phase.kind is ag.PhaseKind.FAILED
    assert any(isinstance(a, ag.Diagnostic) for a in actions)


def test_source_watchdog_and_stale_timers():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.PRE_CHECKPOINT, bytes=float(M)))
    [timer] = timers(actions)
    # A stale token is ignored outright.
    state2, actions2 = ag.advance(state, ag.TimerFired("src:guard:notarmed"))
    assert state2 == state and actions2 == []
    # The armed token diagnoses the stall.
    state3, _ = ag.advance(state, ag.TimerFired(timer.token))
    assert state3.phase.kind is ag.PhaseKind.FAILED
    assert "timed out" in state3.diagnostic


def test_terminal_phases_absorb_everything():
    info = task_info()
    state, _ = ag.advance(ag.idle_agent(ag.Role.SOURCE, "src"),
                          task_message(info))
    failed, _ = ag.advance(state, ag.WorkDone(ag.WorkKind.RESTORE))
    assert failed.phase.kind is ag.PhaseKind.FAILED
    after, actions = ag.advance(failed, ns_query(info))
    assert after == failed and actions == []


# ---------------------------------------------------------------------------
# Destination


def ns_reply(info, payload=0.0):
    return ag.MessageEvent(BusMessage(
        kind=MessageKind.REPLY, topic=ag.nsconfig_topic(info.task_id),
        sender="src", payload_bytes=payload,
        correlation_id=ag.nsconfig_topic(info.task_id),
        headers={"ns_config": "netns:t1", "image_bytes": payload}))


def sc_push(info, payload=20480.0):
    return ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.stopcopy_topic(info.task_id),
        sender="src", payload_bytes=payload,
        headers={"image_bytes": payload}))


def test_destination_queries_namespace_config_on_task():
    info = task_info()
    state, actions = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                                task_message(info))
    [query] = sends(actions)
    assert query.kind is MessageKind.QUERY
    assert query.topic == ag.nsconfig_topic("t1")
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 0)
    assert timers(actions)


def test_destination_full_walk_with_restore_timer():
    info = task_info(iterations=1)
    state, _ = ag.advance(ag.idle_agent(ag.Role.DESTINATION, "dst"),
                          task_message(info))
    state, _ = ag.advance(state, ns_reply(info, payload=float(M)))
    assert state.phase == ag.Phase(ag.PhaseKind.PRE_COPY_ROUND, 1)
    ready = ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.round_ready_topic("t1", 1),
        sender="src", headers={"round": 1, "image_bytes": 8192.0}))
    state, actions = ag.advance(state, ready)
    [pull] = sends(actions)
    assert pull.kind is MessageKind.QUERY
    assert pull.topic == ag.round_image_topic("t1", 1)
    assert state.phase == ag.Phase(ag.PhaseKind.AWAIT_IMAGE_PULL, 1)
    image = ag.MessageEvent(BusMessage(
        kind=MessageKind.REPLY, topic=ag.round_image_topic("t1", 1),
        sender="src", payload_bytes=8192.0,
        correlation_id=ag.round_image_topic("t1", 1),
        headers={"round": 1, "image_bytes": 8192.0}))
    state, actions = ag.advance(state, image)
    assert state.phase.kind is ag.PhaseKind.STOP_COPY_CHECKPOINT
    [guard] = timers(actions)

    state, actions = ag.advance(state, sc_push(info))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.NS_RECREATE
    assert state.phase.kind is ag.PhaseKind.NAMESPACE_TRANSITION
    # The image is here, so the watchdog armed for it no longer fires.
    assert ag.advance(state, ag.TimerFired(guard.token)) == (state, [])

    state, actions = ag.advance(state,
                                ag.WorkDone(ag.WorkKind.NS_RECREATE))
    [msg] = sends(actions)
    assert msg.topic == ag.ns_ready_topic("t1")
    [timer] = timers(actions)
    # Restore waits for the flow update to settle: one propagation delay
    # plus the update cost.
    assert timer.delay_s == pytest.approx(info.latency_s + info.flow_update_s)
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE

    state, actions = ag.advance(state, ag.TimerFired(timer.token))
    [work] = works(actions)
    assert work.kind is ag.WorkKind.RESTORE and work.bytes == 20480.0
    state, actions = ag.advance(
        state, ag.WorkDone(ag.WorkKind.RESTORE, bytes=20480.0))
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
    assert state.flow_table.entries[info.connection] == "src"
    ns_ready = ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.ns_ready_topic("t1"), sender="dst"))
    state, actions = ag.advance(state, ns_ready)
    assert sends(actions) == []
    [work] = works(actions)
    assert work.kind is ag.WorkKind.FLOW_UPDATE
    state, actions = ag.advance(state, ag.WorkDone(ag.WorkKind.FLOW_UPDATE))
    # Transparency: the client's only externally visible action is the
    # redirected flow entry -- not a single bus message along the way.
    assert sends(actions) == []
    assert state.flow_table.entries[info.connection] == "dst"
    assert state.phase.kind is ag.PhaseKind.DONE


def test_flow_table_is_functional():
    table = ag.FlowTable(entries={("tcp", "c", 1, "a", 2): "a"})
    updated = ag.update_flow(table, ("tcp", "c", 1, "a", 2), "b")
    assert updated.entries[("tcp", "c", 1, "a", 2)] == "b"
    assert table.entries[("tcp", "c", 1, "a", 2)] == "a"  # original intact
    with pytest.raises(MissingFlowError):
        ag.update_flow(table, ("udp", "x", 9, "y", 9), "b")


# ---------------------------------------------------------------------------
# Orchestrator


def test_orchestrator_lifecycle():
    info = task_info()
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
    state, actions = ag.advance(state, ag.Kickoff())
    [pub] = sends(actions)
    assert pub.topic == ag.task_topic("t1")
    assert pub.headers == {"task": info}

    started = ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.started_topic("t1"), sender="src"))
    state, _ = ag.advance(state, started)
    assert state.phase.kind is ag.PhaseKind.AWAIT_RESTORE

    done = ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.done_topic("t1"), sender="dst"))
    state, actions = ag.advance(state, done)
    assert state.phase.kind is ag.PhaseKind.DONE
    assert actions == []


def test_orchestrator_collects_failures():
    info = task_info()
    state = ag.AgentState(role=ag.Role.ORCHESTRATOR, agent_id="orc", info=info)
    state, _ = ag.advance(state, ag.Kickoff())
    failure = ag.MessageEvent(BusMessage(
        kind=MessageKind.PUBLISH, topic=ag.failed_topic("t1", ag.Role.CLIENT),
        sender="cli", headers={"reason": "timed out waiting in phase idle"}))
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
