"""Simulation tests: dirty-page process, protocol traces, fault handling.

The scenario builder below constructs a four-host topology in memory so
each test can tweak rates, sizes, and strategies without JSON fixtures.
"""

import math

import numpy as np
import pytest

from edgemig import simnet
from edgemig.bus import BusMessage, MessageKind
from edgemig.errors import DomainError, ScenarioError
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    strategy_kpis,
)
from edgemig.orchestrator import MigrationConfig, MigrationTask, Objective
from edgemig.scenario import Host, Link, Scenario, SimProfile, TaskSection
from edgemig.simnet import (
    DelayRule,
    DropRule,
    dirty_set_size,
    run_scenario,
)

GBPS = 1000.0 * BYTES_PER_S_PER_MBPS

PARAMS = ModelParams(
    ckpt_fixed_s=0.5, pre_ckpt_fixed_s=0.5, restore_fixed_s=0.35,
    transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)


def make_scenario(*, state_bytes=10_485_760, dirty_norm=4 / 2559,
                  dirty_rate=0.0, params=PARAMS, seed=7, latency_s=0.0,
                  bandwidth_mbps=1000.0):
    profile = MsProfile(state_size_bytes=state_bytes,
                        dirty_rate_norm=dirty_norm)
    task = MigrationTask(
        container_id="ms-0", source_agent="a", destination_agent="b",
        objective=Objective.MINIMIZE_DOWNTIME, target_duration_s=30.0)
    return Scenario(
        seed=seed,
        hosts=(Host("a", "source"), Host("b", "destination"),
               Host("c", "client"), Host("o", "orchestrator")),
        links=(Link("a", "b", bandwidth_mbps, latency_s),
               Link("b", "c", bandwidth_mbps, latency_s),
               Link("a", "c", bandwidth_mbps, latency_s)),
        ms_profiles=(SimProfile("p0", profile, dirty_rate),),
        model_params=params,
        task=TaskSection(task=task, client="c", orchestrator="o",
                         ms_profile_id="p0"))


def make_config(scenario, strategy, iterations=0, bandwidth=GBPS):
    profile = scenario.ms_profiles[0].profile
    choice = StrategyChoice(strategy, iterations)
    predicted = strategy_kpis(profile, scenario.model_params, bandwidth,
                              choice)
    return MigrationConfig(strategy=choice, bandwidth_bytes_per_s=bandwidth,
                           predicted=predicted, target_met=True)


# ---------------------------------------------------------------------------
# Dirty-page process


def test_dirty_set_size_zero_rate_or_window():
    assert dirty_set_size(0.0, 5.0, 1000, 1) == 0
    assert dirty_set_size(8.0, 0.0, 1000, 1) == 0


def test_dirty_set_mean_matches_saturating_expectation():
    rate, window, pages = 40.0, 2.0, 256
    rng = np.random.default_rng(99)
    draws = [dirty_set_size(rate, window, pages, rng) for _ in range(4000)]
    expected = pages * (1.0 - math.exp(-rate * window / pages))
    assert np.mean(draws) == pytest.approx(expected, rel=0.02)
    assert max(draws) <= pages


def test_dirty_set_saturates_under_heavy_writing():
    # Expected writes >> 64 * pages short-circuits to full saturation.
    assert dirty_set_size(1e9, 10.0, 128, 3) == 128


def test_dirty_set_validation():
    with pytest.raises(DomainError):
        dirty_set_size(-1.0, 1.0, 10, 0)
    with pytest.raises(DomainError):
        dirty_set_size(1.0, -1.0, 10, 0)
    with pytest.raises(DomainError):
        dirty_set_size(1.0, 1.0, 0, 0)


# ---------------------------------------------------------------------------
# Happy-path runs


def test_zero_dirty_run_matches_analytic_kpis():
    # Both the declared worst case and the actual process are zero, so the
    # worst-case predictor and the measured run must coincide exactly.
    scenario = make_scenario(dirty_norm=0.0, dirty_rate=0.0)
    for strategy, iters in [(StrategyKind.COLD, 0),
                            (StrategyKind.PRE_COPY, 0),
                            (StrategyKind.ITERATIVE_PRE_COPY, 5)]:
        config = make_config(scenario, strategy, iters)
        outcome = run_scenario(scenario, config)
        assert outcome.completed
        assert outcome.downtime_s == pytest.approx(
            config.predicted.downtime_s, rel=1e-9)
        assert outcome.total_s == pytest.approx(
            config.predicted.total_s, rel=1e-9)
        assert outcome.bytes_transferred == pytest.approx(
            config.predicted.bytes_transferred, rel=1e-9)


@pytest.mark.parametrize("strategy,iters,expected", [
    (StrategyKind.COLD, 0, 7),
    (StrategyKind.PRE_COPY, 0, 7),
    (StrategyKind.ITERATIVE_PRE_COPY, 1, 10),
    (StrategyKind.ITERATIVE_PRE_COPY, 3, 16),
])
def test_message_count_is_seven_plus_three_per_round(strategy, iters,
                                                     expected):
    scenario = make_scenario(dirty_rate=2.0)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    assert outcome.message_count == expected


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 3),
])
def test_every_sent_message_has_a_receiver(monkeypatch, strategy, iters):
    routed = []
    receivers = simnet._Sim._receivers

    def spy(self, msg):
        result = receivers(self, msg)
        routed.append((msg, result))
        return result

    monkeypatch.setattr(simnet._Sim, "_receivers", spy)
    scenario = make_scenario(dirty_rate=2.0)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    assert len(routed) == outcome.message_count == 7 + 3 * iters
    assert all(result for _, result in routed)
    # Every reply goes back to the destination, the only querier.
    assert all(result == ["b"] for msg, result in routed
               if msg.kind is MessageKind.REPLY)


def test_publication_without_subscribers_is_not_dropped_silently():
    scenario = make_scenario()
    sim = simnet._Sim(scenario, make_config(scenario, StrategyKind.COLD),
                      (), None, False)
    with pytest.raises(KeyError):
        sim._send(BusMessage(kind=MessageKind.PUBLISH,
                             topic="mig/ms-0/source/unknown", sender="a"))


def _message_times(outcome, predicate):
    times = []
    for ev in outcome.events:
        if ev.event.get("type") != "message":
            continue
        if predicate(ev.event):
            times.append(ev.time_s)
    return times


def test_trace_happens_before_invariants():
    scenario = make_scenario(dirty_rate=2.0)
    config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 3)
    outcome = run_scenario(scenario, config)
    assert outcome.completed

    work_spans = {}
    for ev in outcome.events:
        for act in ev.actions:
            if "work" in act:
                key = (ev.agent, act["work"])
                start = ev.time_s
                work_spans.setdefault(key, []).append(
                    (start, start + act["duration_s"]))

    ckpt_end = work_spans[("a", "stop_checkpoint")][0][1]
    transfer = work_spans[("a", "transfer_stopcopy")][0]
    flow = work_spans[("c", "flow_update")][0]
    restore = work_spans[("b", "restore")][0]
    # Checkpoint completes before the stop-and-copy transfer starts, the
    # flow update precedes the restore, and the restore is last.
    assert ckpt_end <= transfer[0] + 1e-12
    assert transfer[1] <= flow[0] + 1e-12
    assert flow[1] <= restore[0] + 1e-12

    # Exactly I image pulls happen, all before the stop-copy push.
    pulls = _message_times(
        outcome,
        lambda e: e["kind"] == "query" and "/round/" in e["topic"]
        and e["topic"].endswith("/image"))
    [push_time] = _message_times(
        outcome, lambda e: "/stopcopy" in e["topic"] and e["kind"] == "publish")
    assert len(pulls) == 3
    assert all(t < push_time for t in pulls)


def test_bytes_accounting_matches_event_log():
    scenario = make_scenario(dirty_rate=3.0, seed=11)
    config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 4)
    outcome = run_scenario(scenario, config)
    assert outcome.completed

    moved = 0.0
    for ev in outcome.events:
        if ev.agent != "a":
            continue
        for act in ev.actions:
            if act.get("work", "").startswith("transfer"):
                moved += act["bytes"]
    assert outcome.bytes_transferred == pytest.approx(moved)
    assert outcome.bytes_transferred >= scenario.ms_profiles[0].profile.state_size_bytes


def test_dirty_runs_stay_within_worst_case_bounds():
    # The profiled (declared) rate dominates the actual write rate, so the
    # analytic prediction is a sound upper bound on 20 resampled runs.
    for seed in range(20):
        scenario = make_scenario(dirty_rate=0.4, seed=seed)
        config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 4)
        outcome = run_scenario(scenario, config)
        assert outcome.completed
        assert outcome.downtime_s <= config.predicted.downtime_s * (1 + 1e-9)
        assert outcome.total_s <= config.predicted.total_s * (1 + 1e-9)


def test_latency_delays_but_does_not_break_protocol():
    scenario = make_scenario(dirty_rate=1.0, latency_s=0.002)
    config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 2)
    outcome = run_scenario(scenario, config)
    assert outcome.completed
    assert outcome.total_s > config.predicted.total_s  # latency adds up


def test_event_log_written_as_json_lines(tmp_path):
    import json

    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    log = tmp_path / "events.jsonl"
    run_scenario(scenario, config, event_log_path=log)
    lines = log.read_text().splitlines()
    assert len(lines) > 10
    seqs = [json.loads(line)["seq"] for line in lines]
    assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# Determinism


def test_identical_seeds_reproduce_traces_exactly():
    outcomes = []
    for _ in range(2):
        scenario = make_scenario(dirty_rate=3.0, seed=42)
        config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 6)
        outcomes.append(run_scenario(scenario, config))
    a, b = outcomes
    assert a.downtime_s == b.downtime_s
    assert a.bytes_transferred == b.bytes_transferred
    assert [e.to_json_line() for e in a.events] == \
        [e.to_json_line() for e in b.events]


def test_different_seeds_differ():
    results = set()
    for seed in range(6):
        scenario = make_scenario(dirty_rate=3.0, seed=seed)
        config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 6)
        results.add(run_scenario(scenario, config).bytes_transferred)
    assert len(results) > 1


# ---------------------------------------------------------------------------
# Faults and validation


def test_dropped_stopcopy_image_fails_cleanly():
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    outcome = run_scenario(scenario, config,
                           fault_rules=(DropRule("stopcopy"),),
                           watchdog_s=5.0)
    assert not outcome.completed
    assert outcome.downtime_s is None
    assert outcome.diagnostics  # someone explains what went wrong
    assert any("timed out" in d for d in outcome.diagnostics.values())
    assert "failed" in set(outcome.final_phases.values())


def test_dropped_task_announcement_fails_cleanly():
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.COLD)
    outcome = run_scenario(scenario, config,
                           fault_rules=(DropRule("/task", receiver="a"),),
                           watchdog_s=4.0)
    assert not outcome.completed
    assert outcome.diagnostics


def test_delay_beyond_watchdog_fails_cleanly():
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    outcome = run_scenario(
        scenario, config,
        fault_rules=(DelayRule("nsconfig", delay_s=60.0),),
        watchdog_s=3.0)
    assert not outcome.completed
    assert any("timed out" in d for d in outcome.diagnostics.values())


def test_config_bandwidth_must_fit_the_link():
    scenario = make_scenario(bandwidth_mbps=100.0)
    config = make_config(scenario, StrategyKind.COLD, bandwidth=GBPS)
    with pytest.raises(ScenarioError):
        run_scenario(scenario, config)


def test_missing_task_section_is_rejected():
    scenario = make_scenario()
    bare = Scenario(seed=1, hosts=scenario.hosts, links=scenario.links,
                    ms_profiles=scenario.ms_profiles,
                    model_params=scenario.model_params)
    config = make_config(scenario, StrategyKind.COLD)
    with pytest.raises(ScenarioError):
        run_scenario(bare, config)
