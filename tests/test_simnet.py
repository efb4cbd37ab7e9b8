"""Simulation tests: dirty-page process, protocol traces, fault handling.

The scenario builder below constructs a four-host topology in memory so
each test can tweak rates, sizes, and strategies without JSON fixtures.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgemig import agents, simnet
from edgemig.bus import BusMessage, MessageKind
from edgemig.errors import DomainError, ScenarioError
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    cold_kpis,
    precopy_kpis,
)
from edgemig.orchestrator import MigrationConfig, MigrationTask, Objective
from edgemig.scenario import (
    Host,
    Link,
    Scenario,
    SimProfile,
    TaskSection,
    load_scenario,
)
from edgemig.simnet import (
    DelayRule,
    DropRule,
    dirty_set_size,
    plan_from_scenario,
    run_scenario,
)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "scenario.json"

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
    if strategy is StrategyKind.COLD:
        predicted = cold_kpis(profile, scenario.model_params, bandwidth)
    else:
        predicted = precopy_kpis(profile, scenario.model_params, bandwidth,
                                 iterations)
    return MigrationConfig(strategy=choice, bandwidth_bytes_per_s=bandwidth,
                           predicted=predicted, target_met=True)


# ---------------------------------------------------------------------------
# Dirty-page process


def test_dirty_set_size_zero_rate_or_window():
    assert dirty_set_size(0.0, 5.0, 1000, 1) == 0
    assert dirty_set_size(8.0, 0.0, 1000, random.Random(1)) == 0
    # numpy scalars are numbers like any other, a seed included.
    assert dirty_set_size(np.int64(0), np.float32(5.0), np.int64(1000),
                          np.int64(1)) == 0


def test_dirty_set_mean_matches_saturating_expectation():
    rate, window, pages = 40.0, 2.0, 256
    rng = random.Random(99)
    draws = [dirty_set_size(rate, window, pages, rng) for _ in range(4000)]
    expected = pages * (1.0 - math.exp(-rate * window / pages))
    assert np.mean(draws) == pytest.approx(expected, rel=0.02)
    assert max(draws) <= pages


def test_dirty_set_saturates_under_heavy_writing():
    # Past ~37 expected writes per page, 1 - exp(-writes / pages) rounds
    # to 1.0, so the binomial draw returns every page.
    assert dirty_set_size(1e9, 10.0, 128, 3) == 128
    # So does a mean of writes far beyond any page count.
    assert dirty_set_size(1e30, 1.0, 128, random.Random(0)) == 128


def test_dirty_set_validation():
    with pytest.raises(DomainError, match="rate_pages_per_s"):
        dirty_set_size(-1.0, 1.0, 10, 0)
    with pytest.raises(DomainError, match="window_s"):
        dirty_set_size(1.0, -1.0, 10, 0)
    with pytest.raises(DomainError, match="total_pages"):
        dirty_set_size(1.0, 1.0, 0, 0)
    # A generator or a seed: not numpy's generator, nor a negative seed.
    for rng in (np.random.default_rng(0), -1, 1.5):
        with pytest.raises(DomainError, match="rng"):
            dirty_set_size(1.0, 1.0, 10, rng)


@pytest.mark.parametrize("rate, window, pages, name", [
    (math.nan, 1.0, 10, "rate_pages_per_s"),
    (1.0, math.nan, 10, "window_s"),
    (math.inf, 0.0, 10, "rate_pages_per_s"),
    (1.0, math.inf, 10, "window_s"),
    (True, 1.0, 10, "rate_pages_per_s"),
    (1.0, 1.0, 10.5, "total_pages"),
    (1.0, 1.0, True, "total_pages"),
    (1.0, 1.0, 2 ** 63, "total_pages"),  # past the page bound
])
def test_dirty_set_rejects_non_finite_or_fractional_input(rate, window,
                                                          pages, name):
    # A binomial draw would truncate a fractional or boolean page count,
    # and a NaN would fail deep inside the sampler, naming no argument.
    with pytest.raises(DomainError, match=name):
        dirty_set_size(rate, window, pages, 0)


def _write_level_dirty_set(rate, window, pages, rng):
    """The dirtying process drawn write by write: the sampler's oracle."""
    writes = rng.poisson(rate * window)
    return np.unique(rng.integers(0, pages, size=writes)).size


@pytest.mark.parametrize("rate, pages", [
    (13.0, 256),      # ~5% of the pages dirty
    (177.0, 256),     # about half
    (1000.0, 1000),   # ~63%, a page count that is not a power of two
    (1200.0, 256),    # near saturation
])
def test_dirty_set_law_matches_the_write_level_process(rate, pages):
    # Poisson splitting makes the distinct count Binomial(P, p) with
    # p = 1 - exp(-rate * window / P). The write-level process and the
    # sampler must both show its mean and variance.
    window, n = 1.0, 20_000
    p = -math.expm1(-rate * window / pages)
    mean, var = pages * p, pages * p * (1.0 - p)
    # Standard errors of a sample mean and variance of n binomial draws,
    # the latter from the binomial's fourth central moment.
    mu4 = pages * p * (1 - p) * (1 + 3 * (pages - 2) * p * (1 - p))
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt((mu4 - var ** 2 * (n - 3) / (n - 1)) / n)
    rng = np.random.default_rng(2026)
    oracle = np.array([_write_level_dirty_set(rate, window, pages, rng)
                       for _ in range(n)])
    generator = random.Random(2026)
    sampled = np.array([dirty_set_size(rate, window, pages, generator)
                        for _ in range(n)])
    for draws in (oracle, sampled):
        assert abs(draws.mean() - mean) < 4 * se_mean
        assert abs(draws.var(ddof=1) - var) < 4 * se_var
    assert abs(oracle.mean() - sampled.mean()) < 4 * math.sqrt(2) * se_mean
    assert abs(oracle.var(ddof=1) - sampled.var(ddof=1)) \
        < 4 * math.sqrt(2) * se_var


@pytest.mark.parametrize("n, p", [
    (1000, 0.005),        # a mean of 5: the geometric method
    (25, 0.45),           # a mean of 11.25: BTRS, just past its threshold
    (262_144, 0.7),       # p > 0.5: the clean pages are drawn
    (2**53, 0.25),        # BTRS at the largest n whose counts floats hold
    (2**62, 1e-18),       # the geometric method near the page bound
    (2**62, 1e-17),       # BTRS there
    (2**62, 1 - 2**-53),  # BTRS there, on the clean pages
    (2**62, 0.0), (2**62, 1.0), (2**62, 5e-324),  # p = 0, 1, subnormal
])
def test_binomial_draws_fit_the_binomial_law(n, p):
    # scipy's law is the oracle, by a chi-squared test over about ten bins
    # of the count of the less likely outcome. Its cdf fails past 2**53
    # at a large mean, so at 2**62 that count stays small.
    from scipy import stats

    draws, clean = 50_000, p > 0.5
    law = stats.binom(n, 1.0 - p if clean else p)
    uniform = random.Random(f"{n}/{p}").random
    counts = [simnet._binomial(uniform, n, p) for _ in range(draws)]
    counts = np.array([n - k for k in counts] if clean else counts, float)
    if law.std() < 1e-9:  # all but surely 0
        assert not counts.any()
        return
    edges = np.floor(law.mean() + law.std() * np.linspace(-2.5, 2.5, 11))
    edges = np.unique(np.concatenate(([-1.0], edges.clip(-1, n), [n])))
    expected = np.diff(law.cdf(edges)) * draws
    observed = np.histogram(counts, edges + 0.5)[0]
    assert observed.sum() == draws and expected.min() > 100
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, len(expected) - 1) > 0.001


def test_a_seed_fixes_the_draws_of_each_method():
    # The stream of random.Random, which Python keeps for a seed, through
    # the geometric method (a mean of 4), BTRS (8.3e4) and BTRS on the
    # clean pages (p = 0.978).
    rng = random.Random(2026)
    assert [dirty_set_size(4.0, 1.0, 2**18, rng) for _ in range(6)] == [
        6, 3, 3, 4, 4, 1]
    assert [dirty_set_size(1e5, 1.0, 2**18, rng) for _ in range(6)] == [
        82716, 83176, 83109, 83281, 83044, 83068]
    assert [dirty_set_size(1e6, 1.0, 2**18, rng) for _ in range(6)] == [
        256366, 256364, 256344, 256239, 256382, 256370]
    # A seed draws as a new generator of that seed.
    assert [dirty_set_size(1e5, 1.0, 2**18, 2026 + i) for i in range(3)] \
        == [dirty_set_size(1e5, 1.0, 2**18, random.Random(2026 + i))
            for i in range(3)] == [82812, 82793, 83037]


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
    *((StrategyKind.ITERATIVE_PRE_COPY, i) for i in range(1, 9)),
])
def test_event_count_is_sixteen_cold_else_eighteen_plus_five_per_round(
        monkeypatch, strategy, iters):
    # Every event of a clean run goes through one agents.advance call.
    calls = []
    advance = simnet.ag.advance

    def spy(state, event):
        calls.append(event)
        return advance(state, event)

    monkeypatch.setattr(simnet.ag, "advance", spy)
    scenario = make_scenario(dirty_rate=2.0)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    expected = 16 if strategy is StrategyKind.COLD else 18 + 5 * iters
    assert len(calls) == len(outcome.events) == expected


def _renamed(scenario, names):
    """``scenario`` with every host id mapped through ``names``."""
    section = scenario.task
    task = section.task._replace(
        source_agent=names[section.task.source_agent],
        destination_agent=names[section.task.destination_agent])
    return scenario._replace(
        hosts=tuple(h._replace(id=names[h.id]) for h in scenario.hosts),
        links=tuple(link._replace(from_host=names[link.from_host],
                                  to_host=names[link.to_host])
                    for link in scenario.links),
        task=section._replace(task=task, client=names[section.client],
                              orchestrator=names[section.orchestrator]))


def test_routing_table_is_shared_read_only_and_bounded():
    base = make_scenario(dirty_rate=2.0, latency_s=0.002)
    moved = _renamed(base, {"a": "x", "b": "y", "c": "z", "o": "w"})
    runs = [(base, 3), (base, 1), (moved, 3), (base, 3), (moved, 2),
            (moved, 3)]

    def run(scenario, iters):
        return run_scenario(scenario, make_config(
            scenario, StrategyKind.ITERATIVE_PRE_COPY, iters))

    fresh = []
    for scenario, iters in runs:
        agents.compile_protocol.cache_clear()
        fresh.append(run(scenario, iters))
    # Back to back, later runs reuse the protocols of earlier ones: one
    # compile per distinct task, shared by the router and every agent.
    agents.compile_protocol.cache_clear()
    for (scenario, iters), alone in zip(runs, fresh):
        outcome = run(scenario, iters)
        assert outcome.completed
        assert outcome.message_count == 7 + 3 * iters
        assert outcome == alone
    assert {ev.agent for ev in outcome.events} == {"x", "y", "z", "w"}
    assert agents.compile_protocol.cache_info().misses == 4

    routes = simnet._Sim(base, make_config(base, StrategyKind.PRE_COPY),
                         (), False).subscribers
    with pytest.raises(TypeError):
        routes[next(iter(routes))] = ("a",)
    assert all(type(ids) is tuple for ids in routes.values())
    info = agents.compile_protocol.cache_info()
    assert info.misses == 5  # a fifth task
    assert info.maxsize is not None and 0 < info.maxsize <= 1024
    assert info.currsize <= info.maxsize


def test_run_setting_is_shared_read_only_and_bounded():
    base = make_scenario(dirty_rate=2.0, latency_s=0.002)
    first, *rest = base.links
    slower = base._replace(links=(first._replace(latency_s=0.005), *rest))
    narrower = base._replace(
        links=(first._replace(bandwidth_mbps=500.0), *rest))
    smaller = make_scenario(dirty_rate=2.0, latency_s=0.002,
                            state_bytes=1_048_576)
    costlier = make_scenario(dirty_rate=2.0, latency_s=0.002, params=(
        PARAMS._replace(flow_update_s=0.02)))
    moved = _renamed(base, {"a": "x", "b": "y", "c": "z", "o": "w"})
    # Equal by value (a new build, another seed) shares base's setting.
    again = make_scenario(dirty_rate=2.0, latency_s=0.002, seed=8)
    runs = [base, slower, base, narrower, smaller, costlier, moved, again,
            moved, slower]

    def run(scenario):
        config = plan_from_scenario(scenario)
        return config, run_scenario(scenario, config)

    fresh = []
    for scenario in runs:
        simnet._run_setting.cache_clear()
        fresh.append(run(scenario))
    # Back to back, later plans and runs reuse the settings of earlier ones.
    simnet._run_setting.cache_clear()
    for scenario, alone in zip(runs, fresh):
        assert run(scenario) == alone
        assert alone[1].completed
    assert len({outcome.end_time_s for _, outcome in fresh}) >= 5
    # A plan and its run look the setting up once each; six keys.
    assert simnet._run_setting.cache_info().hits == 2 * len(runs) - 6

    assert simnet._setting(base) is simnet._setting(again)
    latency = simnet._Sim(base, make_config(base, StrategyKind.COLD), (),
                          False).latency
    assert latency["a"]["b"] == 0.002 and latency["o"]["a"] == 0.0
    with pytest.raises(TypeError):
        latency["a"]["b"] = 0.0
    with pytest.raises(TypeError):
        latency["a"] = {}
    info = simnet._run_setting.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 1024
    assert info.currsize <= info.maxsize


def test_cold_run_makes_no_generator(monkeypatch):
    def no_generator(*args, **kwargs):
        raise RuntimeError("Random called")

    scenario = make_scenario(dirty_rate=2.0)
    monkeypatch.setattr(simnet.random, "Random", no_generator)
    cold = run_scenario(scenario, make_config(scenario, StrategyKind.COLD))
    assert cold.completed and cold.message_count == 7
    # The first dirty draw makes it.
    with pytest.raises(RuntimeError, match="Random called"):
        run_scenario(scenario, make_config(scenario, StrategyKind.PRE_COPY))


def test_a_stream_draws_from_its_own_seed():
    scenario = make_scenario(dirty_rate=2.0)
    config = make_config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 3)
    seed = int(random.Random(f"{scenario.seed}/4/1").random() * 2**53)
    alone = scenario._replace(seed=seed)
    assert run_scenario(scenario, config, stream=(4, 1)) \
        == run_scenario(alone, config) != run_scenario(scenario, config)


@pytest.mark.parametrize("stream", [(-1,), (0, 1.5), (True,)])
def test_stream_index_must_be_a_whole_number(stream):
    scenario = make_scenario(dirty_rate=2.0)
    config = make_config(scenario, StrategyKind.PRE_COPY)
    with pytest.raises(DomainError, match="stream must be a whole number"):
        run_scenario(scenario, config, stream=stream)


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 3),
])
def test_every_sent_message_has_a_receiver(monkeypatch, strategy, iters):
    routed = []
    send = simnet._Sim._send

    def spy(self, msg):
        routed.append((msg, self.subscribers[msg.kind, msg.topic]))
        send(self, msg)

    monkeypatch.setattr(simnet._Sim, "_send", spy)
    scenario = make_scenario(dirty_rate=2.0)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    assert len(routed) == outcome.message_count == 7 + 3 * iters
    assert all(result for _, result in routed)
    # Every reply goes back to the destination, the only querier.
    assert all(result == ("b",) for msg, result in routed
               if msg.kind is MessageKind.REPLY)


@pytest.mark.parametrize("latency_s", [0.0, 0.002])
@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    *((StrategyKind.ITERATIVE_PRE_COPY, i) for i in range(1, 9)),
])
def test_clean_run_sends_and_delivers_the_protocol_table(strategy, iters,
                                                         latency_s):
    scenario = make_scenario(dirty_rate=2.0, latency_s=latency_s)
    config = make_config(scenario, strategy, iters)
    info = simnet._Sim(scenario, config, (), False).info
    outcome = run_scenario(scenario, config)
    assert outcome.completed
    agent_of = dict(zip(simnet.ag.Role, "abco"))
    table = simnet.ag.clean_run(info)
    # Per sender, because the interleaving across senders depends on timing.
    sent, expected, delivered = {}, {}, {}
    for step in table:
        expected.setdefault(agent_of[step.sender], []).append(
            (step.kind.value, step.topic))
    for ev in outcome.events:
        for doc in ev.actions:
            if "send" in doc:
                sent.setdefault(ev.agent, []).append((doc["send"],
                                                      doc["topic"]))
        if ev.event["type"] == "message":
            delivered.setdefault((ev.event["kind"], ev.event["topic"]),
                                 []).append(ev.agent)
    assert sent == expected
    assert delivered == {
        (step.kind.value, step.topic): [agent_of[r] for r in step.receivers]
        for step in table}


def test_publication_without_subscribers_is_not_dropped_silently():
    scenario = make_scenario()
    sim = simnet._Sim(scenario, make_config(scenario, StrategyKind.COLD),
                      (), False)
    with pytest.raises(KeyError):
        sim._send(BusMessage(kind=MessageKind.PUBLISH,
                             topic="mig/ms-0/source/unknown", sender="a"))


def test_reply_on_an_unlisted_topic_is_not_dropped_silently():
    scenario = make_scenario()
    sim = simnet._Sim(scenario, make_config(scenario, StrategyKind.COLD),
                      (), False)
    with pytest.raises(KeyError):
        sim._send(BusMessage(kind=MessageKind.REPLY,
                             topic="mig/ms-0/source/unasked", sender="a"))


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 3),
])
def test_empty_state_runs_with_no_dirty_pages(strategy, iters):
    # Zero pages but a nonzero write rate: nothing can be dirtied.
    scenario = make_scenario(state_bytes=0, dirty_rate=2.0)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    assert outcome.dirty_pages_at_stopcopy == 0
    assert outcome.message_count == 7 + 3 * iters


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


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 3),
])
def test_work_bytes_follow_their_kind(strategy, iters):
    # Work items name only their kind; the simulator sizes each one.
    scenario = make_scenario(dirty_rate=200.0, seed=5)
    [sim_profile] = scenario.ms_profiles
    profile = sim_profile.profile._replace(cpu_context_bytes=1500)
    scenario = scenario._replace(ms_profiles=(
        sim_profile._replace(profile=profile),))
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed

    sized: dict[str, list[float]] = {}
    for ev in outcome.events:
        for act in ev.actions:
            if "work" in act:
                sized.setdefault(act["work"], []).append(act["bytes"])
    state = profile.state_size_bytes
    if strategy is StrategyKind.COLD:
        image = state
        assert "round_checkpoint" not in sized
    else:
        assert outcome.dirty_pages_at_stopcopy > 0
        image = (outcome.dirty_pages_at_stopcopy * profile.page_size_bytes
                 + profile.cpu_context_bytes)
        # Round 0 takes the whole state, each later round its dirty pages.
        assert sized["round_checkpoint"][0] == state
        assert len(sized["round_checkpoint"]) == iters + 1
    assert sized["stop_checkpoint"] == [image]
    assert sized["transfer_stopcopy"] == sized["stop_checkpoint"]
    assert sized.get("transfer_round") == sized.get("round_checkpoint")
    assert sized["restore"] == [image]


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


def test_cold_query_behind_a_slow_task_completes():
    # The task reaches edge-b 4.6 s after edge-a: a source that froze on its
    # task would be done before the query came. It freezes once asked.
    scenario = load_scenario(DEMO)
    task = scenario.task.task._replace(
        objective=Objective.MINIMIZE_RESOURCES, target_downtime_s=5.0)
    links = tuple(
        link._replace(latency_s=0.2)
        if {link.from_host, link.to_host} == {"edge-a", "edge-b"} else link
        for link in scenario.links)
    scenario = scenario._replace(
        links=(*links, Link("orchestrator", "edge-b", 1000.0, 4.6)),
        task=scenario.task._replace(task=task))
    config = plan_from_scenario(scenario)
    assert config.strategy.kind is StrategyKind.COLD
    outcome = run_scenario(scenario, config)
    assert outcome.completed
    assert outcome.message_count == 7
    assert outcome.downtime_s == pytest.approx(
        config.predicted.downtime_s + 0.2, rel=1e-9)
    assert outcome.total_s == pytest.approx(4.6 + 0.2 + outcome.downtime_s,
                                            rel=1e-9)


LATENCY = st.floats(0.0, 0.05)


@settings(max_examples=100, deadline=None)
@given(LATENCY, LATENCY, LATENCY, LATENCY, LATENCY, LATENCY)
def test_cold_latency_adds_the_pre_copy_hops(os_, od, oc, sd, sc, dc):
    # The source hears its task no later than the destination's query.
    assume(os_ <= od + sd)
    scenario = make_scenario()._replace(links=tuple(
        Link(a, b, 1000.0, latency) for a, b, latency in (
            ("o", "a", os_), ("o", "b", od), ("o", "c", oc),
            ("a", "b", sd), ("a", "c", sc), ("b", "c", dc))))
    config = make_config(scenario, StrategyKind.COLD)
    outcome = run_scenario(scenario, config)
    assert outcome.completed
    # Freeze on the query; the image, ns-ready and flow-updated each cross
    # one link inside the downtime window.
    assert outcome.downtime_s == pytest.approx(
        config.predicted.downtime_s + sd + dc + dc, rel=1e-9)
    assert outcome.total_s == pytest.approx(od + sd + outcome.downtime_s,
                                            rel=1e-9)


def _work_starts(outcome, agent, work):
    return [(ev.time_s, act["duration_s"]) for ev in outcome.events
            if ev.agent == agent for act in ev.actions
            if act.get("work") == work]


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 2),
])
def test_restore_starts_when_the_flow_update_ends(strategy, iters):
    # With link latency, the flow update starts one propagation delay after
    # ns-ready, and the restore (S6) starts when the client's word that it
    # has ended (S5) reaches the destination, one more delay later.
    latency_s = 0.002
    scenario = make_scenario(dirty_rate=1.0, latency_s=latency_s)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    [(flow_start, flow_s)] = _work_starts(outcome, "c", "flow_update")
    [(restore_start, _)] = _work_starts(outcome, "b", "restore")
    assert restore_start == flow_start + flow_s + latency_s


@pytest.mark.parametrize("strategy,iters", [
    (StrategyKind.COLD, 0),
    (StrategyKind.PRE_COPY, 0),
    (StrategyKind.ITERATIVE_PRE_COPY, 3),
])
def test_run_stops_once_every_agent_is_terminal(strategy, iters):
    scenario = make_scenario(dirty_rate=2.0, latency_s=0.002)
    outcome = run_scenario(scenario, make_config(scenario, strategy, iters))
    assert outcome.completed
    assert [ev for ev in outcome.events
            if ev.phase_before in ("done", "failed")] == []


# Topic fragments a fault rule can match: every publication and query of a
# run with up to four pre-copy rounds; a run with fewer rounds rejects a
# rule on a round it lacks. Delays are drawn in watchdog periods and scaled
# by the test, so that some outlast the watchdog.
FAULT_TOPICS = ("/task", "flow-updated", "nsconfig", "round/1/ready",
                "round/1/image", "round/2/ready", "round/4/image",
                "stopcopy", "ns-ready", "/done", "failed")
fault_rules = st.lists(st.one_of(
    st.builds(DropRule, st.sampled_from(FAULT_TOPICS), st.integers(1, 2),
              st.sampled_from([None, "a", "b", "c", "o"])),
    st.builds(DelayRule, st.sampled_from(FAULT_TOPICS),
              st.floats(0.0, 2.0), st.integers(1, 2),
              st.sampled_from([None, "a", "b", "c", "o"]))), max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.sampled_from([0.0, 0.001, 0.02]),
       st.booleans(), fault_rules)
def test_faulted_runs_end_completed_or_diagnosed(iters, latency_s, pre_copy,
                                                 rules):
    if iters:
        strategy = StrategyKind.ITERATIVE_PRE_COPY
    else:
        strategy = StrategyKind.PRE_COPY if pre_copy else StrategyKind.COLD
    scenario = make_scenario(dirty_rate=50.0, latency_s=latency_s)
    config = make_config(scenario, strategy, iters)
    watchdog_s = 10 * config.predicted.total_s + 10
    rules = [r._replace(delay_s=r.delay_s * watchdog_s)
             if isinstance(r, DelayRule) else r for r in rules]
    info = agents.TaskInfo("ms-0", "a", "b", "c", "o", strategy, iters,
                           "netns:ms-0")
    rows = [(step.kind.value, step.topic) for step in agents.clean_run(info)]
    unmatched = [r for r in rules
                 if not any(r.topic_contains in t for _, t in rows)]
    if unmatched:
        with pytest.raises(DomainError) as exc:
            run_scenario(scenario, config, fault_rules=rules)
        assert str(exc.value) == (f"{unmatched[0]!r}: no topic of the run "
                                  f"contains {unmatched[0].topic_contains!r}")
        return
    outcome = run_scenario(scenario, config, fault_rules=rules)
    if outcome.completed:
        assert set(outcome.final_phases.values()) == {"done"}
        assert outcome.downtime_s <= outcome.total_s
    else:
        assert outcome.diagnostics
        # The orchestrator never reports success for a run that failed.
        assert outcome.final_phases["o"] != "done"
        assert "o" in outcome.diagnostics
    assert outcome.end_time_s == outcome.events[-1].time_s
    # Every message sent is a row of the protocol table, none twice: a
    # fault only ever removes messages from a run.
    sent = [(doc["send"], doc["topic"]) for ev in outcome.events
            for doc in ev.actions if "send" in doc]
    assert set(sent) <= set(rows)
    assert len(set(sent)) == len(sent) == outcome.message_count
    assert outcome.message_count <= len(rows)
    # No finished wait ever fires: a watchdog fails its agent, exactly one
    # period after the agent's previous event, which armed it.
    last = {}
    for ev in outcome.events:
        if ev.event["type"] == "timer":
            assert ev.phase_after == "failed" != ev.phase_before
            assert ev.time_s == last[ev.agent].time_s + watchdog_s
        last[ev.agent] = ev


@pytest.mark.parametrize("rule, message", [
    (DropRule("/task", receiver="cam-clinet"),
     "DropRule(topic_contains='/task', occurrence=1, receiver='cam-clinet'):"
     " no agent of the run is 'cam-clinet'"),
    (DropRule("/tsak"),
     "DropRule(topic_contains='/tsak', occurrence=1, receiver=None):"
     " no topic of the run contains '/tsak'"),
], ids=["receiver", "topic"])
def test_rule_that_could_never_fire_is_rejected_by_name(rule, message):
    scenario = load_scenario(DEMO)
    with pytest.raises(DomainError) as exc:
        run_scenario(scenario, plan_from_scenario(scenario),
                     fault_rules=(rule,))
    assert str(exc.value) == message


@pytest.mark.parametrize("agent", ["a", "b", "c", "o"])
def test_rule_naming_any_agent_of_the_run_fires(agent):
    # Dropping the first message an agent receives leaves the run
    # incomplete, with that agent among the diagnosed.
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    routes = simnet._Sim(scenario, config, (), False).subscribers
    topic = next(t for (_, t), ids in routes.items() if agent in ids)
    outcome = run_scenario(scenario, config,
                           fault_rules=(DropRule(topic, receiver=agent),))
    assert not outcome.completed
    assert agent in outcome.diagnostics


def test_event_log_written_as_json_lines():
    import json

    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    outcome = run_scenario(scenario, config)
    lines = [event.to_json_line() for event in outcome.events]
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


@pytest.mark.parametrize("strategy,iters,faults", [
    (StrategyKind.COLD, 0, ()),
    (StrategyKind.PRE_COPY, 0, ()),
    (StrategyKind.ITERATIVE_PRE_COPY, 1, ()),
    (StrategyKind.ITERATIVE_PRE_COPY, 3, ()),
    (StrategyKind.ITERATIVE_PRE_COPY, 3, (DropRule("round/2/image"),)),
])
def test_record_events_only_controls_the_log(strategy, iters, faults):
    scenario = make_scenario(dirty_rate=200.0, latency_s=0.002)
    config = make_config(scenario, strategy, iters)
    logged = run_scenario(scenario, config, fault_rules=faults,
                          record_events=True)
    quiet = run_scenario(scenario, config, fault_rules=faults,
                         record_events=False)
    assert logged.events and quiet.events == ()
    assert quiet == logged._replace(events=())
    assert logged.completed is not bool(faults)


# ---------------------------------------------------------------------------
# Faults and validation


def test_dropped_stopcopy_image_fails_cleanly():
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    outcome = run_scenario(scenario, config,
                           fault_rules=(DropRule("stopcopy"),))
    assert not outcome.completed
    assert outcome.downtime_s is None
    assert outcome.diagnostics  # someone explains what went wrong
    assert any("timed out" in d for d in outcome.diagnostics.values())
    assert "failed" in set(outcome.final_phases.values())


def test_dropped_task_announcement_fails_cleanly():
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.COLD)
    outcome = run_scenario(scenario, config,
                           fault_rules=(DropRule("/task", receiver="a"),))
    assert not outcome.completed
    assert outcome.diagnostics


def test_delay_beyond_watchdog_fails_cleanly():
    scenario = make_scenario()
    config = make_config(scenario, StrategyKind.PRE_COPY)
    # Far beyond the derived watchdog period, 10 * predicted total + 10 s
    # (about 25 s here).
    outcome = run_scenario(
        scenario, config,
        fault_rules=(DelayRule("nsconfig", delay_s=1000.0),))
    assert not outcome.completed
    assert any("timed out" in d for d in outcome.diagnostics.values())


def test_work_outlasting_the_watchdog_fails_the_busy_agent():
    # The plan expects no dirtying, so its watchdog period is short
    # (55.67 s); the run dirties every page, and the source's stop-and-copy
    # checkpoint of them at 1e-4 s a byte takes over 1,000 s. A busy agent
    # is as live as a waiting one: the source times out with the others
    # instead of finishing long after every one of them has given up.
    scenario = load_scenario(DEMO)
    profile_id = scenario.task.ms_profile_id
    scenario = scenario._replace(
        model_params=scenario.model_params._replace(ckpt_per_byte_s=1e-4),
        ms_profiles=tuple(
            p._replace(profile=p.profile._replace(dirty_rate_norm=0.0),
                       dirty_rate_pages_per_s=1e5) if p.id == profile_id
            else p for p in scenario.ms_profiles))
    config = plan_from_scenario(scenario)
    watchdog_s = 10 * config.predicted.total_s + 10
    outcome = run_scenario(scenario, config)
    assert not outcome.completed
    assert outcome.diagnostics == {
        "edge-a": "timed out waiting in phase stop_checkpoint",
        "edge-b": "timed out waiting in phase await publish "
                  "source/stopcopy/image",
        "cam-client": "timed out waiting in phase await publish "
                      "destination/ns-ready",
        "orchestrator": "timed out waiting in phase await publish "
                        "destination/done"}
    *_, froze, fired = [ev for ev in outcome.events if ev.agent == "edge-a"]
    assert froze.phase_after == "stop_checkpoint"
    assert fired.event == {"type": "timer"}
    assert outcome.end_time_s == fired.time_s == froze.time_s + watchdog_s
    assert outcome.end_time_s == pytest.approx(59.92, abs=0.01)


def test_task_arriving_after_ns_ready_fails_the_client_cleanly():
    # The client hears the destination's ns-ready long before its delayed
    # task. It holds the publication, sending nothing, and its watchdog
    # fails it, still idle, before the task comes.
    scenario = load_scenario(DEMO)
    config = plan_from_scenario(scenario)
    outcome = run_scenario(
        scenario, config,
        fault_rules=(DelayRule("/task", 100.0, receiver="cam-client"),))
    assert not outcome.completed
    assert outcome.diagnostics["cam-client"] == (
        "timed out waiting in phase idle")
    [held, fired] = [ev for ev in outcome.events if ev.agent == "cam-client"]
    assert held.event["topic"] == "mig/ms-video-0/destination/ns-ready"
    assert (held.phase_before, held.phase_after, held.actions) == (
        "idle", "idle", ())
    assert fired.event == {"type": "timer"}
    assert fired.time_s == held.time_s + 10 * config.predicted.total_s + 10


def test_task_overtaken_by_ns_ready_completes():
    # A 6 s orchestrator-client link: ns-ready reaches the client long
    # before its task, and waits there for it, as planned (I=6) and as
    # planned cold.
    scenario = load_scenario(DEMO)
    slow = scenario._replace(links=(
        *scenario.links, Link("orchestrator", "cam-client", 1000.0, 6.0)))
    task = slow.task.task._replace(objective=Objective.MINIMIZE_RESOURCES,
                                   target_downtime_s=5.0)
    cold = slow._replace(task=slow.task._replace(task=task))
    for scenario, iterations, total_s in ((slow, 6, 6.353999999999999),
                                          (cold, 0, 6.373922943999999)):
        config = plan_from_scenario(scenario)
        assert config.strategy.iterations == iterations
        outcome = run_scenario(scenario, config)
        assert outcome.completed
        assert outcome.message_count == 7 + 3 * iterations
        assert outcome.total_s == pytest.approx(total_s, rel=1e-12)
        # The client takes the held ns-ready with its task, at 6 s.
        [flow] = _work_starts(outcome, "cam-client", "flow_update")
        assert flow[0] == 6.0


def test_fault_free_runs_complete_over_unequal_latencies():
    # 0-50 ms drawn on its own for each of the six agent pairs, with the
    # demo's two profiles and targets of 2-8 s: a message may overtake
    # the task or any earlier message of another sender, and is held.
    rng = random.Random(2026)
    base = load_scenario(DEMO)
    hosts = ("edge-a", "edge-b", "cam-client", "orchestrator")
    agent_of = dict(zip(agents.Role, hosts))
    failed = []
    for index in range(400):
        task = base.task.task._replace(
            target_duration_s=rng.uniform(2.0, 8.0))
        scenario = base._replace(
            links=tuple(Link(a, b, 1000.0, rng.uniform(0.0, 0.05))
                        for i, a in enumerate(hosts) for b in hosts[i + 1:]),
            task=base.task._replace(
                task=task, ms_profile_id=base.ms_profiles[index % 2].id))
        config = plan_from_scenario(scenario)
        outcome = run_scenario(scenario, config)
        info = simnet._Sim(scenario, config, (), False).info
        expected, sent = {}, {}
        for step in agents.clean_run(info):
            expected.setdefault(agent_of[step.sender], []).append(
                (step.kind.value, step.topic))
        for ev in outcome.events:
            sent.setdefault(ev.agent, []).extend(
                (doc["send"], doc["topic"]) for doc in ev.actions
                if "send" in doc)
        if not outcome.completed or sent != expected:
            failed.append((index, outcome.diagnostics))
    assert failed == []


def test_agent_left_with_nothing_pending_is_diagnosed():
    # The client hears neither the task nor ns-ready, so no watchdog of its
    # own guards it; the destination, waiting for its flow update, and the
    # orchestrator, waiting for the completion notice, time out.
    scenario = make_scenario()
    outcome = run_scenario(scenario, make_config(scenario, StrategyKind.COLD),
                           fault_rules=(DropRule("/task", receiver="c"),
                                        DropRule("ns-ready")))
    assert not outcome.completed
    assert outcome.final_phases == {"a": "done", "b": "failed", "c": "idle",
                                    "o": "failed"}
    assert outcome.diagnostics["c"] == "stalled in phase idle"
    assert outcome.diagnostics["b"] == (
        "timed out waiting in phase await publish client/flow-updated")
    assert outcome.diagnostics.keys() == {"b", "c", "o"}


@pytest.mark.parametrize("rule", [
    DropRule("/task", receiver="cam-client"),
    DelayRule("/task", 100.0, receiver="cam-client"),
    DropRule("flow-updated"),
], ids=["drop-task", "delay-task", "drop-flow-updated"])
def test_client_that_never_moves_the_flow_fails_the_migration(rule):
    # The restore waits for the client's flow-updated, so without it the
    # destination times out and the orchestrator never reports success.
    # (The orchestrator's own watchdog, armed at kickoff, fires first.)
    scenario = load_scenario(DEMO)
    outcome = run_scenario(scenario, plan_from_scenario(scenario),
                           fault_rules=(rule,))
    assert not outcome.completed
    assert outcome.diagnostics["edge-b"] == (
        "timed out waiting in phase await publish client/flow-updated")
    assert outcome.final_phases["orchestrator"] != "done"
    assert outcome.diagnostics["orchestrator"]


def test_each_agent_diagnoses_its_own_failure_and_reports_nothing():
    # Round 1's announcement is lost: no one hears of it, and every agent
    # times out on its own wait, the orchestrator on the completion notice.
    scenario = load_scenario(DEMO)
    outcome = run_scenario(scenario, plan_from_scenario(scenario),
                           fault_rules=(DropRule("round/1/ready"),))
    assert not outcome.completed
    assert outcome.diagnostics == {
        "edge-a": "timed out waiting in phase await query "
                  "source/round/1/image",
        "edge-b": "timed out waiting in phase await publish "
                  "source/round/1/ready",
        "cam-client": "timed out waiting in phase await publish "
                      "destination/ns-ready",
        "orchestrator": "timed out waiting in phase await publish "
                        "destination/done"}
    # Task, query, reply and the round-1 announcement: no failure report.
    assert outcome.message_count == 4
    assert outcome.end_time_s == 56.7865847953807


def test_announcement_overtaking_its_rounds_reply_is_held():
    # The delayed reply lets round 1's announcement overtake it: edge-b
    # holds the announcement, sending nothing, and takes it after the
    # reply, so the run completes.
    scenario = load_scenario(DEMO)
    outcome = run_scenario(
        scenario, plan_from_scenario(scenario),
        fault_rules=(DelayRule("nsconfig", 1.0, receiver="edge-b"),))
    assert outcome.completed
    assert outcome.message_count == 25
    events = [ev for ev in outcome.events if ev.agent == "edge-b"]
    topics = [ev.event.get("topic", "").rsplit("ms-video-0/")[-1]
              for ev in events]
    held = topics.index("source/round/1/ready")
    assert topics[held + 1] == "source/nsconfig"
    assert (events[held].phase_before, events[held].phase_after,
            events[held].actions) == ("await reply source/nsconfig",
                                      "await reply source/nsconfig", ())
    assert events[held + 1].phase_after == (
        "await reply source/round/1/image")
    assert [doc["topic"] for doc in events[held + 1].actions] == [
        "mig/ms-video-0/source/round/1/image"]


@pytest.mark.parametrize("build,field", [
    # Crashed deep inside dirty_set_size on the demo.
    (lambda: DelayRule("/round/1/ready", -5.0), "delay_s"),
    # Completed with event times running backwards.
    (lambda: DelayRule("/round/1/ready", -0.001), "delay_s"),
    # Crashed inside numpy's Poisson draw.
    (lambda: DelayRule("/round/1/ready", float("nan")), "delay_s"),
    (lambda: DelayRule("/round/1/ready", float("inf")), "delay_s"),
    # Accepted as a delay of one second.
    (lambda: DelayRule("/round/1/ready", True), "delay_s"),
    # Raised a bare TypeError from math.isfinite.
    (lambda: DelayRule("/round/1/ready", "5"), "delay_s"),
    (lambda: DelayRule("/round/1/ready", None), "delay_s"),
    # Never fired: no delivery is the zeroth.
    (lambda: DropRule("/round/1/ready", occurrence=0), "occurrence"),
    (lambda: DelayRule("/round/1/ready", 1.0, occurrence=-1), "occurrence"),
    (lambda: DropRule("/round/1/ready", occurrence=1.5), "occurrence"),
    (lambda: DropRule("/round/1/ready", occurrence=True), "occurrence"),
    # Crashed run_scenario with a bare TypeError from the substring test.
    (lambda: DropRule(5), "topic_contains"),
    (lambda: DelayRule(None, 1.0), "topic_contains"),
    # Never matched: a receiver is an agent id.
    (lambda: DropRule("/task", receiver=3), "receiver"),
    (lambda: DelayRule("/task", 1.0, receiver=b"a"), "receiver"),
], ids=["delay-5", "delay-0.001", "delay-nan", "delay-inf", "delay-bool",
        "delay-str", "delay-none", "occurrence-0", "occurrence-negative",
        "occurrence-fractional", "occurrence-bool", "topic-int",
        "topic-none", "receiver-int", "receiver-bytes"])
def test_bad_fault_rules_are_rejected_where_built(build, field):
    with pytest.raises(DomainError, match=field):
        build()


def test_overflowing_predicted_total_is_rejected():
    # 10 * 1e308 overflows: the error names the predicted total, the cause.
    scenario = make_scenario(params=ModelParams(ckpt_fixed_s=1e308))
    config = make_config(scenario, StrategyKind.PRE_COPY)
    with pytest.raises(DomainError, match=r"predicted total_s 1e\+308"):
        run_scenario(scenario, config)


def test_config_bandwidth_must_fit_the_link():
    scenario = make_scenario(bandwidth_mbps=100.0)
    config = make_config(scenario, StrategyKind.COLD, bandwidth=GBPS)
    with pytest.raises(ScenarioError):
        run_scenario(scenario, config)


def test_two_links_between_one_pair_are_rejected():
    # The parser rejects such a file; a scenario built in code meets the
    # same check when it runs.
    scenario = make_scenario()
    scenario = scenario._replace(
        links=(*scenario.links, Link("b", "a", 10.0, 0.5)))
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scenario, make_config(scenario, StrategyKind.COLD))
    assert str(exc.value) == "two links between 'b' and 'a'"


def test_missing_task_section_is_rejected():
    scenario = make_scenario()
    bare = Scenario(seed=1, hosts=scenario.hosts, links=scenario.links,
                    ms_profiles=scenario.ms_profiles,
                    model_params=scenario.model_params)
    config = make_config(scenario, StrategyKind.COLD)
    with pytest.raises(ScenarioError):
        run_scenario(bare, config)
