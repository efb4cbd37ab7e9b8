"""Acceptance suite: ten end-to-end checks over the whole toolkit.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``)
and then asserts, so the suite doubles as a readable checklist. Expected
values are computed inline from first principles rather than imported from
the code under test wherever the check is about numeric agreement.
"""

import math
import time
from pathlib import Path

import numpy as np

from edgemig import cli
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    checkpoint_duration,
    cold_kpis,
    max_iterations,
    min_bandwidth,
    precopy_kpis,
    restore_duration,
)
from edgemig.orchestrator import (
    BandwidthDistribution,
    MetricsView,
    MigrationTask,
    Objective,
    design,
    strategy_distribution,
)
from edgemig.profiler import CalibrationRun, calibration_fit
from edgemig.scenario import Host, Link, Scenario, SimProfile, TaskSection
from edgemig.simnet import DelayRule, DropRule, run_scenario

GBPS = 1000.0 * BYTES_PER_S_PER_MBPS
DEMO = str(Path(__file__).resolve().parent.parent / "demos" / "scenario.json")


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _scenario(profile: MsProfile, params: ModelParams, *, seed: int,
              dirty_rate: float = 0.0, bandwidth_mbps: float = 1000.0,
              latency_s: float = 0.0,
              objective=Objective.MINIMIZE_DOWNTIME) -> Scenario:
    task = MigrationTask(
        container_id="ms-0", source_agent="a", destination_agent="b",
        objective=objective, target_duration_s=1e6)
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


def _config(scenario, strategy, iterations, bandwidth):
    choice = StrategyChoice(strategy, iterations)
    profile = scenario.ms_profiles[0].profile
    if strategy is StrategyKind.COLD:
        predicted = cold_kpis(profile, scenario.model_params, bandwidth)
    else:
        predicted = precopy_kpis(profile, scenario.model_params, bandwidth,
                                 iterations)
    from edgemig.orchestrator import MigrationConfig
    return MigrationConfig(strategy=choice, bandwidth_bytes_per_s=bandwidth,
                           predicted=predicted, target_met=True)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------


def test_criterion_01_simulator_agrees_with_closed_form():
    """With nothing dirty and no latency the two views must coincide."""
    rng = np.random.default_rng(20260819)
    started = time.monotonic()
    worst = 0.0
    for _ in range(50):
        profile = MsProfile(
            state_size_bytes=int(rng.integers(100_000, 50_000_000)),
            dirty_rate_norm=0.0,
            cpu_context_bytes=int(rng.choice([0, 4096])))
        params = ModelParams(
            ckpt_fixed_s=float(rng.uniform(0.05, 1.5)),
            ckpt_per_byte_s=float(rng.uniform(0.0, 5e-9)),
            pre_ckpt_fixed_s=float(rng.uniform(0.05, 1.5)),
            pre_ckpt_per_byte_s=float(rng.uniform(0.0, 5e-9)),
            restore_fixed_s=float(rng.uniform(0.05, 1.5)),
            restore_per_byte_s=float(rng.uniform(0.0, 5e-9)),
            transfer_signaling_s=float(rng.uniform(0.0, 0.1)),
            ns_overhead_s=float(rng.uniform(0.01, 0.2)),
            flow_update_s=float(rng.uniform(0.001, 0.05)))
        bandwidth = float(rng.uniform(10, 2000)) * BYTES_PER_S_PER_MBPS
        scenario = _scenario(profile, params, seed=int(rng.integers(1 << 31)),
                             bandwidth_mbps=bandwidth / BYTES_PER_S_PER_MBPS)
        cases = [(StrategyKind.COLD, 0), (StrategyKind.PRE_COPY, 0),
                 (StrategyKind.ITERATIVE_PRE_COPY, 1),
                 (StrategyKind.ITERATIVE_PRE_COPY, 5),
                 (StrategyKind.ITERATIVE_PRE_COPY, 20)]
        for strategy, iters in cases:
            config = _config(scenario, strategy, iters, bandwidth)
            outcome = run_scenario(scenario, config, record_events=False)
            assert outcome.completed
            worst = max(worst,
                        _rel(outcome.downtime_s, config.predicted.downtime_s),
                        _rel(outcome.total_s, config.predicted.total_s),
                        _rel(outcome.bytes_transferred,
                             config.predicted.bytes_transferred))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "simulated KPIs match the closed form when nothing is dirty",
            ok, f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_predictions_upper_bound_simulation():
    """The analytic model is a worst case: no seeded run may exceed it."""
    rng = np.random.default_rng(77)
    started = time.monotonic()
    violations = 0
    for run in range(200):
        state = int(rng.integers(1, 8)) * 1_048_576
        pages = math.ceil(state / 4096)
        profiled_rate = float(rng.uniform(30, 60))  # declared worst case
        norm = (profiled_rate - 1.0) / (pages - 1.0)
        actual_rate = profiled_rate * float(rng.uniform(0.05, 0.10))
        params = ModelParams(
            ckpt_fixed_s=float(rng.uniform(0.1, 0.3)),
            ckpt_per_byte_s=float(rng.uniform(0.0, 2e-9)),
            pre_ckpt_fixed_s=float(rng.uniform(0.1, 0.3)),
            pre_ckpt_per_byte_s=float(rng.uniform(0.0, 2e-9)),
            restore_fixed_s=float(rng.uniform(0.1, 0.3)),
            restore_per_byte_s=float(rng.uniform(0.0, 2e-9)),
            transfer_signaling_s=float(rng.uniform(0.001, 0.01)),
            ns_overhead_s=0.085, flow_update_s=0.004)
        profile = MsProfile(state_size_bytes=state, dirty_rate_norm=norm)
        scenario = _scenario(profile, params, seed=run,
                             dirty_rate=actual_rate)
        roll = int(rng.integers(0, 8))
        if roll == 0:
            strategy, iters = StrategyKind.COLD, 0
        elif roll == 1:
            strategy, iters = StrategyKind.PRE_COPY, 0
        else:
            strategy, iters = StrategyKind.ITERATIVE_PRE_COPY, roll - 1
        config = _config(scenario, strategy, iters, GBPS)
        outcome = run_scenario(scenario, config, record_events=False)
        assert outcome.completed
        slack = 1 + 1e-9
        if (outcome.downtime_s > config.predicted.downtime_s * slack
                or outcome.total_s > config.predicted.total_s * slack):
            violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 60.0
    _report(2, "simulated downtime and duration never exceed predictions",
            ok, f"{violations}/200 violations, {elapsed:.1f}s")


def test_criterion_03_designer_responds_monotonically_to_targets():
    profile = MsProfile(state_size_bytes=10_000_000, dirty_rate_norm=0.002)
    params = ModelParams(
        ckpt_fixed_s=0.5, ckpt_per_byte_s=1.9e-9,
        pre_ckpt_fixed_s=0.5, pre_ckpt_per_byte_s=1.9e-9,
        restore_fixed_s=0.35, restore_per_byte_s=1.9e-9,
        transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)
    metrics = MetricsView(profile=profile, params=params,
                          available_bandwidth_bytes_per_s=GBPS)

    iters = []
    for target in np.linspace(0.5, 14.0, 30):
        task = MigrationTask(
            container_id="c", source_agent="a", destination_agent="b",
            objective=Objective.MINIMIZE_DOWNTIME,
            target_duration_s=float(target))
        iters.append(design(task, metrics).strategy.iterations)
    iters_ok = all(a <= b for a, b in zip(iters, iters[1:]))

    bandwidths = []
    for target in np.linspace(0.8, 3.0, 30):
        task = MigrationTask(
            container_id="c", source_agent="a", destination_agent="b",
            objective=Objective.MINIMIZE_RESOURCES,
            target_downtime_s=float(target))
        bandwidths.append(design(task, metrics).bandwidth_bytes_per_s)
    bw_ok = all(a >= b for a, b in zip(bandwidths, bandwidths[1:]))

    ok = iters_ok and bw_ok and len(set(iters)) > 2 and len(set(bandwidths)) > 2
    _report(3, "looser duration targets never reduce iterations; looser "
               "downtime targets never raise allocated bandwidth", ok,
            f"I {iters[0]}..{iters[-1]}, "
            f"L {bandwidths[0]:.3g}..{bandwidths[-1]:.3g}")


def test_criterion_04_smaller_services_unlock_tighter_targets():
    params = ModelParams(
        ckpt_fixed_s=0.5, ckpt_per_byte_s=1.9e-9,
        pre_ckpt_fixed_s=0.5, pre_ckpt_per_byte_s=1.9e-9,
        restore_fixed_s=0.35, restore_per_byte_s=1.9e-9,
        transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)

    def thresholds(state_bytes):
        profile = MsProfile(state_size_bytes=state_bytes,
                            dirty_rate_norm=0.002)
        # Minimum reachable downtime target: the bandwidth-independent
        # floor plus one full-state transfer at the link rate.
        floor = (checkpoint_duration(params, state_bytes)
                 + params.ns_overhead_s + params.transfer_signaling_s
                 + params.flow_update_s
                 + restore_duration(params, state_bytes))
        min_down = floor + state_bytes / GBPS
        # Minimum reachable duration target: the iteration-free pre-copy.
        min_mig = precopy_kpis(profile, params, GBPS, 0).total_s
        # Behavioural cross-check against the public inversions.
        assert min_bandwidth(profile, params, min_down * 0.999, GBPS) is None
        assert min_bandwidth(profile, params, min_down * 1.001, GBPS) <= GBPS
        assert max_iterations(profile, params, GBPS, min_mig * 0.999) is None
        assert max_iterations(profile, params, GBPS, min_mig * 1.001) is not None
        return min_down, min_mig, profile

    small_down, small_mig, small = thresholds(500_000)
    big_down, big_mig, big = thresholds(10_000_000)
    ordered = small_down < big_down and small_mig < big_mig

    # Between the two thresholds only the small service is configurable.
    theta = (small_mig + big_mig) / 2
    metrics_small = MetricsView(profile=small, params=params,
                                available_bandwidth_bytes_per_s=GBPS)
    metrics_big = MetricsView(profile=big, params=params,
                              available_bandwidth_bytes_per_s=GBPS)
    task = MigrationTask(container_id="c", source_agent="a",
                         destination_agent="b",
                         objective=Objective.MINIMIZE_DOWNTIME,
                         target_duration_s=theta)
    split = (design(task, metrics_small).target_met
             and not design(task, metrics_big).target_met)

    _report(4, "feasibility frontier sits strictly lower for a 0.5 MB "
               "profile than for 10 MB", ordered and split,
            f"downtime {small_down:.3f}<{big_down:.3f}, "
            f"duration {small_mig:.3f}<{big_mig:.3f}")


def test_criterion_05_calibrated_model_reproduces_measured_pipeline():
    gbps = 1000.0 * BYTES_PER_S_PER_MBPS
    small, big = 500_000, 10_000_000

    # Regime one: an unoptimized runtime. Step timings measured at the two
    # image sizes; fixed network overheads measured independently.
    slow_runs = [
        CalibrationRun(image_bytes=small, checkpoint_s=1.418,
                       restore_s=0.902, transfer_s=1.190,
                       bandwidth_bytes_per_s=gbps),
        CalibrationRun(image_bytes=big, checkpoint_s=1.384,
                       restore_s=0.934, transfer_s=1.267,
                       bandwidth_bytes_per_s=gbps),
    ]
    fit = calibration_fit(slow_runs)
    slow_params = fit.params._replace(ns_overhead_s=0.084,
                                      flow_update_s=0.004)
    downtime = cold_kpis(MsProfile(state_size_bytes=big, dirty_rate_norm=0.0),
                         slow_params, gbps).downtime_s
    downtime_ok = _rel(downtime, 3.638) < 0.10

    # Regime two: a tuned runtime, much flatter in the image size.
    fast_runs = [
        CalibrationRun(image_bytes=small, checkpoint_s=0.503,
                       restore_s=0.353,
                       transfer_s=0.0029 + small / gbps,
                       bandwidth_bytes_per_s=gbps),
        CalibrationRun(image_bytes=big, checkpoint_s=0.503,
                       restore_s=0.353,
                       transfer_s=0.0029 + big / gbps,
                       bandwidth_bytes_per_s=gbps),
    ]
    fast_params = calibration_fit(fast_runs).params._replace(
        ns_overhead_s=0.084, flow_update_s=0.004)
    pages = math.ceil(big / 4096)
    norm = (5.0 - 1.0) / (pages - 1.0)  # worst case of 5 pages/s, 1 s window
    profile = MsProfile(state_size_bytes=big, dirty_rate_norm=norm)
    task = MigrationTask(container_id="c", source_agent="a",
                         destination_agent="b",
                         objective=Objective.MINIMIZE_DOWNTIME,
                         target_duration_s=5.0)
    config = design(task, MetricsView(profile=profile, params=fast_params,
                                      available_bandwidth_bytes_per_s=gbps))
    chosen = config.strategy
    iters_ok = (chosen.kind is StrategyKind.ITERATIVE_PRE_COPY
                and abs(chosen.iterations - 8) <= 3)

    _report(5, "parameters fitted to measured step timings reproduce the "
               "pipeline end to end", downtime_ok and iters_ok,
            f"downtime {downtime:.3f}s vs 3.638s, I={chosen.iterations}")


def test_criterion_06_iterating_cannot_help_a_write_heavy_service():
    profile = MsProfile(state_size_bytes=10_000_000, dirty_rate_norm=0.66)
    params = ModelParams(
        ckpt_fixed_s=0.5, ckpt_per_byte_s=1.9e-9,
        pre_ckpt_fixed_s=0.5, pre_ckpt_per_byte_s=1.9e-9,
        restore_fixed_s=0.35, restore_per_byte_s=1.9e-9,
        transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)
    downtimes = [precopy_kpis(profile, params, GBPS, i).downtime_s
                 for i in range(12)]
    spread = (max(downtimes) - min(downtimes)) / min(downtimes)
    _report(6, "with two thirds of the state rewritten per round, extra "
               "iterations change predicted downtime by under 5%",
            spread < 0.05, f"spread {spread:.2%} over I=0..11")


def test_criterion_07_iterating_pays_off_for_a_write_light_service():
    profile = MsProfile(state_size_bytes=25_000_000, dirty_rate_norm=0.03)
    params = ModelParams(
        ckpt_fixed_s=0.2, ckpt_per_byte_s=4e-8,
        pre_ckpt_fixed_s=0.2, pre_ckpt_per_byte_s=4e-8,
        restore_fixed_s=0.15, restore_per_byte_s=3e-8,
        transfer_signaling_s=0.005, ns_overhead_s=0.085, flow_update_s=0.004)
    cold = cold_kpis(profile, params, GBPS).downtime_s
    iterative = precopy_kpis(profile, params, GBPS, 5).downtime_s
    ratio = iterative / cold
    _report(7, "a 3% per-round dirty fraction cuts predicted downtime to "
               "under 35% of the cold figure", ratio < 0.35,
            f"ratio {ratio:.2%}")


def test_criterion_08_protocol_traces_are_ordered_and_fail_closed():
    params = ModelParams(
        ckpt_fixed_s=0.3, pre_ckpt_fixed_s=0.3, restore_fixed_s=0.25,
        transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)
    profile = MsProfile(state_size_bytes=4_194_304, dirty_rate_norm=0.01)

    happy_ok = True
    cases = [(StrategyKind.COLD, 0), (StrategyKind.PRE_COPY, 0)] + [
        (StrategyKind.ITERATIVE_PRE_COPY, i) for i in (1, 2, 3, 5, 8)]
    for idx, (strategy, iters) in enumerate(cases):
        scenario = _scenario(profile, params, seed=idx, dirty_rate=2.0)
        outcome = run_scenario(scenario,
                               _config(scenario, strategy, iters, GBPS))
        spans = {}
        for ev in outcome.events:
            for act in ev.actions:
                if "work" in act:
                    spans[(ev.agent, act["work"])] = (
                        ev.time_s, ev.time_s + act["duration_s"])
        ordered = (
            spans[("a", "stop_checkpoint")][1]
            <= spans[("a", "transfer_stopcopy")][0] + 1e-12
            and spans[("b", "ns_recreate")][1]
            <= spans[("c", "flow_update")][0] + 1e-12
            and spans[("c", "flow_update")][1]
            <= spans[("b", "restore")][0] + 1e-12)
        happy_ok &= (outcome.completed and ordered
                     and outcome.message_count == 7 + 3 * iters)

    faults = [
        (DropRule("/task", receiver="a"),),
        (DropRule("nsconfig"),),
        (DropRule("stopcopy"),),
        (DropRule("ready"),),
        (DropRule("ns-ready"),),
        (DropRule("/done"),),
        (DelayRule("nsconfig", delay_s=120.0),),
    ]
    faulty_ok = True
    for idx, rules in enumerate(faults):
        scenario = _scenario(profile, params, seed=100 + idx, dirty_rate=2.0)
        config = _config(scenario, StrategyKind.ITERATIVE_PRE_COPY, 2, GBPS)
        outcome = run_scenario(scenario, config, fault_rules=rules,
                               record_events=False)
        faulty_ok &= (not outcome.completed and bool(outcome.diagnostics)
                      and "failed" in outcome.final_phases.values())

    _report(8, "happy-path traces keep the pipeline order and message "
               "budget; injected faults end in a diagnosed failure",
            happy_ok and faulty_ok,
            f"{len(cases)} clean traces, {len(faults)} fault traces")


def test_criterion_09_strategy_mix_shifts_monotonically_with_the_target():
    profile = MsProfile(state_size_bytes=10_000_000, dirty_rate_norm=0.002)
    params = ModelParams(
        ckpt_fixed_s=0.5, ckpt_per_byte_s=1.9e-9,
        pre_ckpt_fixed_s=0.5, pre_ckpt_per_byte_s=1.9e-9,
        restore_fixed_s=0.35, restore_per_byte_s=1.9e-9,
        transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)
    dist = BandwidthDistribution(
        1000.0 * BYTES_PER_S_PER_MBPS, 100.0 * BYTES_PER_S_PER_MBPS, 0.0,
        (1000.0 + 5 * 100.0) * BYTES_PER_S_PER_MBPS)

    p_cold, p_iter, mass_ok = [], [], True
    for target in (1.45, 1.50, 1.53, 1.56, 1.60, 1.80, 2.10, 2.60):
        task = MigrationTask(
            container_id="c", source_agent="a", destination_agent="b",
            objective=Objective.MINIMIZE_DOWNTIME, target_duration_s=target)
        result = strategy_distribution(task, profile, params, dist,
                                       sample_count=10_000, seed=424242)
        p_cold.append(result.strategy_probs.get("cold", 0.0))
        p_iter.append(result.strategy_probs.get("iterative_precopy", 0.0))
        mass = math.fsum(result.iteration_pmf.values())
        mass_ok &= abs(mass - p_iter[-1]) <= 1e-12

    cold_mono = all(a >= b for a, b in zip(p_cold, p_cold[1:]))
    iter_mono = all(a <= b for a, b in zip(p_iter, p_iter[1:]))
    varied = p_cold[0] > p_cold[-1] and p_iter[0] < p_iter[-1]
    _report(9, "under bandwidth uncertainty the cold share only shrinks and "
               "the iterative share only grows as the target loosens",
            cold_mono and iter_mono and mass_ok and varied,
            f"cold {p_cold[0]:.3f}->{p_cold[-1]:.3f}, "
            f"iter {p_iter[0]:.3f}->{p_iter[-1]:.3f}")


def test_criterion_10_cli_outputs_are_bit_reproducible(tmp_path):
    def run(args):
        assert cli.main(args) == 0

    outs = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim-{tag}.json"
        events = tmp_path / f"events-{tag}.jsonl"
        sweep = tmp_path / f"sweep-{tag}.csv"
        dist = tmp_path / f"dist-{tag}.json"
        run(["simulate", "--scenario", DEMO, "--out", str(sim),
             "--events", str(events)])
        run(["sweep", "--scenario", DEMO, "--out", str(sweep)])
        run(["dist", "--scenario", DEMO, "--out", str(dist),
             "--samples", "2000"])
        outs.append(tuple(p.read_bytes() for p in (sim, events, sweep, dist)))
    serial = tmp_path / "sweep-par.csv"
    run(["sweep", "--scenario", DEMO, "--out", str(serial), "--parallel", "4"])
    parallel_same = serial.read_bytes() == outs[0][2]

    _report(10, "repeated invocations with one seed give byte-identical "
                "reports and event logs",
            outs[0] == outs[1] and parallel_same,
            "simulate+events, sweep, dist, parallel sweep")
