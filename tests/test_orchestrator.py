"""Tests for design and the strategy distribution."""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgemig.errors import DomainError
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    DEFAULT_ITERATION_CAP,
    DEFAULT_PAGE_SIZE,
    ModelParams,
    MsProfile,
    StrategyKind,
    cold_kpis,
    iteration_choice,
    iteration_counts,
    iteration_thresholds,
    min_bandwidth,
    precopy_kpis,
)
from edgemig.orchestrator import (
    BandwidthDistribution,
    MetricsView,
    MigrationTask,
    Objective,
    StrategyDistribution,
    design,
    strategy_distribution,
)

M = 10_485_760
GBPS = 1000.0 * BYTES_PER_S_PER_MBPS
PROFILE = MsProfile(state_size_bytes=M, dirty_rate_norm=4 / 2559)
PARAMS = ModelParams(
    ckpt_fixed_s=0.5, pre_ckpt_fixed_s=0.5, restore_fixed_s=0.35,
    transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)


def md_task(target=5.0):
    return MigrationTask(container_id="ms-0", source_agent="a",
                         destination_agent="b",
                         objective=Objective.MINIMIZE_DOWNTIME,
                         target_duration_s=target)


def mr_task(target=1.2):
    return MigrationTask(container_id="ms-0", source_agent="a",
                         destination_agent="b",
                         objective=Objective.MINIMIZE_RESOURCES,
                         target_downtime_s=target)


def view(bw=GBPS):
    return MetricsView(profile=PROFILE, params=PARAMS,
                       available_bandwidth_bytes_per_s=bw)


# ---------------------------------------------------------------------------
# Task validation


def test_task_requires_matching_target():
    with pytest.raises(DomainError):
        MigrationTask(container_id="c", source_agent="a",
                      destination_agent="b",
                      objective=Objective.MINIMIZE_DOWNTIME)
    with pytest.raises(DomainError):
        MigrationTask(container_id="c", source_agent="a",
                      destination_agent="b",
                      objective=Objective.MINIMIZE_RESOURCES,
                      target_downtime_s=-1.0)
    with pytest.raises(DomainError):
        MigrationTask(container_id="c", source_agent="a",
                      destination_agent="a",
                      objective=Objective.MINIMIZE_RESOURCES,
                      target_downtime_s=1.0)


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["target_downtime_s", "target_duration_s"])
def test_task_rejects_non_finite_targets(field, value, objective):
    # Either target, whether the objective reads it or not. Let through, an
    # infinite duration target plans 64 iterations and calls an infinite
    # total met.
    targets = {"target_downtime_s": 1.0, "target_duration_s": 5.0,
               field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        MigrationTask(container_id="c", source_agent="a",
                      destination_agent="b", objective=objective, **targets)


# ---------------------------------------------------------------------------
# Design


def test_design_minimize_resources_allocates_exactly():
    config = design(mr_task(1.2), view())
    assert config.strategy.kind is StrategyKind.COLD
    assert config.target_met
    expected = min_bandwidth(PROFILE, PARAMS, 1.2, GBPS)
    assert config.bandwidth_bytes_per_s == pytest.approx(expected, rel=1e-12)
    assert config.predicted.downtime_s == pytest.approx(1.2, rel=1e-9)


def test_design_minimize_resources_infeasible_falls_back():
    config = design(mr_task(0.5), view())  # below the fixed-cost floor
    assert config.strategy.kind is StrategyKind.COLD
    assert not config.target_met
    assert config.bandwidth_bytes_per_s == GBPS
    assert config.predicted.downtime_s == pytest.approx(
        cold_kpis(PROFILE, PARAMS, GBPS).downtime_s, rel=1e-12)


def test_design_minimize_downtime_maximizes_iterations():
    config = design(md_task(5.0), view())
    assert config.strategy.kind is StrategyKind.ITERATIVE_PRE_COPY
    assert config.strategy.iterations == 6
    assert config.target_met
    assert config.bandwidth_bytes_per_s == GBPS
    assert config.predicted.total_s == pytest.approx(
        precopy_kpis(PROFILE, PARAMS, GBPS, 6).total_s, rel=1e-12)
    assert config.predicted.total_s <= 5.0


def test_design_minimize_downtime_infeasible_falls_back_cold():
    config = design(md_task(1.0), view())
    assert config.strategy.kind is StrategyKind.COLD
    assert not config.target_met
    assert config.bandwidth_bytes_per_s == GBPS


def test_design_is_pure():
    task, metrics = md_task(5.0), view()
    assert design(task, metrics) == design(task, metrics)


# ---------------------------------------------------------------------------
# Bandwidth distribution


def test_distribution_zero_std_is_a_point_mass():
    dist = BandwidthDistribution(GBPS, 0.0, 0.0, GBPS + 5 * 0.0)
    draws = dist.sample(100, seed=1)
    assert np.all(draws == GBPS)


def test_distribution_respects_truncation():
    dist = BandwidthDistribution(GBPS, GBPS / 10, 0.0, GBPS + 5 * (GBPS / 10))
    draws = dist.sample(10_000, seed=2)
    assert draws.min() >= dist.lower_bytes_per_s
    assert draws.max() <= dist.upper_bytes_per_s
    assert abs(np.mean(draws) - GBPS) < GBPS / 50  # loose sanity check


def test_distribution_sampling_is_deterministic():
    dist = BandwidthDistribution(GBPS, GBPS / 10, 0.0, GBPS + 5 * (GBPS / 10))
    assert np.array_equal(dist.sample(50, seed=3), dist.sample(50, seed=3))
    assert not np.array_equal(dist.sample(50, seed=3), dist.sample(50, seed=4))


def test_distribution_validation():
    with pytest.raises(DomainError):
        BandwidthDistribution(-1.0, 1.0, 0.0, -1.0 + 5 * 1.0)
    with pytest.raises(DomainError):
        BandwidthDistribution(GBPS, -1.0, 0.0, GBPS + 5 * -1.0)
    with pytest.raises(DomainError):
        BandwidthDistribution(mean_bytes_per_s=GBPS, std_bytes_per_s=1.0,
                              lower_bytes_per_s=10.0, upper_bytes_per_s=5.0)
    dist = BandwidthDistribution(GBPS, 1.0, 0.0, GBPS + 5 * 1.0)
    with pytest.raises(DomainError):
        dist.sample(0, seed=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            BandwidthDistribution(bad, 1.0, 0.0, GBPS)
        with pytest.raises(DomainError):
            BandwidthDistribution(GBPS, bad, 0.0, GBPS)
        with pytest.raises(DomainError):
            BandwidthDistribution(GBPS, 1.0, bad, math.inf)
    with pytest.raises(DomainError):
        BandwidthDistribution(GBPS, 1.0, 0.0, math.nan)


# Standardized intervals [a, b], one per regime of the sampler and side.
INTERVALS = {
    "central": (-2.375, 2.5),
    "short-holding-0": (-0.5, 1.9),
    "short-right-tail": (3.0, 3.3),
    "right-tail": (8.0, 30.0),
    "left-tail": (-30.0, -8.0),
    "narrow-right": (1.0, 1.01),
    "narrow-left": (-3.0, -2.99),
    "near-point": (0.5, 0.5 + 1e-7),
    "half-unbounded": (2.0, math.inf),
    "half-unbounded-holding-0": (-1.0, math.inf),
}
STD = GBPS / 40  # keeps mean + a * std >= 0 down to a = -40


def standardized(a, b):
    return BandwidthDistribution(GBPS, STD, GBPS + a * STD, GBPS + b * STD)


@contextlib.contextmanager
def finishes_within(seconds):
    """Fail, rather than hang, if a proposal stops accepting draws."""
    def spun(signum, frame):
        raise TimeoutError(f"sampling took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, spun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mean, expected", [(1.0, 1e9), (3e9, 2e9)])
def test_distribution_out_of_float_reach_is_a_point_mass(mean, expected):
    """An interval ~1e309 stds away standardizes to +-inf: no draw, no crash."""
    dist = BandwidthDistribution(mean, 1e-300, 1e9, 2e9)
    with finishes_within(2.0):
        draws = dist.sample(5, seed=1)
    assert np.array_equal(draws, np.full(5, expected))


@pytest.mark.parametrize("a, b", INTERVALS.values(), ids=INTERVALS.keys())
def test_distribution_matches_scipy_truncnorm(a, b):
    from scipy import stats

    dist = standardized(a, b)
    with finishes_within(2.0):
        draws = dist.sample(20_000, seed=2026)
    lo = (dist.lower_bytes_per_s - GBPS) / STD
    hi = (dist.upper_bytes_per_s - GBPS) / STD
    oracle = stats.truncnorm(lo, hi, loc=GBPS, scale=STD)
    assert stats.kstest(draws, oracle.cdf).pvalue > 1e-3


@pytest.mark.parametrize("a, b", [(8.0, 30.0), (-30.0, -8.0), (38.0, 39.0),
                                  (1e3, math.inf), (37.0, 37.0 + 1e-9),
                                  (-1e-9, 1e-9)])
def test_distribution_far_tails_and_slivers_finish_quickly(a, b):
    dist = standardized(a, b)
    with finishes_within(2.0):  # 10^5 draws take milliseconds
        draws = dist.sample(100_000, seed=3)
    assert draws.min() >= dist.lower_bytes_per_s
    assert draws.max() <= dist.upper_bytes_per_s


magnitudes = st.floats(0.0, 1e15)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 1e15), magnitudes, magnitudes,
       st.floats(1e-300, 1e15), st.integers(1, 500),
       st.integers(0, 2**32))
@example(1.0, 1e-300, 1e9, 1e9, 5, 1)
def test_distribution_draws_lie_in_bounds(mean, std, lower, width, count,
                                          seed):
    upper = lower + width
    assume(lower < upper)
    dist = BandwidthDistribution(mean, std, lower, upper)
    with finishes_within(2.0):
        draws = dist.sample(count, seed)
    assert draws.shape == (count,)
    assert np.all(np.isfinite(draws))
    assert np.all((lower <= draws) & (draws <= upper))
    assert draws.tobytes() == dist.sample(count, seed).tobytes()


# ---------------------------------------------------------------------------
# Strategy distribution


def test_strategy_distribution_point_mass():
    dist = BandwidthDistribution(GBPS, 0.0, 0.0, GBPS + 5 * 0.0)
    got = strategy_distribution(md_task(5.0), PROFILE, PARAMS, dist,
                                sample_count=200, seed=0)
    assert got.strategy_probs["iterative_precopy"] == 1.0
    assert got.strategy_probs["cold"] == 0.0
    assert got.strategy_probs["precopy"] == 0.0
    assert got.iteration_pmf == {6: 1.0}


def test_strategy_distribution_probabilities_are_consistent():
    dist = BandwidthDistribution(GBPS, GBPS / 5, 0.0, GBPS + 5 * (GBPS / 5))
    got = strategy_distribution(md_task(2.2), PROFILE, PARAMS, dist,
                                sample_count=4000, seed=11)
    total = math.fsum(got.strategy_probs.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    pmf_mass = math.fsum(got.iteration_pmf.values())
    assert abs(pmf_mass - got.strategy_probs["iterative_precopy"]) < 1e-12
    assert all(0.0 <= p <= 1.0 for p in got.strategy_probs.values())
    assert got.sample_count == 4000


def test_strategy_distribution_reports_sampling_error():
    dist = BandwidthDistribution(GBPS, GBPS / 5, 0.0, GBPS + 5 * (GBPS / 5))
    got = strategy_distribution(md_task(1.55), PROFILE, PARAMS, dist,
                                sample_count=4000, seed=11)
    assert 0.0 < got.strategy_probs["cold"] < 1.0
    assert got.strategy_stderr == {
        k: math.sqrt(p * (1 - p) / 4000) for k, p in got.strategy_probs.items()}


def test_strategy_distribution_couples_across_targets():
    """Same seed per target point: cold probability cannot rise with slack."""
    dist = BandwidthDistribution(GBPS, GBPS / 5, 0.0, GBPS + 5 * (GBPS / 5))
    targets = np.linspace(1.4, 6.0, 8)
    p_cold, p_iter = [], []
    for theta in targets:
        got = strategy_distribution(md_task(float(theta)), PROFILE, PARAMS,
                                    dist, sample_count=500, seed=21)
        p_cold.append(got.strategy_probs["cold"])
        p_iter.append(got.strategy_probs["iterative_precopy"])
    assert all(b <= a + 1e-15 for a, b in zip(p_cold, p_cold[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(p_iter, p_iter[1:]))


# ---------------------------------------------------------------------------
# The iteration count and its bandwidth thresholds against the designer

TINY = float(np.nextafter(0.0, 1.0))

profiles_st = st.builds(
    MsProfile,
    state_size_bytes=st.one_of(st.just(0), st.integers(1, 8 << 30)),
    dirty_rate_norm=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    # builds() fills every NamedTuple field, those with a default too.
    page_size_bytes=st.just(DEFAULT_PAGE_SIZE),
    cpu_context_bytes=st.one_of(st.just(0), st.integers(0, 1 << 20)))

params_st = st.builds(
    ModelParams,
    ckpt_fixed_s=st.floats(0.0, 2.0),
    ckpt_per_byte_s=st.floats(0.0, 1e-8),
    pre_ckpt_fixed_s=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    pre_ckpt_per_byte_s=st.floats(0.0, 1e-8),
    restore_fixed_s=st.floats(0.0, 2.0),
    restore_per_byte_s=st.floats(0.0, 1e-8),
    transfer_signaling_s=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    ns_overhead_s=st.floats(0.0, 0.5),
    flow_update_s=st.floats(0.0, 0.1))

bandwidth_lists = st.lists(
    st.one_of(st.just(TINY), st.floats(1e3, 1e11)), min_size=1, max_size=20)
targets_st = st.floats(1e-3, 120.0)


def _kind_and_iterations(choice):
    if choice is None:
        return StrategyKind.COLD, 0
    return choice.kind, choice.iterations


# Per-byte costs as in demos/scenario.json.
DEMO_PARAMS = ModelParams(
    ckpt_fixed_s=0.5, ckpt_per_byte_s=1.9e-9, pre_ckpt_fixed_s=0.5,
    pre_ckpt_per_byte_s=1.9e-9, restore_fixed_s=0.35,
    restore_per_byte_s=1.9e-9, transfer_signaling_s=0.003,
    ns_overhead_s=0.085, flow_update_s=0.004)


def _edge_target(profile, params, bandwidth, target, k, ulps_below):
    """On, or one or two ulps below, the total of k iterations at a
    bandwidth: the edge where k stops fitting (None keeps ``target``)."""
    if ulps_below is not None:
        target = precopy_kpis(profile, params, bandwidth, k).total_s
        for _ in range(ulps_below):
            target = math.nextafter(target, 0.0)
        assume(0.0 < target < math.inf)
    return target


@settings(max_examples=200, deadline=None)
@given(profiles_st, params_st, bandwidth_lists, targets_st,
       st.integers(0, 64), st.sampled_from([None, 0, 1, 2]))
# Targets exactly on a k-iteration total, and one ulp below one, where a
# count that is off by one in either direction would show.
@example(MsProfile(445_644_800, 0.021), DEMO_PARAMS, [29e6], 1.0, 12, 0)
@example(MsProfile(3_155_165_184, 0.038), DEMO_PARAMS, [9.5e6], 1.0, 14, 1)
def test_iteration_counts_match_scalar_design(profile, params, bws, target,
                                              k, ulps_below):
    target = _edge_target(profile, params, bws[0], target, k, ulps_below)
    for bw in bws:
        n = iteration_counts(profile, params, bw, target)
        assert type(n) is int
        config = design(md_task(target), MetricsView(profile, params, bw))
        got = _kind_and_iterations(iteration_choice(n))
        assert got == (config.strategy.kind, config.strategy.iterations)
        # Independent oracle: the largest count whose predicted total fits.
        fitting = [k for k in range(DEFAULT_ITERATION_CAP + 1)
                   if precopy_kpis(profile, params, bw, k).total_s <= target]
        assert n == (max(fitting) if fitting else -1)


@settings(max_examples=200, deadline=None)
@given(profiles_st, params_st, bandwidth_lists, targets_st,
       st.integers(0, 64), st.sampled_from([None, 0, 1, 2]),
       st.lists(st.floats(0.0, 1.0), max_size=10))
# The edge examples above over the widest range: the first bandwidth sits
# on (or one or two ulps off) a threshold.
@example(MsProfile(445_644_800, 0.021), DEMO_PARAMS, [29e6, TINY, 1e11], 1.0,
         12, 0, [])
@example(MsProfile(3_155_165_184, 0.038), DEMO_PARAMS, [9.5e6, TINY, 1e11],
         1.0, 14, 1, [])
def test_iteration_thresholds_are_where_the_count_steps_up(
        profile, params, bws, target, k, ulps_below, fractions):
    target = _edge_target(profile, params, bws[0], target, k, ulps_below)
    low, high = min(bws), max(bws)
    base, thresholds = iteration_thresholds(profile, params, target, low,
                                            high)
    assert base == iteration_counts(profile, params, low, target)
    assert base + len(thresholds) == iteration_counts(profile, params, high,
                                                      target)
    assert thresholds == sorted(thresholds)
    for n, t in enumerate(thresholds, base + 1):
        # The smallest bandwidth in (low, high] whose count reaches n.
        assert low < t <= high
        assert iteration_counts(profile, params, t, target) >= n
        assert iteration_counts(profile, params, math.nextafter(t, 0.0),
                                target) < n
    inside = [min(max(low + f * (high - low), low), high) for f in fractions]
    for bw in [*bws, *inside, *thresholds]:
        assert base + sum(t <= bw for t in thresholds) == iteration_counts(
            profile, params, bw, target)


def per_draw_distribution(task, profile, params, distribution, sample_count,
                          seed):
    """The designer called once per draw: what the batch must reproduce."""
    kind_counts = {k.value: 0 for k in StrategyKind}
    iter_counts = {}
    for bandwidth in distribution.sample(sample_count, seed):
        if bandwidth <= 0:
            bandwidth = np.nextafter(0.0, 1.0)
        metrics = MetricsView(profile=profile, params=params,
                              available_bandwidth_bytes_per_s=float(bandwidth))
        config = design(task, metrics)
        kind_counts[config.strategy.kind.value] += 1
        if config.strategy.kind is StrategyKind.ITERATIVE_PRE_COPY:
            n = config.strategy.iterations
            iter_counts[n] = iter_counts.get(n, 0) + 1
    return StrategyDistribution(
        strategy_probs={k: c / sample_count for k, c in kind_counts.items()},
        iteration_pmf={n: c / sample_count
                       for n, c in sorted(iter_counts.items())},
        sample_count=sample_count)


class FixedDraws:
    """A bandwidth distribution whose draws are given, zeros included."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float)

    def sample(self, count, seed):
        return self.draws[:count].copy()


def assert_same_distribution(got, expected):
    assert got == expected
    # The report is written in dict order, so the order must agree too.
    assert list(got.strategy_probs.items()) == list(
        expected.strategy_probs.items())
    assert list(got.iteration_pmf.items()) == list(
        expected.iteration_pmf.items())


tasks_st = st.one_of(targets_st.map(md_task), targets_st.map(mr_task))
EDGE_PROFILE = MsProfile(445_644_800, 0.021)


def _threshold_draws(target, low, high):
    """Each threshold of EDGE_PROFILE over [low, high], and one ulp below."""
    _, thresholds = iteration_thresholds(EDGE_PROFILE, DEMO_PARAMS, target,
                                         low, high)
    assert len(thresholds) >= 2
    return [x for t in thresholds for x in (t, math.nextafter(t, 0.0))]


@settings(max_examples=100, deadline=None)
@given(tasks_st, profiles_st, params_st,
       st.lists(st.one_of(st.just(0.0), st.just(TINY), st.floats(1e3, 1e11)),
                min_size=1, max_size=60))
# Draws exactly on each threshold and one ulp below it: from cold through
# pre-copy to iterative, and between iteration counts.
@example(md_task(30.0), EDGE_PROFILE, DEMO_PARAMS,
         _threshold_draws(30.0, 1e6, 1e9))
@example(md_task(12.0), EDGE_PROFILE, DEMO_PARAMS,
         [0.0, *_threshold_draws(12.0, 1e7, 1e11)])
def test_strategy_distribution_matches_per_draw_design(task, profile, params,
                                                       draws):
    dist = FixedDraws(draws)
    got = strategy_distribution(task, profile, params, dist, len(draws), 0)
    expected = per_draw_distribution(task, profile, params, dist, len(draws),
                                     0)
    assert_same_distribution(got, expected)


@settings(max_examples=40, deadline=None)
@given(tasks_st, profiles_st, params_st, st.floats(1e5, 1e10),
       st.floats(0.0, 1.0), st.integers(1, 400), st.integers(0, 2**32))
def test_truncnorm_strategy_distribution_matches_per_draw_design(
        task, profile, params, mean, rel_std, samples, seed):
    dist = BandwidthDistribution(mean, rel_std * mean, 0.0,
                                 mean + 5 * (rel_std * mean))
    got = strategy_distribution(task, profile, params, dist, samples, seed)
    expected = per_draw_distribution(task, profile, params, dist, samples,
                                     seed)
    assert_same_distribution(got, expected)
