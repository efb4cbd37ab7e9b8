"""Analytic model tests against independently computed oracles.

Expected values are computed inline from first principles (plain
arithmetic on the affine cost definitions) rather than through the helpers
under test.
"""

import ast
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemig.errors import DomainError
from edgemig.model import (
    BYTES_PER_S_PER_MBPS,
    DEFAULT_ITERATION_CAP,
    DEFAULT_PAGE_SIZE,
    Kpis,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    cold_kpis,
    frame_loss,
    max_iterations,
    min_bandwidth,
    precopy_kpis,
    stop_copy_image_bytes,
    worst_case_dirty_bytes,
)

REL = 1e-12

M = 10_485_760  # 2560 pages of 4096 bytes
GBPS = 1000.0 * BYTES_PER_S_PER_MBPS  # 125e6 B/s

PROFILE = MsProfile(state_size_bytes=M, dirty_rate_norm=4 / 2559)
PARAMS = ModelParams(
    ckpt_fixed_s=0.5, ckpt_per_byte_s=0.0,
    pre_ckpt_fixed_s=0.5, pre_ckpt_per_byte_s=0.0,
    restore_fixed_s=0.35, restore_per_byte_s=0.0,
    transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)


def test_pages_round_up():
    assert PROFILE.total_pages == 2560
    assert MsProfile(state_size_bytes=4097, dirty_rate_norm=0.0).total_pages == 2


def test_worst_case_dirty_bytes():
    assert worst_case_dirty_bytes(PROFILE) == pytest.approx(
        M * 4 / 2559, rel=REL)
    ctx = MsProfile(state_size_bytes=M, dirty_rate_norm=4 / 2559,
                    cpu_context_bytes=512)
    assert stop_copy_image_bytes(ctx) == pytest.approx(
        M * 4 / 2559 + 512, rel=REL)


def test_cold_kpis_match_hand_computation():
    kpis = cold_kpis(PROFILE, PARAMS, GBPS)
    expected_down = 0.5 + 0.085 + (0.003 + M / GBPS) + 0.004 + 0.35
    assert kpis.downtime_s == pytest.approx(expected_down, rel=REL)
    assert kpis.total_s == pytest.approx(expected_down, rel=REL)
    assert kpis.bytes_transferred == pytest.approx(M, rel=REL)
    # every step accounted, none negative
    assert kpis.step_durations_s["S1"] == pytest.approx(0.5, rel=REL)
    assert kpis.step_durations_s["S3"] == pytest.approx(0.003 + M / GBPS,
                                                        rel=REL)
    assert kpis.step_durations_s["S2||S4"] == pytest.approx(0.085, rel=REL)
    assert kpis.step_durations_s["S5"] == pytest.approx(0.004, rel=REL)
    assert kpis.step_durations_s["S6"] == pytest.approx(0.35, rel=REL)


def test_cold_kpis_with_per_byte_terms():
    params = ModelParams(ckpt_fixed_s=0.4, ckpt_per_byte_s=1e-8,
                         restore_fixed_s=0.3, restore_per_byte_s=2e-8,
                         transfer_signaling_s=0.01, ns_overhead_s=0.05,
                         flow_update_s=0.002)
    kpis = cold_kpis(PROFILE, params, GBPS)
    expected = ((0.4 + 1e-8 * M) + 0.05 + (0.01 + M / GBPS) + 0.002
                + (0.3 + 2e-8 * M))
    assert kpis.downtime_s == pytest.approx(expected, rel=REL)


def test_precopy_kpis_iterative():
    iters = 8
    v_d = M * (4 / 2559)
    kpis = precopy_kpis(PROFILE, PARAMS, GBPS, iterations=iters)
    round0 = 0.5 + 0.003 + M / GBPS
    per_round = 0.5 + 0.003 + v_d / GBPS
    down = 0.5 + (0.003 + v_d / GBPS) + 0.085 + 0.004 + 0.35
    assert kpis.downtime_s == pytest.approx(down, rel=REL)
    assert kpis.total_s == pytest.approx(round0 + iters * per_round + down,
                                         rel=REL)
    assert kpis.bytes_transferred == pytest.approx(M + iters * v_d + v_d,
                                                   rel=REL)


def test_precopy_zero_iterations_still_copies_twice():
    kpis = precopy_kpis(PROFILE, PARAMS, GBPS, iterations=0)
    v_d = M * (4 / 2559)
    assert kpis.bytes_transferred == pytest.approx(M + v_d, rel=REL)
    assert kpis.total_s == pytest.approx(
        (0.5 + 0.003 + M / GBPS)
        + (0.5 + 0.003 + v_d / GBPS + 0.085 + 0.004 + 0.35), rel=REL)


def test_cpu_context_joins_the_stop_copy_image():
    ctx = MsProfile(state_size_bytes=M, dirty_rate_norm=4 / 2559,
                    cpu_context_bytes=4096)
    plain = precopy_kpis(PROFILE, PARAMS, GBPS, 3)
    with_ctx = precopy_kpis(ctx, PARAMS, GBPS, 3)
    assert with_ctx.bytes_transferred - plain.bytes_transferred == \
        pytest.approx(4096, rel=REL)
    assert with_ctx.downtime_s > plain.downtime_s


def test_min_bandwidth_inverts_the_downtime():
    target = 1.2
    needed = min_bandwidth(PROFILE, PARAMS, target, GBPS)
    floor = 0.5 + 0.085 + 0.003 + 0.004 + 0.35
    assert needed == pytest.approx(M / (target - floor), rel=REL)
    # Running cold at the returned bandwidth hits the target exactly.
    assert cold_kpis(PROFILE, PARAMS, needed).downtime_s == pytest.approx(
        target, rel=1e-9)


def test_min_bandwidth_infeasible_cases():
    floor = 0.5 + 0.085 + 0.003 + 0.004 + 0.35
    assert min_bandwidth(PROFILE, PARAMS, floor, GBPS) is None  # at the floor
    assert min_bandwidth(PROFILE, PARAMS, 0.5, GBPS) is None  # below it
    # Feasible in principle but beyond the link.
    tight = floor + M / GBPS / 2
    assert min_bandwidth(PROFILE, PARAMS, tight, GBPS) is None
    with pytest.raises(DomainError):
        min_bandwidth(PROFILE, PARAMS, -1.0, GBPS)


def test_starved_link_predicts_an_infinite_total():
    # 1 / 5e-324 overflows every transfer to inf; with no rounds the rounds
    # term once came out as 0 * inf, a NaN total that Kpis let through.
    kpis = precopy_kpis(MsProfile(1, 1.0), ModelParams(), 5e-324, 0)
    assert kpis.total_s == kpis.downtime_s == math.inf
    for field in ("downtime_s", "total_s", "bytes_transferred"):
        values = dict(downtime_s=1.0, total_s=2.0, bytes_transferred=3.0)
        with pytest.raises(DomainError, match="KPI values must be >= 0"):
            Kpis(step_durations_s={}, **{**values, field: math.nan})


def test_min_bandwidth_empty_state():
    empty = MsProfile(state_size_bytes=0, dirty_rate_norm=0.0)
    needed = min_bandwidth(empty, PARAMS, 1.0, GBPS)
    assert needed == 0.0


def test_max_iterations_exact_count():
    choice = max_iterations(PROFILE, PARAMS, GBPS, target_duration_s=5.0)
    assert choice is not None
    assert choice.kind is StrategyKind.ITERATIVE_PRE_COPY
    # Independent check: largest I with round0 + I*per_round + down <= 5.
    v_d = M * (4 / 2559)
    round0 = 0.5 + 0.003 + M / GBPS
    per_round = 0.5 + 0.003 + v_d / GBPS
    down = 0.5 + 0.003 + v_d / GBPS + 0.085 + 0.004 + 0.35
    best = 0
    while round0 + (best + 1) * per_round + down <= 5.0:
        best += 1
    assert choice.iterations == best == 6
    # Maximality against the model itself.
    assert precopy_kpis(PROFILE, PARAMS, GBPS, best).total_s <= 5.0
    assert precopy_kpis(PROFILE, PARAMS, GBPS, best + 1).total_s > 5.0


def test_max_iterations_zero_fits_only():
    v_d = M * (4 / 2559)
    round0 = 0.5 + 0.003 + M / GBPS
    down = 0.5 + 0.003 + v_d / GBPS + 0.085 + 0.004 + 0.35
    target = round0 + down + 0.1  # room for no full extra round
    choice = max_iterations(PROFILE, PARAMS, GBPS, target)
    assert choice is not None
    assert choice.kind is StrategyKind.PRE_COPY
    assert choice.iterations == 0


def test_max_iterations_infeasible_returns_none():
    assert max_iterations(PROFILE, PARAMS, GBPS, target_duration_s=1.0) is None


def test_max_iterations_hits_the_cap():
    # Free rounds: zero fixed costs and a zero dirty envelope.
    free = ModelParams(transfer_signaling_s=0.0, ns_overhead_s=0.085,
                       flow_update_s=0.004, ckpt_fixed_s=0.5,
                       restore_fixed_s=0.35)
    clean = MsProfile(state_size_bytes=M, dirty_rate_norm=0.0)
    choice = max_iterations(clean, free, GBPS, target_duration_s=10.0)
    assert choice is not None
    assert choice.iterations == DEFAULT_ITERATION_CAP


def test_model_imports_only_the_standard_library_and_errors():
    """The model computes on Python floats: no numpy, nor anything else
    outside the standard library but the package's own errors."""
    import edgemig.model
    tree = ast.parse(Path(edgemig.model.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = {name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {".errors"}


def test_frame_loss_rounds_up():
    assert frame_loss(30.0, 0.9421) == math.ceil(30.0 * 0.9421) == 29
    assert frame_loss(30.0, 0.0) == 0
    assert frame_loss(0.0, 5.0) == 0
    with pytest.raises(DomainError):
        frame_loss(-1.0, 0.5)


def test_validation_errors():
    with pytest.raises(DomainError):
        MsProfile(state_size_bytes=-1, dirty_rate_norm=0.0)
    with pytest.raises(DomainError):
        MsProfile(state_size_bytes=M, dirty_rate_norm=1.5)
    with pytest.raises(DomainError):
        ModelParams(ckpt_fixed_s=-0.1)
    with pytest.raises(DomainError):
        cold_kpis(PROFILE, PARAMS, 0.0)
    with pytest.raises(DomainError):
        precopy_kpis(PROFILE, PARAMS, GBPS, iterations=-1)
    with pytest.raises(DomainError):
        StrategyChoice(StrategyKind.COLD, iterations=2)
    with pytest.raises(DomainError):
        StrategyChoice(StrategyKind.ITERATIVE_PRE_COPY, iterations=0)
    with pytest.raises(DomainError):
        Kpis(step_durations_s={}, downtime_s=2.0, total_s=1.0,
             bytes_transferred=0.0)


# ---------------------------------------------------------------------------
# Properties

profiles = st.builds(
    MsProfile,
    state_size_bytes=st.integers(min_value=4096, max_value=64 * 1024 * 1024),
    dirty_rate_norm=st.floats(min_value=0.0, max_value=1.0),
    # builds() fills every NamedTuple field, those with a default too.
    page_size_bytes=st.just(DEFAULT_PAGE_SIZE),
    cpu_context_bytes=st.integers(min_value=0, max_value=65536))

params_st = st.builds(
    ModelParams,
    ckpt_fixed_s=st.floats(min_value=0.0, max_value=2.0),
    ckpt_per_byte_s=st.floats(min_value=0.0, max_value=1e-7),
    pre_ckpt_fixed_s=st.floats(min_value=0.0, max_value=2.0),
    pre_ckpt_per_byte_s=st.floats(min_value=0.0, max_value=1e-7),
    restore_fixed_s=st.floats(min_value=0.0, max_value=2.0),
    restore_per_byte_s=st.floats(min_value=0.0, max_value=1e-7),
    transfer_signaling_s=st.floats(min_value=0.0, max_value=0.5),
    ns_overhead_s=st.floats(min_value=0.0, max_value=0.5),
    flow_update_s=st.floats(min_value=0.0, max_value=0.1))

bandwidths = st.floats(min_value=1e5, max_value=1e10)


@settings(max_examples=120, deadline=None)
@given(profiles, params_st, bandwidths, st.integers(0, 20))
def test_downtime_never_exceeds_total(profile, params, bw, iters):
    kpis = precopy_kpis(profile, params, bw, iters)
    assert kpis.downtime_s <= kpis.total_s * (1 + 1e-12) + 1e-12
    assert kpis.bytes_transferred >= profile.state_size_bytes


@settings(max_examples=80, deadline=None)
@given(profiles, params_st, bandwidths, st.integers(0, 19))
def test_total_nondecreasing_in_iterations(profile, params, bw, iters):
    a = precopy_kpis(profile, params, bw, iters).total_s
    b = precopy_kpis(profile, params, bw, iters + 1).total_s
    assert b >= a - 1e-12


@settings(max_examples=80, deadline=None)
@given(profiles, params_st, st.floats(min_value=0.05, max_value=30.0))
def test_min_bandwidth_is_exact_when_feasible(profile, params, target):
    needed = min_bandwidth(profile, params, target, 1e12)
    if needed is None or needed == 0.0:
        return
    achieved = cold_kpis(profile, params, needed).downtime_s
    assert achieved == pytest.approx(target, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(profiles, params_st, bandwidths, st.floats(min_value=0.1, max_value=60.0))
def test_max_iterations_is_maximal(profile, params, bw, target):
    choice = max_iterations(profile, params, bw, target)
    if choice is None:
        assert precopy_kpis(profile, params, bw, 0).total_s > target
        return
    total = precopy_kpis(profile, params, bw, choice.iterations).total_s
    assert total <= target * (1 + 1e-12)
    if choice.iterations < DEFAULT_ITERATION_CAP:
        bigger = precopy_kpis(profile, params, bw, choice.iterations + 1)
        assert bigger.total_s > target * (1 - 1e-12)
