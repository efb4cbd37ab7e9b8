"""Tests for dirty-rate estimation and calibration."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgemig.errors import CalibrationError, DomainError
from edgemig.profiler import (
    CalibrationRun,
    DirtySample,
    _affine_nnls,
    _mean,
    calibration_fit,
    estimate_dirty_rate,
)

M = 10_485_760  # 2560 pages


def test_estimate_takes_the_worst_window():
    samples = [DirtySample(1.0, 3), DirtySample(1.0, 5), DirtySample(1.0, 4)]
    est = estimate_dirty_rate(samples, state_size_bytes=M)
    assert est.rate_pages_per_s == 5.0
    assert est.mean_rate_pages_per_s == pytest.approx(4.0)
    assert est.window_s == 1.0
    # r = (R - R_min) / (R_max - R_min) with R_min=1/s and R_max=2560/s.
    assert est.normalized == pytest.approx((5.0 - 1.0) / (2560.0 - 1.0))


def test_estimate_uses_the_maximizing_sample_window():
    samples = [DirtySample(1.0, 5), DirtySample(0.5, 4)]  # 8 pages/s wins
    est = estimate_dirty_rate(samples, state_size_bytes=M)
    assert est.rate_pages_per_s == 8.0
    assert est.window_s == 0.5
    r_min, r_max = 1.0 / 0.5, 2560.0 / 0.5
    assert est.normalized == pytest.approx((8.0 - r_min) / (r_max - r_min))


def test_estimate_clamps():
    hot = [DirtySample(1.0, 10_000_000)]
    assert estimate_dirty_rate(hot, state_size_bytes=M).normalized == 1.0
    idle = [DirtySample(1.0, 0)]
    assert estimate_dirty_rate(idle, state_size_bytes=M).normalized == 0.0


def test_estimate_single_page_state():
    # R_max collapses onto R_min; activity is all-or-nothing.
    busy = estimate_dirty_rate([DirtySample(1.0, 1)], state_size_bytes=4096,
                               page_size_bytes=4096)
    assert busy.normalized == 1.0
    quiet = estimate_dirty_rate([DirtySample(1.0, 0)], state_size_bytes=4096,
                                page_size_bytes=4096)
    assert quiet.normalized == 0.0


def test_estimate_validation():
    with pytest.raises(DomainError):
        estimate_dirty_rate([], state_size_bytes=M)
    with pytest.raises(DomainError):
        estimate_dirty_rate([DirtySample(1.0, 1)], state_size_bytes=100,
                            page_size_bytes=4096)
    with pytest.raises(DomainError):
        DirtySample(0.0, 1)
    with pytest.raises(DomainError):
        DirtySample(1.0, -1)


@pytest.mark.parametrize("size", [float("nan"), float("inf"), float("-inf"),
                                  True], ids=repr)
def test_estimate_rejects_a_state_size_that_is_no_byte_count(size):
    with pytest.raises(DomainError, match="state_size_bytes"):
        estimate_dirty_rate([DirtySample(1.0, 1)], state_size_bytes=size)


def test_mean_is_numpys_to_the_bit():
    # numpy's pairwise sum, ported: 3,000 random arrays of 1-1,000 floats
    # over ten decades and both signs, where the order of the sums shows.
    rng = random.Random(2026)
    for _ in range(3000):
        values = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-5, 5)
                  for _ in range(rng.randint(1, 1000))]
        assert _mean(values) == float(np.mean(values))


def test_overflowing_mean_rate_is_inf():
    samples = [DirtySample(1e-300, 10**300), DirtySample(1.0, 1)]
    est = estimate_dirty_rate(samples, state_size_bytes=M)
    assert est.mean_rate_pages_per_s == est.rate_pages_per_s == float("inf")


# ---------------------------------------------------------------------------
# Calibration


def _affine_runs(sizes, ckpt=(0.5, 2e-9), rest=(0.35, 3e-9), sig=0.004,
                 bw=125e6):
    return [CalibrationRun(image_bytes=float(b),
                           checkpoint_s=ckpt[0] + ckpt[1] * b,
                           restore_s=rest[0] + rest[1] * b,
                           transfer_s=sig + b / bw,
                           bandwidth_bytes_per_s=bw)
            for b in sizes]


def test_fit_recovers_exact_affine_costs():
    fit = calibration_fit(_affine_runs([500_000, 2_000_000, 10_000_000]))
    p = fit.params
    assert p.ckpt_fixed_s == pytest.approx(0.5, rel=1e-6)
    assert p.ckpt_per_byte_s == pytest.approx(2e-9, rel=1e-6)
    assert p.restore_fixed_s == pytest.approx(0.35, rel=1e-6)
    assert p.restore_per_byte_s == pytest.approx(3e-9, rel=1e-6)
    assert p.transfer_signaling_s == pytest.approx(0.004, rel=1e-6)
    # Running-state checkpoints share the stop-side fit by default.
    assert p.pre_ckpt_fixed_s == p.ckpt_fixed_s
    assert p.pre_ckpt_per_byte_s == p.ckpt_per_byte_s
    assert fit.checkpoint_rms_s < 1e-9
    assert fit.restore_rms_s < 1e-9
    assert fit.transfer_rms_s < 1e-9
    # Overheads are not observable from these runs and stay zero.
    assert p.ns_overhead_s == 0.0 and p.flow_update_s == 0.0


def test_fit_clamps_negative_slopes_to_zero():
    runs = [CalibrationRun(image_bytes=500_000.0, checkpoint_s=1.418,
                           restore_s=0.902, transfer_s=1.19,
                           bandwidth_bytes_per_s=125e6),
            CalibrationRun(image_bytes=10_000_000.0, checkpoint_s=1.384,
                           restore_s=0.934, transfer_s=1.267,
                           bandwidth_bytes_per_s=125e6)]
    p = calibration_fit(runs).params
    # Checkpoint durations shrink with size; the affine fit floors at a
    # flat cost instead of going negative.
    assert p.ckpt_per_byte_s == 0.0
    assert p.ckpt_fixed_s == pytest.approx((1.418 + 1.384) / 2, rel=1e-9)
    assert p.restore_per_byte_s > 0.0


def test_fit_signaling_is_mean_residual():
    runs = _affine_runs([1_000_000, 8_000_000], sig=0.25)
    p = calibration_fit(runs).params
    assert p.transfer_signaling_s == pytest.approx(0.25, rel=1e-9)


def test_fit_needs_two_distinct_sizes():
    with pytest.raises(CalibrationError):
        calibration_fit(_affine_runs([1_000_000]))
    with pytest.raises(CalibrationError):
        calibration_fit(_affine_runs([1_000_000, 1_000_000]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 4096.0, 2.0**30]),
                max_size=6))
def test_fit_is_under_determined_exactly_without_two_distinct_sizes(sizes):
    runs = _affine_runs(sizes)
    if len(set(sizes)) < 2:
        with pytest.raises(CalibrationError, match="under-determined"):
            calibration_fit(runs)
    else:
        assert calibration_fit(runs).checkpoint_rms_s < 1e-9


def _check_affine_nnls(sizes, durations):
    """The closed-form fit is the NNLS optimum and agrees with scipy's."""
    from scipy.optimize import nnls

    fixed, per_byte, rms = _affine_nnls(sizes.tolist(), durations.tolist())
    scale = sizes.max()
    design = np.column_stack([np.ones_like(sizes), sizes / scale])
    coeffs = np.array([fixed, per_byte * scale])
    # KKT: nonnegative coefficients, a gradient that is nonnegative, and
    # zero wherever the coefficient is positive.
    gradient = design.T @ (design @ coeffs - durations)
    tol = 1e-9 * len(durations) * (1.0 + durations.max())
    assert (coeffs >= 0).all()
    assert (gradient >= -tol).all()
    assert (np.abs(gradient[coeffs > 0]) <= tol).all()
    expected, _ = nnls(design, durations)
    np.testing.assert_allclose(coeffs, expected, rtol=1e-9, atol=1e-12)
    expected_rms = np.sqrt(np.mean((design @ expected - durations) ** 2))
    np.testing.assert_allclose(rms, expected_rms, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("sizes, durations, negative", [
    # Steep rise from mid-range sizes: the unconstrained intercept is < 0.
    ([4e6, 6e6, 8e6], [0.0, 1.0, 2.0], "intercept"),
    # Durations shrink with size, including a zero-size image: slope < 0.
    ([0.0, 5e6, 1e7], [1.0, 0.8, 0.7], "slope"),
    # A zero-size image on an exact affine line: nothing to clamp.
    ([0.0, 1e6, 3e6], [0.5, 0.502, 0.506], None),
])
def test_affine_fit_clamps_like_scipy(sizes, durations, negative):
    sizes, durations = np.array(sizes), np.array(durations)
    slope, intercept = np.polyfit(sizes, durations, 1)
    assert (intercept < 0, slope < 0) == (negative == "intercept",
                                          negative == "slope")
    _check_affine_nnls(sizes, durations)


fit_points = st.integers(2, 24).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 1 << 27), min_size=n, max_size=n),
    st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(fit_points, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example(([1 << 26, 1 << 27], [0.0, 0.0]), -1.0, 2.0)   # intercept < 0
@example(([0, 1 << 26, 1 << 27], [0.0, 0.0, 0.0]), 1.0, -0.5)  # slope < 0
def test_affine_fit_matches_scipy_nnls(points, intercept, slope):
    raw_sizes, noise = points
    sizes = np.array(raw_sizes, dtype=float)
    assume(sizes.max() > 0 and np.ptp(sizes) >= 1e-3 * sizes.max())
    x = sizes / sizes.max()
    durations = np.abs(intercept + slope * x + np.array(noise))
    _check_affine_nnls(sizes, durations)
