"""Tests for dirty-rate estimation, synthetic traces, and calibration."""

import numpy as np
import pytest

from edgemig.errors import CalibrationError, DomainError
from edgemig.profiler import (
    CalibrationRun,
    DirtySample,
    SyntheticWorkload,
    calibration_fit,
    estimate_dirty_rate,
    synthetic_dirty_trace,
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


# ---------------------------------------------------------------------------
# Synthetic traces


def test_trace_event_count_tracks_the_rate():
    config = SyntheticWorkload(state_size_bytes=4 * 1024 * 1024,
                               target_dirty_rate_pages_per_s=100.0,
                               duration_s=10.0, seed=1)
    trace = synthetic_dirty_trace(config)
    assert abs(len(trace) - 1000) <= 1
    times = [t for t, _ in trace]
    assert times == sorted(times)
    assert all(0.0 <= t <= 10.0 for t in times)
    pages = [p for _, p in trace]
    assert all(0 <= p < config.total_pages for p in pages)


@pytest.mark.parametrize("rate,duration", [(3.0, 7.0), (41.5, 2.0),
                                           (1000.0, 0.5)])
def test_trace_count_within_one_of_target(rate, duration):
    config = SyntheticWorkload(state_size_bytes=M,
                               target_dirty_rate_pages_per_s=rate,
                               duration_s=duration, seed=99)
    trace = synthetic_dirty_trace(config)
    assert abs(len(trace) - rate * duration) <= 1.0


def test_trace_determinism():
    config = SyntheticWorkload(state_size_bytes=M,
                               target_dirty_rate_pages_per_s=50.0,
                               duration_s=5.0, seed=7)
    assert synthetic_dirty_trace(config) == synthetic_dirty_trace(config)
    other = SyntheticWorkload(state_size_bytes=M,
                              target_dirty_rate_pages_per_s=50.0,
                              duration_s=5.0, seed=8)
    assert synthetic_dirty_trace(other) != synthetic_dirty_trace(config)


def test_trace_pages_spread_over_the_state():
    config = SyntheticWorkload(state_size_bytes=M,
                               target_dirty_rate_pages_per_s=2000.0,
                               duration_s=10.0, seed=3)
    pages = np.array([p for _, p in synthetic_dirty_trace(config)])
    # Uniform targets: both halves of the page range see traffic.
    assert (pages < 1280).any() and (pages >= 1280).any()
    assert np.unique(pages).size > 1000


def test_trace_validation():
    with pytest.raises(DomainError):
        SyntheticWorkload(state_size_bytes=0,
                          target_dirty_rate_pages_per_s=1.0, duration_s=1.0,
                          seed=0)
    with pytest.raises(DomainError):
        SyntheticWorkload(state_size_bytes=M,
                          target_dirty_rate_pages_per_s=0.0, duration_s=1.0,
                          seed=0)


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
