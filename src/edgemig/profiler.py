"""Workload profiling and pipeline cost calibration.

Two concerns live here: estimating how fast a running service dirties its
memory (and normalizing that against the fastest possible rewrite rate),
and fitting the affine phase costs of :class:`edgemig.model.ModelParams`
from timed calibration runs. The simulator's model of page dirtying is
:func:`edgemig.simnet.dirty_set_size`; nothing here generates writes.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, NamedTuple, Sequence

from .errors import CalibrationError, DomainError, check_number, checked
from .model import DEFAULT_PAGE_SIZE, ModelParams, MsProfile


@checked
class DirtySample(NamedTuple):
    """One profiling observation: pages modified over a sampling window."""

    window_s: float
    pages_modified: int

    def _check(self) -> None:
        check_number("window_s", self.window_s, above=True)
        check_number("pages_modified", self.pages_modified, whole=True)

    @property
    def rate_pages_per_s(self) -> float:
        return self.pages_modified / self.window_s


class DirtyRateEstimate(NamedTuple):
    """Worst-case dirty rate plus its normalized form.

    rate_pages_per_s is the maximum observed rate (worst case wins; the
    model is an upper-bound model). normalized maps that rate onto [0, 1]
    between the slowest measurable rate (one page per window) and the rate
    at which the whole state is rewritten every window.
    mean_rate_pages_per_s is kept as a secondary descriptive statistic.
    """

    rate_pages_per_s: float
    normalized: float
    mean_rate_pages_per_s: float
    window_s: float


def _pairwise_sum(v: Sequence[float]) -> float:
    """numpy's float sum, to the bit: in order below 8 terms, in eight
    interleaved running sums up to 128, halved at a multiple of 8 above."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    if n < 8:
        return functools.reduce(operator.add, v, 0.0)
    end = n - n % 8
    r = [functools.reduce(operator.add, v[j:end:8]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, v[end:], total)


def _mean(values: Sequence[float]) -> float:
    """``numpy.mean`` of floats, to the bit; an overflow is inf."""
    return _pairwise_sum(values) / len(values)


def _mean_square(values: Sequence[float]) -> float:
    return _mean([x * x for x in values])  # x ** 2 raises, not inf


def estimate_dirty_rate(samples: Sequence[DirtySample],
                        state_size_bytes: int,
                        page_size_bytes: int = DEFAULT_PAGE_SIZE
                        ) -> DirtyRateEstimate:
    """Reduce profiling samples to a normalized worst-case dirty rate.

    The maximum per-window rate is taken as the estimate, and normalized
    between R_min = 1/window and R_max = total_pages/window, where the
    window is the one that produced the maximum. The result is clamped to
    [0, 1].
    """
    if not samples:
        raise DomainError("need at least one dirty sample")
    # The profile checks both sizes and owns the page count.
    total_pages = MsProfile(state_size_bytes, 0.0, page_size_bytes).total_pages
    if state_size_bytes < page_size_bytes:
        raise DomainError("state must span at least one page")
    worst = max(samples, key=lambda s: s.rate_pages_per_s)
    rate, window = worst.rate_pages_per_s, worst.window_s
    r_min, r_max = 1.0 / window, total_pages / window
    if r_max <= r_min:
        # Single-page state: any activity is full-rate activity.
        normalized = 1.0 if rate >= r_max else 0.0
    else:
        normalized = min(1.0, max(0.0, (rate - r_min) / (r_max - r_min)))
    mean = _mean([s.rate_pages_per_s for s in samples])
    return DirtyRateEstimate(rate_pages_per_s=rate, normalized=normalized,
                             mean_rate_pages_per_s=mean, window_s=window)


@checked
class CalibrationRun(NamedTuple):
    """Timings of one instrumented migration used for parameter fitting."""

    image_bytes: float
    checkpoint_s: float
    restore_s: float
    transfer_s: float
    bandwidth_bytes_per_s: float

    def _check(self) -> None:
        for n in ("image_bytes", "checkpoint_s", "restore_s", "transfer_s"):
            check_number(n, getattr(self, n))
        check_number("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s,
                     above=True)


class CalibrationFit(NamedTuple):
    """Fitted parameters plus root-mean-square residuals per regression."""

    params: ModelParams
    checkpoint_rms_s: float
    restore_rms_s: float
    transfer_rms_s: float


def _affine_nnls(sizes: Sequence[float], durations: Sequence[float]
                 ) -> tuple[float, float, float]:
    """Nonnegative least-squares fit of duration = fixed + per_byte * size.

    Two unknowns have a closed form: the centred least-squares line when
    both coefficients come out nonnegative, otherwise the better of the two
    boundary fits (no intercept, or no slope), each clamped at zero. The
    size column is rescaled to unit range first, so that raw byte counts
    (~1e7) do not swamp the constant column.
    """
    scale = max(sizes)
    xs = [size / scale for size in sizes]
    x_mean, y_mean = _mean(xs), _mean(durations)
    dx = [x - x_mean for x in xs]
    slope = (_mean([d * (y - y_mean) for d, y in zip(dx, durations)])
             / _mean_square(dx))
    fixed = y_mean - slope * x_mean
    if fixed < 0 or slope < 0:
        origin = (_mean([x * y for x, y in zip(xs, durations)])
                  / _mean_square(xs))
        fixed, slope = min(
            ((0.0, max(0.0, origin)), (max(0.0, y_mean), 0.0)),
            key=lambda c: _mean_square([y - c[0] - c[1] * x
                                        for x, y in zip(xs, durations)]))
    per_byte = slope / scale
    return fixed, per_byte, math.sqrt(_mean_square(
        [y - (fixed + per_byte * size) for size, y in zip(sizes, durations)]))


def calibration_fit(runs: Iterable[CalibrationRun]) -> CalibrationFit:
    """Fit affine phase costs from calibration runs.

    Checkpoint and restore durations are each regressed against image size
    with coefficients constrained nonnegative. The signaling overhead is
    the mean of what remains of each transfer after the serialization delay
    image_bytes / bandwidth is removed, clamped at zero. At least two runs
    with distinct image sizes are required, otherwise the affine fits are
    under-determined. An overflow is inf, which ModelParams rejects.

    Namespace and flow-update overheads are step constants, not regression
    targets; they stay zero and are set by the caller from direct
    measurements.
    """
    runs = list(runs)
    sizes = [float(r.image_bytes) for r in runs]
    if len(runs) < 2 or min(sizes) == max(sizes):
        raise CalibrationError(
            "parameter fit is under-determined: need runs at two or more "
            "distinct image sizes")
    ckpt_fixed, ckpt_per_byte, ckpt_rms = _affine_nnls(
        sizes, [float(r.checkpoint_s) for r in runs])
    rest_fixed, rest_per_byte, rest_rms = _affine_nnls(
        sizes, [float(r.restore_s) for r in runs])
    residuals = [r.transfer_s - r.image_bytes / r.bandwidth_bytes_per_s
                 for r in runs]
    signaling = max(0.0, _mean(residuals))
    transfer_rms = math.sqrt(_mean_square([r - signaling
                                           for r in residuals]))
    params = ModelParams(
        ckpt_fixed_s=ckpt_fixed,
        ckpt_per_byte_s=ckpt_per_byte,
        # Running-state checkpoints default to the frozen-state costs until
        # measured separately.
        pre_ckpt_fixed_s=ckpt_fixed,
        pre_ckpt_per_byte_s=ckpt_per_byte,
        restore_fixed_s=rest_fixed,
        restore_per_byte_s=rest_per_byte,
        transfer_signaling_s=signaling,
    )
    return CalibrationFit(params=params, checkpoint_rms_s=ckpt_rms,
                          restore_rms_s=rest_rms, transfer_rms_s=transfer_rms)
