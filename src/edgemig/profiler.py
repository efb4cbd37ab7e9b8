"""Workload profiling and pipeline cost calibration.

Two concerns live here: estimating how fast a running service dirties its
memory (and normalizing that against the fastest possible rewrite rate),
and fitting the affine phase costs of :class:`edgemig.model.ModelParams`
from timed calibration runs. The simulator's model of page dirtying is
:func:`edgemig.simnet.dirty_set_size`; nothing here generates writes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


@np.errstate(over="ignore")  # an overflowing mean rate is inf
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
    rate = worst.rate_pages_per_s
    window = worst.window_s
    r_min = 1.0 / window
    r_max = total_pages / window
    if r_max <= r_min:
        # Single-page state: any activity is full-rate activity.
        normalized = 1.0 if rate >= r_max else 0.0
    else:
        normalized = (rate - r_min) / (r_max - r_min)
        normalized = min(1.0, max(0.0, normalized))
    mean = float(np.mean([s.rate_pages_per_s for s in samples]))
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


def _affine_nnls(sizes: np.ndarray, durations: np.ndarray
                 ) -> tuple[float, float, float]:
    """Nonnegative least-squares fit of duration = fixed + per_byte * size.

    Two unknowns have a closed form: the centred least-squares line when
    both coefficients come out nonnegative, otherwise the better of the two
    boundary fits (no intercept, or no slope), each clamped at zero. The
    size column is rescaled to unit range first, so that raw byte counts
    (~1e7) do not swamp the constant column.
    """
    scale = float(sizes.max())
    x = sizes / scale
    y = durations
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean())) / float(dx @ dx)
    fixed = float(y.mean()) - slope * float(x.mean())
    if fixed < 0 or slope < 0:
        candidates = ((0.0, max(0.0, float(x @ y) / float(x @ x))),
                      (max(0.0, float(y.mean())), 0.0))
        fixed, slope = min(
            candidates,
            key=lambda c: float(np.sum((y - c[0] - c[1] * x) ** 2)))
    per_byte = slope / scale
    residual = durations - (fixed + per_byte * sizes)
    rms = float(np.sqrt(np.mean(residual ** 2)))
    return fixed, per_byte, rms


@np.errstate(over="ignore", invalid="ignore")  # ModelParams rejects NaN, inf
def calibration_fit(runs: Iterable[CalibrationRun]) -> CalibrationFit:
    """Fit affine phase costs from calibration runs.

    Checkpoint and restore durations are each regressed against image size
    with coefficients constrained nonnegative. The signaling overhead is
    the mean of what remains of each transfer after the serialization delay
    image_bytes / bandwidth is removed, clamped at zero. At least two runs
    with distinct image sizes are required, otherwise the affine fits are
    under-determined.

    Namespace and flow-update overheads are step constants, not regression
    targets; they stay zero and are set by the caller from direct
    measurements.
    """
    runs = list(runs)
    sizes = np.array([r.image_bytes for r in runs], dtype=float)
    if len(runs) < 2 or sizes.min() == sizes.max():
        raise CalibrationError(
            "parameter fit is under-determined: need runs at two or more "
            "distinct image sizes")
    ckpt = np.array([r.checkpoint_s for r in runs], dtype=float)
    rest = np.array([r.restore_s for r in runs], dtype=float)
    ckpt_fixed, ckpt_per_byte, ckpt_rms = _affine_nnls(sizes, ckpt)
    rest_fixed, rest_per_byte, rest_rms = _affine_nnls(sizes, rest)
    residuals = np.array([r.transfer_s - r.image_bytes / r.bandwidth_bytes_per_s
                          for r in runs])
    signaling = max(0.0, float(np.mean(residuals)))
    transfer_rms = float(np.sqrt(np.mean((residuals - signaling) ** 2)))
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
