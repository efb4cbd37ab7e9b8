"""Worst-case analytic model of stateful container migration.

All quantities are carried in bytes and seconds. Bandwidth is bytes per
second everywhere inside the package; command-line front ends convert from
Mbps at the boundary (1 Mbps = 125000 B/s, see :data:`BYTES_PER_S_PER_MBPS`).

Three strategies are covered:

* cold: checkpoint, transfer, restore, with the service frozen throughout;
* pre-copy: one full-state copy while the service keeps running, then a
  stop-and-copy pass over whatever got dirtied (iterations = 0);
* iterative pre-copy: same, plus a configured number of dirty-page rounds
  between the initial copy and the stop-and-copy pass.

Every per-phase cost is affine in the number of bytes handled
(fixed + per_byte * bytes), and the dirty-page process is pinned to its
profiled worst case, so every prediction is an upper bound for a run whose
realized dirty rate stays at or below the profile.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from typing import Mapping, NamedTuple, Optional

from .errors import DomainError, check_number, checked

# Bandwidth unit conversion used by the interface layers.
BYTES_PER_S_PER_MBPS = 125_000.0

DEFAULT_PAGE_SIZE = 4096
# Upper bound on dirty-page rounds a designer will ever configure.
DEFAULT_ITERATION_CAP = 64

# Stop-and-copy pipeline step identifiers. The namespace clear at the source
# and the recreation at the destination run in parallel and are accounted as
# one wall-clock contribution, hence the combined key.
STEP_CHECKPOINT = "S1"
STEP_NAMESPACE = "S2||S4"
STEP_TRANSFER = "S3"
STEP_FLOW_UPDATE = "S5"
STEP_RESTORE = "S6"


class StrategyKind(str, Enum):
    COLD = "cold"
    PRE_COPY = "precopy"
    ITERATIVE_PRE_COPY = "iterative_precopy"


@checked
class MsProfile(NamedTuple):
    """Migration-relevant profile of one microservice.

    dirty_rate_norm is the page-dirtying rate normalized to [0, 1] against
    the fastest rate the state could be rewritten at (see
    :func:`edgemig.profiler.estimate_dirty_rate`). cpu_context_bytes is the
    part of a stop-and-copy image that is not dirty pages (CPU registers and
    similar bookkeeping).
    """

    state_size_bytes: int
    dirty_rate_norm: float
    page_size_bytes: int = DEFAULT_PAGE_SIZE
    cpu_context_bytes: int = 0

    def _check(self) -> None:
        check_number("state_size_bytes", self.state_size_bytes, whole=True)
        check_number("page_size_bytes", self.page_size_bytes, 1, whole=True)
        check_number("dirty_rate_norm", self.dirty_rate_norm, high=1)
        check_number("cpu_context_bytes", self.cpu_context_bytes, whole=True)

    @property
    def total_pages(self) -> int:
        return math.ceil(self.state_size_bytes / self.page_size_bytes)


@checked
class ModelParams(NamedTuple):
    """Fitted affine costs of the migration pipeline phases.

    ``ckpt_*`` applies to checkpoints taken with the service frozen,
    ``pre_ckpt_*`` to checkpoints taken while it keeps running. The
    ``transfer_signaling_s`` term is the fixed per-transfer overhead
    (connection setup and control traffic); the volume-dependent part of a
    transfer is bytes / bandwidth and lives in the formulas, not here.
    """

    ckpt_fixed_s: float = 0.0
    ckpt_per_byte_s: float = 0.0
    pre_ckpt_fixed_s: float = 0.0
    pre_ckpt_per_byte_s: float = 0.0
    restore_fixed_s: float = 0.0
    restore_per_byte_s: float = 0.0
    transfer_signaling_s: float = 0.0
    ns_overhead_s: float = 0.0
    flow_update_s: float = 0.0

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            check_number(name, value)


@checked
class Kpis(NamedTuple):
    """Predicted or measured key indicators of one migration."""

    step_durations_s: Mapping[str, float]
    downtime_s: float
    total_s: float
    bytes_transferred: float

    def _check(self) -> None:
        # Not check_number: +inf is a real prediction on a starved link.
        if not (self.downtime_s >= 0 and self.total_s >= 0
                and self.bytes_transferred >= 0):
            raise DomainError("KPI values must be >= 0")
        # Tiny slack: both values may come out of long float chains.
        if self.downtime_s > self.total_s * (1 + 1e-9) + 1e-12:
            raise DomainError("downtime cannot exceed total migration time")


@checked
class StrategyChoice(NamedTuple):
    """A migration strategy plus its iteration count.

    iterations is meaningful only for ITERATIVE_PRE_COPY (where it is >= 1);
    COLD and PRE_COPY carry 0.
    """

    kind: StrategyKind
    iterations: int = 0

    def _check(self) -> None:
        if self.kind is StrategyKind.ITERATIVE_PRE_COPY:
            if self.iterations < 1:
                raise DomainError("iterative pre-copy needs iterations >= 1")
        elif self.iterations != 0:
            raise DomainError(f"{self.kind.value} carries no iterations")


def checkpoint_duration(params: ModelParams, image_bytes: float) -> float:
    """Frozen-state checkpoint cost for an image of the given size."""
    return params.ckpt_fixed_s + params.ckpt_per_byte_s * image_bytes


def pre_checkpoint_duration(params: ModelParams, image_bytes: float) -> float:
    """Running-state checkpoint cost for an image of the given size."""
    return params.pre_ckpt_fixed_s + params.pre_ckpt_per_byte_s * image_bytes


def restore_duration(params: ModelParams, image_bytes: float) -> float:
    return params.restore_fixed_s + params.restore_per_byte_s * image_bytes


def transfer_duration(params: ModelParams, image_bytes: float,
                      bandwidth_bytes_per_s: float) -> float:
    """Signaling overhead plus serialization delay of one image transfer."""
    if bandwidth_bytes_per_s <= 0:
        raise DomainError("bandwidth must be > 0")
    return params.transfer_signaling_s + image_bytes / bandwidth_bytes_per_s


def worst_case_dirty_bytes(profile: MsProfile) -> float:
    """Largest per-round dirty volume the profile admits."""
    return profile.dirty_rate_norm * profile.state_size_bytes


def stop_copy_image_bytes(profile: MsProfile) -> float:
    """Worst-case stop-and-copy image: dirty pages plus CPU context."""
    return worst_case_dirty_bytes(profile) + profile.cpu_context_bytes


def _downtime_terms(params: ModelParams, image_bytes: float,
                    bandwidth_bytes_per_s: float) -> dict[str, float]:
    """Per-step durations of the stop-and-copy pipeline for one image."""
    return {
        STEP_CHECKPOINT: checkpoint_duration(params, image_bytes),
        STEP_NAMESPACE: params.ns_overhead_s,
        STEP_TRANSFER: transfer_duration(params, image_bytes,
                                         bandwidth_bytes_per_s),
        STEP_FLOW_UPDATE: params.flow_update_s,
        STEP_RESTORE: restore_duration(params, image_bytes),
    }


def cold_kpis(profile: MsProfile, params: ModelParams,
              bandwidth_bytes_per_s: float) -> Kpis:
    """Predict a cold migration: the service is frozen for the whole move.

    Downtime equals total duration and the full state is the only image
    transferred.
    """
    steps = _downtime_terms(params, float(profile.state_size_bytes),
                            bandwidth_bytes_per_s)
    downtime = sum(steps.values())
    return Kpis(steps, downtime, downtime, float(profile.state_size_bytes))


def _precopy_terms(profile: MsProfile, params: ModelParams,
                   bandwidth_bytes_per_s: float
                   ) -> tuple[float, float, dict[str, float]]:
    """(initial round, per-iteration round, stop-and-copy step durations)."""
    state = float(profile.state_size_bytes)
    dirty = worst_case_dirty_bytes(profile)
    round0 = (pre_checkpoint_duration(params, state)
              + transfer_duration(params, state, bandwidth_bytes_per_s))
    per_round = (pre_checkpoint_duration(params, dirty)
                 + transfer_duration(params, dirty, bandwidth_bytes_per_s))
    steps = _downtime_terms(params, stop_copy_image_bytes(profile),
                            bandwidth_bytes_per_s)
    return round0, per_round, steps


def precopy_kpis(profile: MsProfile, params: ModelParams,
                 bandwidth_bytes_per_s: float, iterations: int = 0) -> Kpis:
    """Predict a (possibly iterative) pre-copy migration.

    iterations = 0 is plain pre-copy: full copy while running, then
    stop-and-copy. Each extra iteration retransmits the worst-case dirty
    volume once more before the service is frozen.
    """
    check_number("iterations", iterations, whole=True)
    round0, per_round, steps = _precopy_terms(profile, params,
                                              bandwidth_bytes_per_s)
    downtime = sum(steps.values())
    # Without rounds, adds 0.0: a starved link's 0 * inf would be NaN.
    total = round0 + (iterations * per_round if iterations else 0.0) + downtime
    transferred = (float(profile.state_size_bytes)
                   + iterations * worst_case_dirty_bytes(profile)
                   + stop_copy_image_bytes(profile))
    return Kpis(steps, downtime, total, transferred)


def min_bandwidth(profile: MsProfile, params: ModelParams,
                  target_downtime_s: float,
                  available_bandwidth_bytes_per_s: float) -> Optional[float]:
    """Smallest bandwidth at which a cold migration meets a downtime target.

    Inverts the cold downtime formula. Everything that does not depend on
    bandwidth (checkpoint, restore, namespace and flow overheads, transfer
    signaling) forms a floor; if the target does not clear that floor, or
    the required bandwidth exceeds what the link offers, the target is
    unreachable and None is returned. Infeasibility is an answer here, not
    an error.
    """
    check_number("target_downtime_s", target_downtime_s, above=True)
    check_number("available_bandwidth_bytes_per_s",
                 available_bandwidth_bytes_per_s, above=True)
    state = float(profile.state_size_bytes)
    # Cold downtime at infinite bandwidth, where state / inf is 0.0.
    floor_s = sum(_downtime_terms(params, state, math.inf).values())
    if target_downtime_s <= floor_s:
        return None
    needed = state / (target_downtime_s - floor_s)
    if needed > available_bandwidth_bytes_per_s:
        return None
    return needed


def max_iterations(profile: MsProfile, params: ModelParams,
                   bandwidth_bytes_per_s: float, target_duration_s: float
                   ) -> Optional[StrategyChoice]:
    """Largest iteration count whose predicted total stays within a target.

    An ITERATIVE_PRE_COPY choice when at least one iteration fits, a
    PRE_COPY choice when only the iteration-free variant fits, and None
    when even that overruns the target. Below DEFAULT_ITERATION_CAP, its
    clamp, the count is maximal: one more iteration would overrun.
    """
    return iteration_choice(iteration_counts(
        profile, params, bandwidth_bytes_per_s, target_duration_s))


def iteration_counts(profile: MsProfile, params: ModelParams,
                     bandwidth_bytes_per_s: float,
                     target_duration_s: float) -> int:
    """:func:`max_iterations` as a count.

    The count is the largest number of iterations (0 for plain pre-copy)
    whose predicted total stays within the target, or -1 when even plain
    pre-copy overruns it; :func:`iteration_choice` turns a count into a
    strategy. It is found by searching the predictor itself: the predicted
    total never decreases as iterations are added, and every probe is
    :func:`precopy_kpis`'s own sum in its own order, so the two agree to
    the last bit.
    """
    check_number("target_duration_s", target_duration_s, above=True)
    round0, per_round, steps = _precopy_terms(profile, params,
                                              bandwidth_bytes_per_s)
    downtime = sum(steps.values())
    # Binary search up from -1: steps of 64, 32, ..., 1 can reach 126, past
    # the cap, and a probe that fits is kept. A starved link (the smallest
    # positive bandwidth) overflows the round terms to inf and 0 * inf to
    # nan; both fail the <= test, so such a bandwidth comes out an overrun.
    count = -1
    step = 1 << ((DEFAULT_ITERATION_CAP + 1).bit_length() - 1)
    while step:
        total = round0 + (count + step) * per_round + downtime
        count += step * (total <= target_duration_s)
        step //= 2
    return min(count, DEFAULT_ITERATION_CAP)


def iteration_thresholds(profile: MsProfile, params: ModelParams,
                         target_duration_s: float, low: float, high: float
                         ) -> tuple[int, list[float]]:
    """(count at bandwidth ``low``, thresholds), where ``thresholds[i]`` is
    the smallest bandwidth in (low, high] whose :func:`iteration_counts`
    count is at least that count + 1 + i, for each count ``high`` reaches.

    No term of the predicted total rises with bandwidth, even rounded, so
    the count at a bandwidth in [low, high] is the count at ``low`` plus
    the thresholds at or below it. Positive floats order as their bit
    patterns do, and bisecting those makes each threshold exact.
    """
    def count(bits: int) -> int:
        bandwidth, = struct.unpack("<d", struct.pack("<q", bits))
        return iteration_counts(profile, params, bandwidth, target_duration_s)
    lo, top = struct.unpack("<2q", struct.pack("<2d", low, high))
    base, thresholds = count(lo), []
    for n in range(base + 1, count(top) + 1):  # the count at lo is below n
        hi = top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if count(mid) >= n else (mid, hi)
        thresholds += struct.unpack("<d", struct.pack("<q", hi))
    return base, thresholds


def iteration_choice(count: int) -> Optional[StrategyChoice]:
    """The strategy an :func:`iteration_counts` count stands for."""
    if count < 0:
        return None
    if count >= 1:
        return StrategyChoice(StrategyKind.ITERATIVE_PRE_COPY, count)
    return StrategyChoice(StrategyKind.PRE_COPY)


def frame_loss(inference_rate_fps: float, downtime_s: float) -> int:
    """Frames an analytics pipeline drops while its source is frozen."""
    check_number("inference_rate_fps", inference_rate_fps)
    check_number("downtime_s", downtime_s)
    return math.ceil(inference_rate_fps * downtime_s)
