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
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import DomainError

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

STEP_ORDER = (STEP_CHECKPOINT, STEP_NAMESPACE, STEP_TRANSFER,
              STEP_FLOW_UPDATE, STEP_RESTORE)


class StrategyKind(str, Enum):
    COLD = "cold"
    PRE_COPY = "precopy"
    ITERATIVE_PRE_COPY = "iterative_precopy"


@dataclass(frozen=True, slots=True)
class MsProfile:
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

    def __post_init__(self) -> None:
        if self.state_size_bytes < 0:
            raise DomainError("state_size_bytes must be >= 0")
        if self.page_size_bytes <= 0:
            raise DomainError("page_size_bytes must be > 0")
        if not 0.0 <= self.dirty_rate_norm <= 1.0:
            raise DomainError("dirty_rate_norm must lie in [0, 1]")
        if self.cpu_context_bytes < 0:
            raise DomainError("cpu_context_bytes must be >= 0")

    @property
    def total_pages(self) -> int:
        return math.ceil(self.state_size_bytes / self.page_size_bytes)


@dataclass(frozen=True, slots=True)
class ModelParams:
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

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


@dataclass(frozen=True, slots=True)
class Kpis:
    """Predicted or measured key indicators of one migration."""

    step_durations_s: Mapping[str, float]
    downtime_s: float
    total_s: float
    bytes_transferred: float

    def __post_init__(self) -> None:
        if self.downtime_s < 0 or self.total_s < 0 or self.bytes_transferred < 0:
            raise DomainError("KPI values must be >= 0")
        # Tiny slack: both values may come out of long float chains.
        if self.downtime_s > self.total_s * (1 + 1e-9) + 1e-12:
            raise DomainError("downtime cannot exceed total migration time")


@dataclass(frozen=True, slots=True)
class StrategyChoice:
    """A migration strategy plus its iteration count.

    iterations is meaningful only for ITERATIVE_PRE_COPY (where it is >= 1);
    COLD and PRE_COPY carry 0.
    """

    kind: StrategyKind
    iterations: int = 0

    def __post_init__(self) -> None:
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
    downtime = sum(steps[k] for k in STEP_ORDER)
    return Kpis(step_durations_s=steps, downtime_s=downtime,
                total_s=downtime,
                bytes_transferred=float(profile.state_size_bytes))


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
    if iterations < 0:
        raise DomainError("iterations must be >= 0")
    round0, per_round, steps = _precopy_terms(profile, params,
                                              bandwidth_bytes_per_s)
    downtime = sum(steps[k] for k in STEP_ORDER)
    total = round0 + iterations * per_round + downtime
    transferred = (float(profile.state_size_bytes)
                   + iterations * worst_case_dirty_bytes(profile)
                   + stop_copy_image_bytes(profile))
    return Kpis(step_durations_s=steps, downtime_s=downtime, total_s=total,
                bytes_transferred=transferred)


def strategy_kpis(profile: MsProfile, params: ModelParams,
                  bandwidth_bytes_per_s: float,
                  strategy: StrategyChoice) -> Kpis:
    """Dispatch to the right predictor for a given strategy choice."""
    if strategy.kind is StrategyKind.COLD:
        return cold_kpis(profile, params, bandwidth_bytes_per_s)
    return precopy_kpis(profile, params, bandwidth_bytes_per_s,
                        strategy.iterations)


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
    if target_downtime_s <= 0:
        raise DomainError("target_downtime_s must be > 0")
    if available_bandwidth_bytes_per_s <= 0:
        raise DomainError("available bandwidth must be > 0")
    state = float(profile.state_size_bytes)
    floor_s = (checkpoint_duration(params, state)
               + params.ns_overhead_s
               + params.transfer_signaling_s
               + params.flow_update_s
               + restore_duration(params, state))
    if target_downtime_s <= floor_s:
        return None
    needed = state / (target_downtime_s - floor_s)
    if needed > available_bandwidth_bytes_per_s:
        return None
    return needed


def max_iterations(profile: MsProfile, params: ModelParams,
                   bandwidth_bytes_per_s: float, target_duration_s: float,
                   iteration_cap: int = DEFAULT_ITERATION_CAP
                   ) -> Optional[StrategyChoice]:
    """Largest iteration count whose predicted total stays within a target.

    Returns an ITERATIVE_PRE_COPY choice when at least one iteration fits,
    a PRE_COPY choice when only the iteration-free variant fits, and None
    when even that overruns the target. The count is clamped to
    iteration_cap. The returned value is maximal: adding one more iteration
    (below the cap) would overrun the target.
    """
    if target_duration_s <= 0:
        raise DomainError("target_duration_s must be > 0")
    if iteration_cap < 0:
        raise DomainError("iteration_cap must be >= 0")
    round0, per_round, steps = _precopy_terms(profile, params,
                                              bandwidth_bytes_per_s)
    downtime = sum(steps[k] for k in STEP_ORDER)

    def total(n: int) -> float:
        return round0 + n * per_round + downtime

    if total(0) > target_duration_s:
        return None
    if per_round <= 0.0:
        # Iterations are free; take the cap.
        count = iteration_cap
    else:
        count = int(math.floor((target_duration_s - round0 - downtime)
                               / per_round))
        count = max(0, min(count, iteration_cap))
        # The closed form and the evaluated totals can disagree by one in
        # the last float ulp; settle it against the actual predictor.
        while count > 0 and total(count) > target_duration_s:
            count -= 1
        while count < iteration_cap and total(count + 1) <= target_duration_s:
            count += 1
    if count >= 1:
        return StrategyChoice(StrategyKind.ITERATIVE_PRE_COPY, count)
    return StrategyChoice(StrategyKind.PRE_COPY)


def frame_loss(inference_rate_fps: float, downtime_s: float) -> int:
    """Frames an analytics pipeline drops while its source is frozen."""
    if inference_rate_fps < 0 or downtime_s < 0:
        raise DomainError("rate and downtime must be >= 0")
    return math.ceil(inference_rate_fps * downtime_s)
