"""Migration configuration design.

The designer turns a migration task plus a metrics view into a concrete
configuration (strategy, iteration count, bandwidth allocation) according
to the declared objective:

* minimize resources: pick the cold strategy and allocate the least
  bandwidth that still meets the downtime target;
* minimize downtime: allocate all available bandwidth and pick the most
  iterative pre-copy variant whose predicted duration meets the total
  migration target.

When a target cannot be met the designer still returns a best-effort
configuration and says so via ``target_met=False`` rather than failing:
for minimize-resources that is cold at the full available bandwidth, for
minimize-downtime it is a cold migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .errors import DomainError
from .model import (
    DEFAULT_ITERATION_CAP,
    Kpis,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    cold_kpis,
    iteration_choice,
    iteration_counts,
    max_iterations,
    min_bandwidth,
    precopy_kpis,
)

class Objective(str, Enum):
    MINIMIZE_RESOURCES = "minimize_resources"
    MINIMIZE_DOWNTIME = "minimize_downtime"


@dataclass(frozen=True, slots=True)
class MigrationTask:
    """What should move, between which agents, and what matters."""

    container_id: str
    source_agent: str
    destination_agent: str
    objective: Objective
    target_downtime_s: Optional[float] = None
    target_duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.container_id:
            raise DomainError("container_id must be non-empty")
        if self.source_agent == self.destination_agent:
            raise DomainError("source and destination must differ")
        if self.objective is Objective.MINIMIZE_RESOURCES:
            if self.target_downtime_s is None or self.target_downtime_s <= 0:
                raise DomainError(
                    "minimize_resources needs target_downtime_s > 0")
        else:
            if self.target_duration_s is None or self.target_duration_s <= 0:
                raise DomainError(
                    "minimize_downtime needs target_duration_s > 0")


@dataclass(frozen=True, slots=True)
class MetricsView:
    """Inputs the designer works from."""

    profile: MsProfile
    params: ModelParams
    available_bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.available_bandwidth_bytes_per_s <= 0:
            raise DomainError("available bandwidth must be > 0")


@dataclass(frozen=True, slots=True)
class MigrationConfig:
    """Designer output: what to run and what it should cost."""

    strategy: StrategyChoice
    bandwidth_bytes_per_s: float
    predicted: Kpis
    target_met: bool

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise DomainError("configured bandwidth must be > 0")


def design(task: MigrationTask, metrics: MetricsView,
           iteration_cap: int = DEFAULT_ITERATION_CAP) -> MigrationConfig:
    """Produce a migration configuration for a task. Pure function."""
    profile, params = metrics.profile, metrics.params
    available = metrics.available_bandwidth_bytes_per_s

    def cold(bandwidth: float, target_met: bool) -> MigrationConfig:
        return MigrationConfig(
            strategy=StrategyChoice(StrategyKind.COLD),
            bandwidth_bytes_per_s=bandwidth,
            predicted=cold_kpis(profile, params, bandwidth),
            target_met=target_met)

    if task.objective is Objective.MINIMIZE_RESOURCES:
        needed = min_bandwidth(profile, params, task.target_downtime_s,
                               available)
        if needed is None:
            return cold(available, False)
        # A zero requirement only happens for an empty state; any allocation
        # works then, so keep the full link.
        return cold(needed if needed > 0 else available, True)

    choice = max_iterations(profile, params, available,
                            task.target_duration_s, iteration_cap)
    if choice is None:
        return cold(available, False)
    return MigrationConfig(
        strategy=choice,
        bandwidth_bytes_per_s=available,
        predicted=precopy_kpis(profile, params, available, choice.iterations),
        target_met=True)


@dataclass(frozen=True, slots=True)
class BandwidthDistribution:
    """Truncated normal model of the bandwidth available at design time."""

    mean_bytes_per_s: float
    std_bytes_per_s: float
    lower_bytes_per_s: float
    upper_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.mean_bytes_per_s <= 0:
            raise DomainError("mean bandwidth must be > 0")
        if self.std_bytes_per_s < 0:
            raise DomainError("std must be >= 0")
        if self.lower_bytes_per_s < 0:
            raise DomainError("lower truncation must be >= 0")
        if not self.lower_bytes_per_s < self.upper_bytes_per_s:
            raise DomainError("truncation interval must have positive width")

    @classmethod
    def from_mean_std(cls, mean_bytes_per_s: float, std_bytes_per_s: float
                      ) -> "BandwidthDistribution":
        """Apply the default truncation [0, mean + 5 * std]."""
        return cls(mean_bytes_per_s=mean_bytes_per_s,
                   std_bytes_per_s=std_bytes_per_s,
                   lower_bytes_per_s=0.0,
                   upper_bytes_per_s=mean_bytes_per_s + 5 * std_bytes_per_s)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw bandwidth values, deterministic for a given seed."""
        if count <= 0:
            raise DomainError("sample count must be > 0")
        rng = np.random.default_rng(seed)
        if self.std_bytes_per_s == 0.0:
            value = min(max(self.mean_bytes_per_s, self.lower_bytes_per_s),
                        self.upper_bytes_per_s)
            return np.full(count, value)
        a = (self.lower_bytes_per_s - self.mean_bytes_per_s) / self.std_bytes_per_s
        b = (self.upper_bytes_per_s - self.mean_bytes_per_s) / self.std_bytes_per_s
        # Loaded here, not at module level, so commands that never sample
        # do not pay for importing scipy.stats.
        from scipy.stats import truncnorm

        return truncnorm.rvs(a, b, loc=self.mean_bytes_per_s,
                             scale=self.std_bytes_per_s, size=count,
                             random_state=rng)


@dataclass(frozen=True, slots=True)
class StrategyDistribution:
    """Monte Carlo summary of design outcomes under bandwidth uncertainty."""

    strategy_probs: Mapping[str, float]
    iteration_pmf: Mapping[int, float]
    sample_count: int


def strategy_distribution(task: MigrationTask, profile: MsProfile,
                          params: ModelParams,
                          distribution: BandwidthDistribution,
                          sample_count: int, seed: int,
                          iteration_cap: int = DEFAULT_ITERATION_CAP
                          ) -> StrategyDistribution:
    """Distribution of designed strategies over sampled bandwidths.

    Tabulates what :func:`design` answers when each sampled bandwidth is
    the available bandwidth: strategy frequencies and, for the iterative
    outcomes, a probability mass function over the iteration count. The
    designer runs once over the whole sample rather than once per draw.
    Deterministic for a given seed.
    """
    if sample_count <= 0:
        raise DomainError("sample_count must be > 0")
    kind_counts: dict[str, int] = {k.value: 0 for k in StrategyKind}
    iter_counts: dict[int, int] = {}
    if task.objective is Objective.MINIMIZE_RESOURCES:
        # design() picks cold at every bandwidth under this objective.
        kind_counts[StrategyKind.COLD.value] = sample_count
    else:
        draws = distribution.sample(sample_count, seed)
        # The lower truncation keeps draws nonnegative; an exact zero
        # would starve the designer, nudge it to the smallest positive.
        draws[draws <= 0] = np.nextafter(0.0, 1.0)
        counts = iteration_counts(profile, params, draws,
                                  task.target_duration_s, iteration_cap)
        values, freqs = np.unique(counts, return_counts=True)
        for n, freq in zip(values.tolist(), freqs.tolist()):
            # None is design()'s cold fallback.
            choice = iteration_choice(n)
            kind = choice.kind if choice else StrategyKind.COLD
            kind_counts[kind.value] += freq
            if kind is StrategyKind.ITERATIVE_PRE_COPY:
                iter_counts[n] = freq
    probs = {k: c / sample_count for k, c in kind_counts.items()}
    pmf = {n: c / sample_count for n, c in iter_counts.items()}
    return StrategyDistribution(strategy_probs=probs, iteration_pmf=pmf,
                                sample_count=sample_count)
