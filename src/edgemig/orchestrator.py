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

import math
from enum import Enum
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import DomainError, check_number, checked
from .model import (
    Kpis,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    cold_kpis,
    iteration_choice,
    iteration_thresholds,
    max_iterations,
    min_bandwidth,
    precopy_kpis,
)

class Objective(str, Enum):
    MINIMIZE_RESOURCES = "minimize_resources"
    MINIMIZE_DOWNTIME = "minimize_downtime"


@checked
class MigrationTask(NamedTuple):
    """What should move, between which agents, and what matters."""

    container_id: str
    source_agent: str
    destination_agent: str
    objective: Objective
    target_downtime_s: Optional[float] = None
    target_duration_s: Optional[float] = None

    def _check(self) -> None:
        if not self.container_id:
            raise DomainError("container_id must be non-empty")
        if self.source_agent == self.destination_agent:
            raise DomainError("source and destination must differ")
        for name, obj in (("target_downtime_s", Objective.MINIMIZE_RESOURCES),
                          ("target_duration_s", Objective.MINIMIZE_DOWNTIME)):
            if (value := getattr(self, name)) is not None:
                check_number(name, value, above=True)
            elif self.objective is obj:
                raise DomainError(f"{obj.value} needs {name} > 0")


@checked
class MetricsView(NamedTuple):
    """Inputs the designer works from."""

    profile: MsProfile
    params: ModelParams
    available_bandwidth_bytes_per_s: float

    def _check(self) -> None:
        check_number("available_bandwidth_bytes_per_s",
                     self.available_bandwidth_bytes_per_s, above=True)


@checked
class MigrationConfig(NamedTuple):
    """Designer output: what to run and what it should cost."""

    strategy: StrategyChoice
    bandwidth_bytes_per_s: float
    predicted: Kpis
    target_met: bool

    def _check(self) -> None:
        check_number("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s,
                     above=True)


def design(task: MigrationTask, metrics: MetricsView) -> MigrationConfig:
    """Produce a migration configuration for a task. Pure function."""
    profile, params = metrics.profile, metrics.params
    available = metrics.available_bandwidth_bytes_per_s

    def cold(bandwidth: float, target_met: bool) -> MigrationConfig:
        return MigrationConfig(StrategyChoice(StrategyKind.COLD), bandwidth,
                               cold_kpis(profile, params, bandwidth),
                               target_met)

    if task.objective is Objective.MINIMIZE_RESOURCES:
        needed = min_bandwidth(profile, params, task.target_downtime_s,
                               available)
        if needed is None:
            return cold(available, False)
        # A zero requirement only happens for an empty state; any allocation
        # works then, so keep the full link.
        return cold(needed if needed > 0 else available, True)

    choice = max_iterations(profile, params, available,
                            task.target_duration_s)
    if choice is None:
        return cold(available, False)
    return MigrationConfig(choice, available, precopy_kpis(
        profile, params, available, choice.iterations), True)


def _standard_truncnorm(a: float, b: float, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """``count`` standard normal draws conditioned on [a, b], a <= b.

    Accept-reject in vectorized batches with the proposal of Robert (1995)
    that accepts most often for the interval; each accepts about half its
    draws or more, so the loop cannot spin. An interval below 0 is
    mirrored onto the right tail first.
    """
    sign = 1.0
    if b < 0:
        a, b, sign = -b, -a, -1.0
    z0 = max(a, 0.0)  # the point of [a, b] closest to 0
    gap = 2.0 / (z0 + math.hypot(z0, 2.0))  # alpha* - z0, without overflow
    alpha = z0 + gap
    if a <= 0 and b - a >= math.sqrt(2 * math.pi):
        def accepted(n: int) -> np.ndarray:
            z = rng.standard_normal(n)
            return z[(a <= z) & (z <= b)]
    elif a <= 0 or b - a < math.exp(gap * gap / 2) / alpha:
        # Robert's bound: narrower than this, the uniform beats the
        # exponential (and, holding 0, the normal) on acceptance.
        def accepted(n: int) -> np.ndarray:
            z = rng.uniform(a, b, n)
            return z[rng.random(n) <= np.exp((z0 - z) * (z0 + z) / 2)]
    else:
        def accepted(n: int) -> np.ndarray:
            z = a + rng.standard_exponential(n) / alpha
            return z[(z <= b)
                     & (rng.random(n) <= np.exp(-(z - alpha) ** 2 / 2))]
    out = np.empty(count)
    filled = 0
    while filled < count:
        z = accepted(2 * (count - filled) + 16)[:count - filled]
        out[filled:filled + z.size] = z
        filled += z.size
    return sign * out


@checked
class BandwidthDistribution(NamedTuple):
    """Truncated normal model of the bandwidth available at design time.

    :meth:`sample` draws with numpy alone, by accept-reject on the
    standardized interval [a, b] after C. P. Robert, "Simulation of
    truncated normal variables", Statistics and Computing 5 (1995),
    in one of three regimes:

    * a wide interval holding 0: normal draws, rejecting those outside;
    * a narrow interval: uniform draws on [a, b], accepted with
      probability exp((z0**2 - z**2) / 2), z0 the point closest to 0;
    * a one-sided tail: a translated exponential of rate
      alpha* = (a + sqrt(a**2 + 4)) / 2 (mirrored for b < 0).
    """

    mean_bytes_per_s: float
    std_bytes_per_s: float
    lower_bytes_per_s: float
    upper_bytes_per_s: float

    def _check(self) -> None:
        check_number("mean_bytes_per_s", self.mean_bytes_per_s, above=True)
        check_number("std_bytes_per_s", self.std_bytes_per_s)
        check_number("lower_bytes_per_s", self.lower_bytes_per_s)
        if self.upper_bytes_per_s != math.inf:  # +inf: no upper truncation
            check_number("upper_bytes_per_s", self.upper_bytes_per_s,
                         self.lower_bytes_per_s, above=True)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw bandwidth values, deterministic for a given seed."""
        check_number("count", count, 1, whole=True)
        mean, std = self.mean_bytes_per_s, self.std_bytes_per_s
        lower, upper = self.lower_bytes_per_s, self.upper_bytes_per_s
        a = (lower - mean) / std if std else math.inf
        b = (upper - mean) / std if std else -math.inf
        if a == math.inf or b == -math.inf:
            # No spread, or an interval too many stds away for a float:
            # all the mass sits at the point of the interval nearest the mean.
            return np.full(count, min(max(mean, lower), upper))
        z = _standard_truncnorm(a, b, count, np.random.default_rng(seed))
        return np.clip(mean + std * z, lower, upper)


class StrategyDistribution(NamedTuple):
    """Monte Carlo summary of design outcomes under bandwidth uncertainty."""

    strategy_probs: Mapping[str, float]
    iteration_pmf: Mapping[int, float]
    sample_count: int

    @property
    def strategy_stderr(self) -> dict[str, float]:
        """Monte Carlo standard error sqrt(p (1 - p) / N) of each probability."""
        return {k: math.sqrt(p * (1.0 - p) / self.sample_count)
                for k, p in self.strategy_probs.items()}


def strategy_distribution(task: MigrationTask, profile: MsProfile,
                          params: ModelParams,
                          distribution: BandwidthDistribution,
                          sample_count: int, seed: int
                          ) -> StrategyDistribution:
    """Distribution of designed strategies over sampled bandwidths.

    Tabulates what :func:`design` answers when each sampled bandwidth is
    the available bandwidth: strategy frequencies and, for the iterative
    outcomes, a probability mass function over the iteration count. Each
    frequency is exact: the draws between two of the designer's
    :func:`iteration_thresholds` over the sample. Deterministic for a seed.
    """
    check_number("sample_count", sample_count, 1, whole=True)
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
        base, thresholds = iteration_thresholds(
            profile, params, task.target_duration_s, draws.min(), draws.max())
        # The draws whose count is base + i or more, for i = 0, 1, ...
        at_least = [sample_count, *(int(np.count_nonzero(draws >= t))
                                    for t in thresholds), 0]
        for n, freq in enumerate(map(int.__sub__, at_least, at_least[1:]),
                                 base):
            # None is design()'s cold fallback.
            choice = iteration_choice(n)
            kind = choice.kind if choice else StrategyKind.COLD
            kind_counts[kind.value] += freq
            if kind is StrategyKind.ITERATIVE_PRE_COPY and freq:
                iter_counts[n] = freq
    probs = {k: c / sample_count for k, c in kind_counts.items()}
    pmf = {n: c / sample_count for n, c in iter_counts.items()}
    return StrategyDistribution(strategy_probs=probs, iteration_pmf=pmf,
                                sample_count=sample_count)
