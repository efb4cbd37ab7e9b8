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

import itertools
import math
import random
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import DomainError, check_number, checked
from .model import (
    Kpis,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    _binomial,
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


_SQRT_HALF = math.sqrt(0.5)


def _tail_mass(p: float, q: float, gap: float) -> float:
    """1 - Q(q) / Q(p), Q the standard normal upper tail and gap = q - p
    measured apart, so it survives where q rounds to p: by ``math.erfc``
    and, where that underflows, Laplace's continued fraction."""
    if q < 37.0:
        return 1.0 - math.erfc(q * _SQRT_HALF) / math.erfc(p * _SQRT_HALF)
    if p < 30.0:  # Q(q) / Q(p) < 1e-100: no double short of 1
        return 1.0

    def mills(x: float) -> float:  # Q(x) / phi(x), to the bit past 30
        t = x
        for k in range(12, 0, -1):
            t = x + k / t
        return 1.0 / t
    return 1.0 - math.exp(-gap * (p + q) / 2) * mills(q) / mills(p)


def _truncnorm_cdf(t: float, mean: float, std: float, lower: float,
                   upper: float) -> float:
    """P(X < t) for X normal (mean, std) conditioned on [lower, upper].
    Distances are taken in stds from the bounds, so none rounds away, and
    a tail is measured from its near end, so nothing underflows."""
    u, w = (t - lower) / std, (upper - lower) / std
    if not 0 < u < w:
        return float(u > 0)
    if upper < mean:  # the mirror image of a right tail
        return 1.0 - _truncnorm_cdf(-t, -mean, std, -upper, -lower)
    a = (lower - mean) / std
    if w < 1e-6:  # all but flat: an exponential tilt, to within w * w
        num, den = math.expm1(-a * u), math.expm1(-a * w)
    else:
        num = _tail_mass(a, (t - mean) / std, u)
        den = _tail_mass(a, (upper - mean) / std, w)
    return num / den if den else u / w


def _count_below(cut: float, m: int, seed: int, node: int = 1) -> int:
    """How many of m iid uniforms on node's interval fall below ``cut``,
    scaled to it (node 1 is [0, 1); node k's halves are 2k and 2k + 1).
    Node k draws from ``random.Random(f"{seed}/{k}")``: holding m >= 2, it
    sends Binomial(m, 1/2) to its left half; holding one, it places it
    with one uniform. One seed is one sample whatever the cuts."""
    if m == 0 or not 0.0 < cut < 1.0:
        return m if cut >= 1.0 else 0
    draw = random.Random(f"{seed}/{node}").random
    if m == 1:
        return int(draw() < cut)
    left = _binomial(draw, m, 0.5)
    if cut <= 0.5:
        return _count_below(2.0 * cut, left, seed, 2 * node)
    return left + _count_below(2.0 * cut - 1.0, m - left, seed, 2 * node + 1)


@checked
class BandwidthDistribution(NamedTuple):
    """Truncated normal model of the bandwidth available at design time."""

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

    def sample(self, count: int, seed: int,
               thresholds: Sequence[float]) -> list[int]:
        """Counts of ``count`` iid draws below each threshold (ascending);
        one seed is one sample whatever they are. A draw with no spread, or
        out of float reach, is the interval's point nearest the mean."""
        check_number("count", count, 1, 2**63 - 1, whole=True)
        mean, std, lower, upper = self
        if not std or max(lower - mean, mean - upper) / std == math.inf:
            point = min(max(mean, lower), upper)
            return [int(count) if point < t else 0 for t in thresholds]
        cuts = itertools.accumulate(
            (_truncnorm_cdf(t, *self) for t in thresholds), max)
        return [_count_below(cut, int(count), seed) for cut in cuts]


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
    frequency is exact: the sample's draws between two of the designer's
    :func:`iteration_thresholds` across the distribution's interval.
    Deterministic for a seed.
    """
    check_number("sample_count", sample_count, 1, 2**63 - 1, whole=True)
    kind_counts: dict[str, int] = {k.value: 0 for k in StrategyKind}
    iter_counts: dict[int, int] = {}
    if task.objective is Objective.MINIMIZE_RESOURCES:
        # design() picks cold at every bandwidth under this objective.
        kind_counts[StrategyKind.COLD.value] = sample_count
    else:
        # A draw of zero would starve the designer; it counts as the
        # smallest positive bandwidth, where the thresholds start.
        base, thresholds = iteration_thresholds(
            profile, params, task.target_duration_s,
            max(distribution.lower_bytes_per_s, math.nextafter(0.0, 1.0)),
            distribution.upper_bytes_per_s)
        # The draws whose count is base + i: those between thresholds.
        below = [0, *distribution.sample(sample_count, seed, thresholds),
                 sample_count]
        for n, freq in enumerate((b - a for a, b in zip(below, below[1:])),
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
