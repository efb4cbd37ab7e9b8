"""Every numeric field of every public value class rejects NaN, ±inf, a
bool and any number outside its range, with a DomainError naming it, both
when the record is built and when a copy is made by ``_replace``."""

import math
from typing import Optional, get_type_hints

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgemig import (
    BandwidthDistribution,
    CalibrationRun,
    DelayRule,
    DirtySample,
    DomainError,
    DropRule,
    MetricsView,
    MigrationConfig,
    MigrationTask,
    ModelParams,
    MsProfile,
    Objective,
    StrategyChoice,
    StrategyKind,
    SweepSpec,
    cold_kpis,
)
from edgemig.errors import FLOAT_MAX
from edgemig.model import BYTES_PER_S_PER_MBPS
from edgemig.scenario import Link, SimProfile

PROFILE = MsProfile(state_size_bytes=4096, dirty_rate_norm=0.5)
PARAMS = ModelParams()

# Numbers outside each kind of range. Any float is outside a whole one.
BELOW_0 = st.floats(max_value=-5e-324)
AT_MOST_0 = st.floats(max_value=0.0)
NOT_WHOLE_AT_LEAST_0 = st.integers(max_value=-1) | st.floats()
NOT_WHOLE_AT_LEAST_1 = st.integers(max_value=0) | st.floats()

# class -> (valid keyword arguments, {numeric field: its outside values})
CASES = {
    MsProfile: (
        dict(state_size_bytes=4096, dirty_rate_norm=0.5),
        dict(state_size_bytes=NOT_WHOLE_AT_LEAST_0,
             dirty_rate_norm=BELOW_0 | st.floats(1.0, exclude_min=True),
             page_size_bytes=NOT_WHOLE_AT_LEAST_1,
             cpu_context_bytes=NOT_WHOLE_AT_LEAST_0)),
    ModelParams: (
        {}, {name: BELOW_0 for name in ModelParams._fields}),
    MigrationTask: (
        dict(container_id="c", source_agent="a", destination_agent="b",
             objective=Objective.MINIMIZE_DOWNTIME, target_downtime_s=1.0,
             target_duration_s=5.0),
        dict(target_downtime_s=AT_MOST_0, target_duration_s=AT_MOST_0)),
    MetricsView: (
        dict(profile=PROFILE, params=PARAMS,
             available_bandwidth_bytes_per_s=1e6),
        dict(available_bandwidth_bytes_per_s=AT_MOST_0)),
    MigrationConfig: (
        dict(strategy=StrategyChoice(StrategyKind.COLD),
             bandwidth_bytes_per_s=1e6,
             predicted=cold_kpis(PROFILE, PARAMS, 1e6), target_met=True),
        dict(bandwidth_bytes_per_s=AT_MOST_0)),
    BandwidthDistribution: (
        dict(mean_bytes_per_s=1e6, std_bytes_per_s=1e5,
             lower_bytes_per_s=0.0, upper_bytes_per_s=2e6),
        # The upper bound lies above the lower one, 0 here.
        dict(mean_bytes_per_s=AT_MOST_0, std_bytes_per_s=BELOW_0,
             lower_bytes_per_s=BELOW_0, upper_bytes_per_s=AT_MOST_0)),
    DirtySample: (
        dict(window_s=1.0, pages_modified=3),
        dict(window_s=AT_MOST_0, pages_modified=NOT_WHOLE_AT_LEAST_0)),
    CalibrationRun: (
        dict(image_bytes=1.0, checkpoint_s=0.1, restore_s=0.1,
             transfer_s=0.1, bandwidth_bytes_per_s=1e6),
        dict(image_bytes=BELOW_0, checkpoint_s=BELOW_0, restore_s=BELOW_0,
             transfer_s=BELOW_0, bandwidth_bytes_per_s=AT_MOST_0)),
    Link: (
        dict(from_host="a", to_host="b", bandwidth_mbps=1000.0),
        # Beyond the largest float once scaled to bytes/s.
        dict(bandwidth_mbps=AT_MOST_0 | st.floats(
                 FLOAT_MAX / BYTES_PER_S_PER_MBPS, exclude_min=True),
             latency_s=BELOW_0)),
    SimProfile: (
        dict(id="p", profile=PROFILE, dirty_rate_pages_per_s=2.0),
        dict(dirty_rate_pages_per_s=BELOW_0)),
    SweepSpec: (
        dict(variable="target_duration_s", from_s=1.0, to_s=2.0, step_s=0.5,
             profiles=("p",)),
        # to_s lies at or above from_s, 1.0 here.
        dict(from_s=AT_MOST_0, to_s=st.floats(max_value=1.0, exclude_max=True),
             step_s=AT_MOST_0)),
    DropRule: (dict(topic_contains="/task"),
               dict(occurrence=NOT_WHOLE_AT_LEAST_1)),
    DelayRule: (dict(topic_contains="/task", delay_s=1.0),
                dict(occurrence=NOT_WHOLE_AT_LEAST_1, delay_s=BELOW_0)),
}
FIELDS = [(cls, name) for cls, (_, outside) in CASES.items()
          for name in outside]


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_the_table_covers_every_numeric_field(cls):
    valid, outside = CASES[cls]
    cls(**valid)
    numeric = {name for name, kind in get_type_hints(cls).items()
               if kind in (int, float, Optional[float])}
    assert set(outside) == numeric


def draw_outside(cls, name, data):
    """A value outside the domain of ``cls``'s field ``name``."""
    value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, True,
                                       False]) | CASES[cls][1][name])
    # +inf is a distribution without upper truncation.
    assume(not (name == "upper_bytes_per_s" and value == math.inf))
    return value


@pytest.mark.parametrize("cls, name", FIELDS, ids=[
    f"{cls.__name__}.{name}" for cls, name in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_numeric_field_rejects_a_value_outside_its_domain(cls, name,
                                                                data):
    valid, _ = CASES[cls]
    value = draw_outside(cls, name, data)
    with pytest.raises(DomainError) as excinfo:
        cls(**{**valid, name: value})
    assert str(excinfo.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("cls, name", FIELDS, ids=[
    f"{cls.__name__}.{name}" for cls, name in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replace_checks_every_numeric_field_as_a_build_does(cls, name, data):
    valid, _ = CASES[cls]
    value = draw_outside(cls, name, data)
    with pytest.raises(DomainError) as built:
        cls(**{**valid, name: value})
    with pytest.raises(DomainError) as replaced:
        cls(**valid)._replace(**{name: value})
    assert str(replaced.value) == str(built.value)
