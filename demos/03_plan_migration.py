"""Configure a migration from the scenario's metrics.

Shows the two objectives side by side: minimizing downtime under a
duration budget picks an iteration count; minimizing resources under a
downtime budget picks a bandwidth allocation.
"""

import dataclasses
from pathlib import Path

from edgemig import (
    MetricsView,
    Objective,
    design,
    load_scenario,
    plan_from_scenario,
    stopcopy_schedule,
)

scenario = load_scenario(Path(__file__).parent / "scenario.json")

config = plan_from_scenario(scenario)
print(f"objective: minimize downtime within "
      f"{scenario.task.task.target_duration_s:.0f} s")
print(f"  -> {config.strategy.kind.value} with "
      f"I={config.strategy.iterations}, target met: {config.target_met}")
print(f"  predicted downtime {config.predicted.downtime_s:.3f} s, "
      f"total {config.predicted.total_s:.3f} s")

print("\nstop-and-copy schedule (the service is frozen throughout):")
for step in stopcopy_schedule(config):
    print(f"  {step.step_id:6s} {step.start_s:6.3f} -> {step.end_s:6.3f} s")

# Same metrics, resource-driven objective.
task = dataclasses.replace(scenario.task.task,
                           objective=Objective.MINIMIZE_RESOURCES,
                           target_duration_s=None, target_downtime_s=1.2)
link = scenario.link_between(task.source_agent, task.destination_agent)
metrics = MetricsView(
    profile=scenario.profile_by_id(scenario.task.ms_profile_id).profile,
    params=scenario.model_params,
    available_bandwidth_bytes_per_s=link.bandwidth_bytes_per_s)
lean = design(task, metrics)
print(f"\nobjective: minimize resources within 1.2 s of downtime")
print(f"  -> {lean.strategy.kind.value} at "
      f"{lean.bandwidth_bytes_per_s / 125_000:.0f} Mbps "
      f"(link offers {link.bandwidth_mbps:.0f}), "
      f"predicted downtime {lean.predicted.downtime_s:.3f} s")
