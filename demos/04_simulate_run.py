"""Simulate one migration and compare it with the prediction.

The simulated agents dirty pages at the profiled rate, so the measured
figures land under the worst-case prediction. A second run injects a
dropped message to show the failure path.
"""

from pathlib import Path

from edgemig import DropRule, load_scenario, plan_from_scenario, run_scenario

scenario = load_scenario(Path(__file__).parent / "scenario.json")
config = plan_from_scenario(scenario)

outcome = run_scenario(scenario, config)
print(f"completed: {outcome.completed} after {outcome.message_count} messages")
print(f"  downtime  {outcome.downtime_s:.3f} s  "
      f"(predicted worst case {config.predicted.downtime_s:.3f})")
print(f"  total     {outcome.total_s:.3f} s  "
      f"(predicted worst case {config.predicted.total_s:.3f})")
print(f"  moved     {outcome.bytes_transferred / 1e6:.2f} MB, "
      f"{outcome.dirty_pages_at_stopcopy} pages still dirty at freeze")

print("\nlast few protocol messages:")
messages = [e for e in outcome.events if e.event.get("type") == "message"]
for event in messages[-5:]:
    print(f"  t={event.time_s:7.3f}  {event.agent:10s} "
          f"{event.event['topic']}  ({event.phase_before} -> "
          f"{event.phase_after})")

# Now break it: the stop-and-copy image never reaches the destination.
broken = run_scenario(scenario, config, fault_rules=(DropRule("stopcopy"),))
print(f"\nwith the image dropped: completed={broken.completed}")
for agent, text in sorted(broken.diagnostics.items()):
    print(f"  {agent}: {text}")
