"""How bandwidth uncertainty turns the strategy choice into a lottery.

Samples the link bandwidth from a truncated normal distribution and
tabulates which strategy the designer would configure for each draw,
across a grid of duration targets.
"""

from pathlib import Path

from edgemig import load_scenario, strategy_distribution

scenario = load_scenario(Path(__file__).parent / "scenario.json")
section = scenario.task
profile = scenario.profile_by_id(section.ms_profile_id).profile
dist = scenario.bandwidth_distribution

print(f"bandwidth ~ truncated normal, mean "
      f"{dist.mean_bytes_per_s / 125_000:.0f} Mbps, "
      f"std {dist.std_bytes_per_s / 125_000:.0f} Mbps\n")

print("target  P(cold)  P(pre-copy)  P(iterative)  E[I | iterative]")
for target in (1.45, 1.50, 1.55, 1.60, 2.0, 3.0, 5.0):
    task = section.task._replace(target_duration_s=target)
    result = strategy_distribution(task, profile, scenario.model_params,
                                   dist, sample_count=5000, seed=scenario.seed)
    probs = result.strategy_probs
    p_iter = probs.get("iterative_precopy", 0.0)
    mean_i = (sum(i * p for i, p in result.iteration_pmf.items()) / p_iter
              if p_iter > 0 else float("nan"))
    print(f"{target:5.2f}   {probs.get('cold', 0.0):7.4f}  "
          f"{probs.get('precopy', 0.0):11.4f}  {p_iter:12.4f}  {mean_i:8.2f}")
