"""Estimate a worst-case dirty rate and fit model parameters to timings.

Uses the measurement records embedded in the demo scenario: a short
dirty-page trace for the rate estimate and three timed checkpoint /
transfer / restore runs for the parameter fit.
"""

from pathlib import Path

import numpy as np

from edgemig import (
    DirtySample,
    calibration_fit,
    dirty_set_size,
    estimate_dirty_rate,
    load_scenario,
)

scenario = load_scenario(Path(__file__).parent / "scenario.json")
profile = scenario.ms_profiles[0].profile

estimate = estimate_dirty_rate(scenario.dirty_samples,
                               profile.state_size_bytes)
print("dirty-rate estimate from recorded windows:")
print(f"  worst window  {estimate.rate_pages_per_s:.1f} pages/s "
      f"(mean {estimate.mean_rate_pages_per_s:.1f})")
print(f"  normalized    {estimate.normalized:.5f} of the state per round")

# The estimator also digests simulated windows: draw the distinct pages a
# 12 pages/s service dirties in each of eight one-second windows, with the
# simulator's own dirty-page model, and estimate again.
rng = np.random.default_rng(7)
samples = [DirtySample(window_s=1.0, pages_modified=dirty_set_size(
               12.0, 1.0, profile.total_pages, rng)) for _ in range(8)]
again = estimate_dirty_rate(samples, profile.state_size_bytes)
print(f"  simulated 12 pages/s service estimated at "
      f"{again.rate_pages_per_s:.1f} pages/s, the worst of {len(samples)} "
      f"windows")

fit = calibration_fit(scenario.calibration_runs)
p = fit.params
print("\nfitted model parameters:")
print(f"  checkpoint  {p.ckpt_fixed_s:.4f} s + {p.ckpt_per_byte_s:.3e} s/B")
print(f"  restore     {p.restore_fixed_s:.4f} s + "
      f"{p.restore_per_byte_s:.3e} s/B")
print(f"  signaling   {p.transfer_signaling_s:.4f} s per transfer")
print(f"  residuals   ckpt {fit.checkpoint_rms_s:.2e}  "
      f"restore {fit.restore_rms_s:.2e}  transfer {fit.transfer_rms_s:.2e}")
