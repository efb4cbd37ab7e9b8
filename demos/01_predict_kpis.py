"""Predict worst-case migration KPIs for one microservice profile.

Walks the three strategies over a shared profile and prints the predicted
downtime, total duration, and bytes moved at a fixed link bandwidth.
"""

from edgemig import (
    ModelParams,
    MsProfile,
    cold_kpis,
    frame_loss,
    precopy_kpis,
)

MBPS = 125_000.0  # bytes per second per Mbit/s

profile = MsProfile(state_size_bytes=10 * 1024 * 1024,
                    dirty_rate_norm=0.0016)
params = ModelParams(
    ckpt_fixed_s=0.5, ckpt_per_byte_s=1.9e-9,
    pre_ckpt_fixed_s=0.5, pre_ckpt_per_byte_s=1.9e-9,
    restore_fixed_s=0.35, restore_per_byte_s=1.9e-9,
    transfer_signaling_s=0.003, ns_overhead_s=0.085, flow_update_s=0.004)
bandwidth = 1000.0 * MBPS

print(f"state {profile.state_size_bytes / 1e6:.1f} MB, "
      f"{profile.total_pages} pages, link 1000 Mbps\n")

cold = cold_kpis(profile, params, bandwidth)
print(f"cold:            down {cold.downtime_s:6.3f} s   "
      f"total {cold.total_s:6.3f} s   {cold.bytes_transferred / 1e6:6.2f} MB")

for iterations in (0, 2, 5, 10):
    kpis = precopy_kpis(profile, params, bandwidth, iterations)
    label = "pre-copy" if iterations == 0 else f"iterative x{iterations}"
    print(f"{label:15s}: down {kpis.downtime_s:6.3f} s   "
          f"total {kpis.total_s:6.3f} s   "
          f"{kpis.bytes_transferred / 1e6:6.2f} MB")

# A 30 fps video consumer sees the downtime as dropped frames.
print(f"\nframes lost at 30 fps: cold {frame_loss(30, cold.downtime_s)}, "
      f"pre-copy {frame_loss(30, precopy_kpis(profile, params, bandwidth).downtime_s)}")
