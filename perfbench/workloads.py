"""The benchmark's workloads: seeded scenario generators, CLI command lines
and output checks.

Each workload turns a seed into one scenario document. The seed reaches the
program only through that document; edgemig never learns which workload it
runs. Sizes come in two grades: ``full`` for measurement and ``tiny`` for the
smoke test. Everything here is stdlib-only so the harness process stays small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 2026
HELD_OUT_SEED = 7919

GIB = 1 << 30
MIB = 1 << 20
STRATEGIES = ("cold", "precopy", "iterative_precopy")

# Demo model parameters (``demos/scenario.json``); the calibration runs of
# ``migrate-bigstate`` are drawn around them.
MODEL_PARAMS = {
    "ckpt_fixed_s": 0.5,
    "ckpt_per_byte_s": 1.9e-09,
    "pre_ckpt_fixed_s": 0.5,
    "pre_ckpt_per_byte_s": 1.9e-09,
    "restore_fixed_s": 0.35,
    "restore_per_byte_s": 1.9e-09,
    "transfer_signaling_s": 0.003,
    "ns_overhead_s": 0.085,
    "flow_update_s": 0.004,
}

DEMO_PROFILES = [
    {"id": "stream-analytics", "state_size_bytes": 10 * MIB,
     "page_size_bytes": 4096, "dirty_rate_norm": 0.0015631105900742479,
     "cpu_context_bytes": 0, "dirty_rate_pages_per_s": 2.0},
    {"id": "packet-probe", "state_size_bytes": 512 * 1024,
     "page_size_bytes": 4096, "dirty_rate_norm": 0.031496062992125984,
     "cpu_context_bytes": 0, "dirty_rate_pages_per_s": 2.0},
]


def _scenario(seed: int, profiles: list[dict], task: dict, **sections) -> dict:
    doc = {
        "seed": seed,
        "hosts": [{"id": "edge-a", "role": "source"},
                  {"id": "edge-b", "role": "destination"},
                  {"id": "cam-client", "role": "client"},
                  {"id": "orchestrator", "role": "orchestrator"}],
        "links": [{"from": a, "to": b, "bandwidth_mbps": 1000.0,
                   "latency_s": 0.0}
                  for a, b in (("edge-a", "edge-b"), ("edge-b", "cam-client"),
                               ("edge-a", "cam-client"))],
        "ms_profiles": profiles,
        "model_params": dict(MODEL_PARAMS),
        "task": {"container_id": "ms-bench-0", "source": "edge-a",
                 "destination": "edge-b", "client": "cam-client",
                 "orchestrator": "orchestrator", **task},
    }
    doc.update(sections)
    return doc


def sweep_targets(sweep: dict) -> list[float]:
    """The grid ``SweepSpec.targets`` walks, endpoints inclusive."""
    out, k = [], 0
    while True:
        t = sweep["from_s"] + k * sweep["step_s"]
        if t > sweep["to_s"] + 1e-9 * max(1.0, abs(sweep["to_s"])):
            return out
        out.append(t)
        k += 1


# --------------------------------------------------------------------------
# Generators


def gen_sweep_precopy(seed: int, size: str) -> dict:
    to_s = 20.0 if size == "full" else 3.0
    return _scenario(
        seed, DEMO_PROFILES,
        {"objective": "minimize_downtime", "target_duration_s": 5.0,
         "ms_profile": "stream-analytics"},
        sweep={"variable": "target_duration_s", "from_s": 1.0, "to_s": to_s,
               "step_s": 0.1, "profiles": [p["id"] for p in DEMO_PROFILES]})


def gen_sweep_cold(seed: int, size: str) -> dict:
    to_s = 10.0 if size == "full" else 1.0
    return _scenario(
        seed, DEMO_PROFILES,
        {"objective": "minimize_resources", "target_downtime_s": 2.0,
         "ms_profile": "stream-analytics"},
        sweep={"variable": "target_downtime_s", "from_s": 0.5, "to_s": to_s,
               "step_s": 0.01, "profiles": [p["id"] for p in DEMO_PROFILES]})


DIST_SAMPLES = {"full": 100_000, "tiny": 3_000}


def gen_dist_wide(seed: int, size: str) -> dict:
    profile = {"id": "wide-state", "state_size_bytes": 512 * MIB,
               "page_size_bytes": 4096, "dirty_rate_norm": 0.05,
               "cpu_context_bytes": 0, "dirty_rate_pages_per_s": 0.0}
    return _scenario(
        seed, [profile],
        {"objective": "minimize_downtime", "target_duration_s": 12.0,
         "ms_profile": "wide-state"},
        bandwidth_distribution={"mean_mbps": 1000.0, "std_mbps": 400.0,
                                "lower_mbps": 50.0, "upper_mbps": 2000.0})


# (state bytes, dirty pages/s, target duration s). Full grade: 1 GiB at 2e5
# pages/s planned at two iterations, ~5e6 page writes. Tiny grade keeps the
# shape (envelope at the whole state, a few iterations) at 1/8 of the size.
BIGSTATE = {"full": (GIB, 200_000.0, 50.0),
            "tiny": (128 * MIB, 12_500.0, 10.0)}


def gen_migrate_bigstate(seed: int, size: str) -> dict:
    state, rate, target = BIGSTATE[size]
    page = 4096
    rng = random.Random(seed)
    # Profiling windows observe the live rate with +-10% jitter.
    dirty_samples = [{"window_s": 1.0,
                      "pages_modified": int(rate * rng.uniform(0.9, 1.1))}
                     for _ in range(256)]
    # Calibration runs follow the model parameters with 2% timing noise.
    p = MODEL_PARAMS
    calibration_runs = []
    for _ in range(32):
        image = float(rng.randint(1, 64) * 32 * MIB)
        noise = [rng.gauss(1.0, 0.02) for _ in range(3)]
        calibration_runs.append({
            "image_bytes": image,
            "checkpoint_s": (p["ckpt_fixed_s"]
                             + p["ckpt_per_byte_s"] * image) * noise[0],
            "restore_s": (p["restore_fixed_s"]
                          + p["restore_per_byte_s"] * image) * noise[1],
            "transfer_s": (p["transfer_signaling_s"]
                           + image / 125_000_000.0) * noise[2],
            "bandwidth_mbps": 1000.0})
    profile = {"id": "big-state", "state_size_bytes": state,
               "page_size_bytes": page, "dirty_rate_norm": 1.0,
               "cpu_context_bytes": 0, "dirty_rate_pages_per_s": rate}
    return _scenario(
        seed, [profile],
        {"objective": "minimize_downtime", "target_duration_s": target,
         "ms_profile": "big-state"},
        dirty_samples=dirty_samples, calibration_runs=calibration_runs)


# --------------------------------------------------------------------------
# Output checks. Each returns (failed operations, problems).


def _parse_csv(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def check_sweep(doc: dict, outputs: dict[str, bytes], csv_header: str,
                all_cold: bool) -> tuple[int, list[str]]:
    sweep = doc["sweep"]
    expected = len(sweep_targets(sweep)) * len(sweep["profiles"])
    header, rows = _parse_csv(outputs["sweep.csv"].decode("utf-8"))
    if header != csv_header:
        return expected, ["CSV header differs from cli.CSV_HEADER"]
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    bad = 0
    regions: dict[str, set] = {}
    for row in rows[:expected]:
        if len(row) != 11:
            bad += 1
            continue
        target, _, strategy, _, _, _, _, sim_down, sim_total, _, region = row
        regions.setdefault(target, set()).add(region)
        ok = (sim_down != "" and sim_total != ""
              and float(sim_down) <= float(sim_total)
              and region in ("green", "yellow", "red")
              and (strategy == "cold" or not all_cold))
        bad += not ok
    mixed = sum(1 for r in regions.values() if len(r) > 1)
    if mixed:
        problems.append(f"{mixed} targets with inconsistent regions")
    if bad:
        problems.append(f"{bad} rows fail the row checks")
    failed = bad + abs(expected - len(rows)) + mixed * len(sweep["profiles"])
    return min(expected, failed), problems


def check_dist(outputs: dict[str, bytes], samples: int
               ) -> tuple[int, list[str]]:
    out = json.loads(outputs["dist.json"])
    probs = out.get("strategy_probs", {})
    problems = []
    if out.get("samples") != samples:
        problems.append(f"samples {out.get('samples')} != {samples}")
    if abs(sum(probs.values()) - 1.0) > 1e-9:
        problems.append(f"strategy probabilities sum to {sum(probs.values())}")
    missing = [s for s in STRATEGIES if not probs.get(s, 0.0) > 0.0]
    if missing:
        problems.append(f"strategies never chosen: {missing}")
    pmf_mass = sum(out.get("iteration_pmf", {}).values())
    if abs(pmf_mass - probs.get("iterative_precopy", 0.0)) > 1e-9:
        problems.append("iteration pmf mass differs from the iterative share")
    return (samples if problems else 0), problems


def check_migrate(doc: dict, outputs: dict[str, bytes]
                  ) -> tuple[int, list[str]]:
    problems = []
    prof = json.loads(outputs["profile.json"])
    if not prof.get("rate_pages_per_s", 0) > 0:
        problems.append("profile reports no dirty rate")
    fit = json.loads(outputs["fit.json"])
    if fit.get("runs") != len(doc["calibration_runs"]):
        problems.append("fit did not use every calibration run")
    sim = json.loads(outputs["simulate.json"])
    s = sim["simulated"]
    if not s["completed"]:
        problems.append(f"simulation incomplete: {s['diagnostics']}")
    else:
        if s["downtime_s"] > s["total_s"]:
            problems.append("simulated downtime exceeds total")
        if s["downtime_s"] > sim["predicted"]["downtime_s"] * (1 + 1e-9):
            problems.append("simulated downtime exceeds the prediction")
    if s["message_count"] != 7 + 3 * sim["iterations"]:
        problems.append(f"message_count {s['message_count']} != 7 + 3*"
                        f"{sim['iterations']}")
    lines = outputs["events.jsonl"].decode("utf-8").splitlines()
    seqs = [json.loads(line)["seq"] for line in lines]
    if seqs != list(range(len(seqs))) or not seqs:
        problems.append("event log is not one line per recorded event")
    return (1 if problems else 0), problems


# --------------------------------------------------------------------------
# The workload table


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str
    generate: Callable[[int, str], dict]
    # name -> CLI argv (without the scenario/out flags) per output file
    commands: Callable[[str], list[tuple[str, list[str]]]]
    # The serial equivalent. The traced run traces it (spans cannot be
    # collected from pool workers); for a parallel workload an untimed pass
    # of it gives the reference bytes.
    reference_commands: Callable[[str], list[tuple[str, list[str]]]]
    # (scenario, output bytes by file, cli.CSV_HEADER, size) -> check result
    check: Callable[[dict, dict[str, bytes], str, str], tuple[int, list[str]]]
    # What the post-import work mostly is, so which hostref.py work the
    # harness scales it by: "interp" (Python code) or "memory" (numpy sorts).
    work: str = "interp"


def _sweep(parallel: int) -> Callable[[str], list[tuple[str, list[str]]]]:
    extra = ["--parallel", str(parallel)] if parallel else []
    return lambda size: [("sweep.csv", ["sweep", *extra])]


def _dist(size: str) -> list[tuple[str, list[str]]]:
    return [("dist.json", ["dist", "--samples", str(DIST_SAMPLES[size])])]


def _migrate(size: str) -> list[tuple[str, list[str]]]:
    return [("profile.json", ["profile"]), ("fit.json", ["fit"]),
            ("simulate.json", ["simulate", "--events", "{out}/events.jsonl"])]


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-precopy",
        "long serial target_duration sweep: rows from cold to 36-round "
        "pre-copy, time in agents.advance and the simnet event loop",
        "sweep row", gen_sweep_precopy, _sweep(0), _sweep(0),
        lambda doc, out, header, size: check_sweep(doc, out, header, False)),
    Workload(
        "sweep-cold-parallel",
        "dense target_downtime sweep with --parallel 2: cold rows of few "
        "events, so pool dispatch and scenario pickling dominate",
        "sweep row", gen_sweep_cold, _sweep(2), _sweep(0),
        lambda doc, out, header, size: check_sweep(doc, out, header, True)),
    Workload(
        "dist-wide",
        "Monte Carlo dist on a 512 MiB profile: truncnorm draws and the "
        "designer on all three branches, no simulator",
        "Monte Carlo sample", gen_dist_wide, _dist, _dist,
        lambda doc, out, header, size: check_dist(out, DIST_SAMPLES[size])),
    Workload(
        "migrate-bigstate",
        "profile, fit and simulate --events on a 1 GiB state at 2e5 pages/s:"
        " ~5e6 page writes in the seeded dirty-set sampler",
        "simulated migration", gen_migrate_bigstate, _migrate, _migrate,
        lambda doc, out, header, size: check_migrate(doc, out), "memory"),
)}


def expected_ops(doc: dict, workload: str, size: str) -> int:
    if workload.startswith("sweep"):
        return len(sweep_targets(doc["sweep"])) * len(doc["sweep"]["profiles"])
    if workload == "dist-wide":
        return DIST_SAMPLES[size]
    return 1
