"""Command-line front end.

Subcommands, all driven by a scenario file (``--scenario``):

* ``profile``  — estimate the dirty-page rate from recorded samples
* ``fit``      — fit cost-model parameters from calibration runs
* ``plan``     — pick strategy/iterations/bandwidth for the scenario task
* ``simulate`` — plan, then execute one simulated migration
* ``sweep``    — planning + simulation across a target grid, CSV report
* ``dist``     — strategy distribution under bandwidth uncertainty

Exit codes: 0 on success, 2 for usage errors or malformed scenarios,
3 for I/O failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import DomainError, ScenarioError, check_number
from .model import BYTES_PER_S_PER_MBPS
from .orchestrator import MigrationTask, Objective, strategy_distribution
from .profiler import calibration_fit, estimate_dirty_rate
from .scenario import (Scenario, SimProfile, TaskSection, check_seed,
                       load_scenario)
from .simnet import plan_from_scenario, run_scenario

log = logging.getLogger(__name__)

CSV_HEADER = ("target_s,profile,strategy,iterations,bandwidth_mbps,"
              "pred_downtime_s,pred_total_s,sim_downtime_s,sim_total_s,"
              "bytes_transferred,region")


def _g(value: float) -> str:
    return format(value, ".6g")


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_value(value):
    """``value`` for a JSON report, every non-finite float in it as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


def _emit_json(doc: dict, out: Optional[str]) -> None:
    # Strict JSON: an infinity or a NaN (a starved link, an overflowing
    # estimate) is written as null, never as a token JSON parsers reject.
    _write_out(json.dumps(_json_value(doc), indent=2, sort_keys=True,
                          allow_nan=False) + "\n", out)


def _load(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        scenario = scenario._replace(seed=args.seed)
    return scenario


def _pick_profile(scenario: Scenario, profile_id: Optional[str]) -> SimProfile:
    if profile_id is not None:
        return scenario.profile_by_id(profile_id)
    if scenario.task is not None:
        return scenario.profile_by_id(scenario.task.ms_profile_id)
    if scenario.ms_profiles:
        return scenario.ms_profiles[0]
    raise ScenarioError("scenario defines no ms profiles")


# --------------------------------------------------------------------------
# Subcommands


def _cmd_profile(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if not scenario.dirty_samples:
        raise ScenarioError("scenario has no dirty_samples section")
    sim_profile = _pick_profile(scenario, args.ms_profile)
    estimate = estimate_dirty_rate(
        scenario.dirty_samples,
        state_size_bytes=sim_profile.profile.state_size_bytes,
        page_size_bytes=sim_profile.profile.page_size_bytes)
    _emit_json({"ms_profile": sim_profile.id, **estimate._asdict()}, args.out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if not scenario.calibration_runs:
        raise ScenarioError("scenario has no calibration_runs section")
    fit = calibration_fit(scenario.calibration_runs)
    _emit_json({
        "params": fit.params._asdict(),
        "rms": {"checkpoint_s": fit.checkpoint_rms_s,
                "restore_s": fit.restore_rms_s,
                "transfer_s": fit.transfer_rms_s},
        "runs": len(scenario.calibration_runs),
    }, args.out)
    return 0


def _config_doc(config) -> dict:
    return {
        "strategy": config.strategy.kind.value,
        "iterations": config.strategy.iterations,
        "bandwidth_mbps": config.bandwidth_bytes_per_s / BYTES_PER_S_PER_MBPS,
        "target_met": config.target_met,
        "predicted": {
            "downtime_s": config.predicted.downtime_s,
            "total_s": config.predicted.total_s,
            "bytes_transferred": config.predicted.bytes_transferred,
            "steps": dict(config.predicted.step_durations_s),
        },
    }


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = _load(args)
    config = plan_from_scenario(scenario)
    _emit_json(_config_doc(config), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    config = plan_from_scenario(scenario)
    outcome = run_scenario(scenario, config,
                           record_events=args.events is not None)
    if args.events is not None:
        _write_out("".join(f"{event.to_json_line()}\n"
                           for event in outcome.events), args.events)
    doc = _config_doc(config)
    doc["simulated"] = {key: value for key, value in outcome._asdict().items()
                        if key not in ("end_time_s", "events")}
    _emit_json(doc, args.out)
    return 0


# --------------------------------------------------------------------------
# Sweep


def _sweep_row(job: tuple) -> dict:
    # stream is the row's (target index, profile index): the simulator
    # derives the row's seed from it at the first dirty draw, if any.
    scenario, variable, target, profile_id, stream = job
    section, task = scenario.task, scenario.task.task
    on_total = variable == "target_duration_s"
    objective = (Objective.MINIMIZE_DOWNTIME if on_total
                 else Objective.MINIMIZE_RESOURCES)
    targets = (None, target) if on_total else (target, None)
    row_scenario = scenario._replace(task=TaskSection(
        MigrationTask(task.container_id, task.source_agent,
                      task.destination_agent, objective, *targets),
        section.client, section.orchestrator, profile_id))
    config = plan_from_scenario(row_scenario)
    outcome = run_scenario(row_scenario, config, record_events=False,
                           stream=stream)
    sim_metric = outcome.total_s if on_total else outcome.downtime_s
    met = (config.target_met and outcome.completed and sim_metric is not None
           and sim_metric <= target * (1 + 1e-9))
    return {
        "target_s": target,
        "profile": profile_id,
        "strategy": config.strategy.kind.value,
        "iterations": config.strategy.iterations,
        "bandwidth_mbps": config.bandwidth_bytes_per_s / BYTES_PER_S_PER_MBPS,
        "pred_downtime_s": config.predicted.downtime_s,
        "pred_total_s": config.predicted.total_s,
        "sim_downtime_s": outcome.downtime_s,
        "sim_total_s": outcome.total_s,
        "bytes_transferred": outcome.bytes_transferred,
        "completed": outcome.completed,
        "met": met,
    }


def sweep_rows(scenario: Scenario, parallel: int = 0) -> list[dict]:
    """All sweep rows, region-classified, sorted by target then profile."""
    if scenario.sweep is None:
        raise ScenarioError("scenario has no sweep section")
    if scenario.task is None:
        raise ScenarioError("scenario has no task section")
    sweep = scenario.sweep
    jobs = [(scenario, sweep.variable, target, profile_id, (t_idx, p_idx))
            for t_idx, target in enumerate(sweep.targets())
            for p_idx, profile_id in enumerate(sweep.profiles)]
    # One worker per CPU at most: a fork start launches them all at once.
    workers = min(parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: only a parallel sweep pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # Rows cost milliseconds, so each worker gets them in a few chunks
        # rather than one round trip per row; map keeps the job order.
        chunksize = math.ceil(len(jobs) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs, chunksize=chunksize))
    else:
        rows = [_sweep_row(job) for job in jobs]

    by_target: dict[float, list[dict]] = {}
    for row in rows:
        by_target.setdefault(row["target_s"], []).append(row)
    for group in by_target.values():
        met = [r["met"] for r in group]
        region = "green" if all(met) else "yellow" if any(met) else "red"
        for r in group:
            r["region"] = region
    rows.sort(key=lambda r: (r["target_s"], r["profile"]))
    return rows


def emit_report(rows: Sequence[dict]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        sim = ["" if r[key] is None else _g(r[key])
               for key in ("sim_downtime_s", "sim_total_s")]
        lines.append(",".join([
            _g(r["target_s"]), r["profile"], r["strategy"],
            str(r["iterations"]), _g(r["bandwidth_mbps"]),
            _g(r["pred_downtime_s"]), _g(r["pred_total_s"]), *sim,
            str(int(round(r["bytes_transferred"]))), r["region"]]))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    check_number("--parallel", args.parallel, whole=True)
    scenario = _load(args)
    rows = sweep_rows(scenario, parallel=args.parallel)
    _write_out(emit_report(rows), args.out)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if scenario.bandwidth_distribution is None:
        raise ScenarioError("scenario has no bandwidth_distribution section")
    if scenario.task is None:
        raise ScenarioError("scenario has no task section")
    section = scenario.task
    profile = scenario.profile_by_id(section.ms_profile_id).profile
    dist = strategy_distribution(
        section.task, profile, scenario.model_params,
        scenario.bandwidth_distribution, args.samples, scenario.seed)
    _emit_json({
        "samples": dist.sample_count,
        "strategy_probs": dict(sorted(dist.strategy_probs.items())),
        "strategy_stderr": dict(sorted(dist.strategy_stderr.items())),
        "iteration_pmf": {str(i): p
                          for i, p in sorted(dist.iteration_pmf.items())},
    }, args.out)
    return 0


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemig",
        description="Plan, simulate and analyze stateful edge migrations.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--scenario", required=True,
                       help="path to the scenario JSON file")
        p.add_argument("--out", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        return p

    command("profile", _cmd_profile, "estimate the dirty-page rate") \
        .add_argument("--ms-profile", default=None,
                      help="ms profile id (default: the task's)")
    command("fit", _cmd_fit, "fit cost-model parameters")
    command("plan", _cmd_plan, "choose a migration configuration")
    command("simulate", _cmd_simulate, "plan and simulate one migration") \
        .add_argument("--events", default=None,
                      help="write the protocol event log (JSON lines) here")
    command("sweep", _cmd_sweep, "plan+simulate across a target grid") \
        .add_argument("--parallel", type=int, default=0, help="sweep "
                      "workers, one per CPU at most (default: serial)")
    command("dist", _cmd_dist, "strategy distribution under uncertainty") \
        .add_argument("--samples", type=int, default=1000,
                      help="bandwidth draws (default 1000)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ScenarioError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
