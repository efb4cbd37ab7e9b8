"""Pinned output bytes of the CLI on the demo scenario.

Each command runs in process through ``cli.main`` and its output must equal
the file under ``tests/golden/`` byte for byte; so must a longer sweep
built in code, whose rows reach dozens of pre-copy rounds. A deliberate
change of seeded output replaces the golden file in the same change and
says why in CHANGES.md; any other difference is a regression. Running
this file, ``PYTHONPATH=src python tests/test_golden.py``, rewrites every
golden file from the current code and prints each file's old and new
sha256, the record a deliberate rewrite cites.
"""

import hashlib
import json
from pathlib import Path

import pytest

from edgemig import cli, load_scenario, plan_from_scenario, run_scenario
from edgemig.cli import emit_report, sweep_rows
from edgemig.simnet import DelayRule, DropRule

ROOT = Path(__file__).resolve().parent.parent
DEMO = str(ROOT / "demos" / "scenario.json")
GOLDEN = Path(__file__).resolve().parent / "golden"

# (arguments after the scenario, {output option: golden file name})
CASES = {
    "plan": (["plan"], {"--out": "plan.json"}),
    "simulate": (["simulate"], {"--out": "simulate.json",
                                "--events": "simulate_events.jsonl"}),
    "sweep": (["sweep"], {"--out": "sweep.csv"}),
    "dist": (["dist", "--samples", "2000"], {"--out": "dist.json"}),
}


def cli_run(name: str, directory: Path) -> list[str]:
    """Run one CLI case, writing its output files into ``directory``."""
    args, outputs = CASES[name]
    argv = args + ["--scenario", DEMO]
    for option, golden in outputs.items():
        argv += [option, str(directory / golden)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"{name} failed")
    return list(outputs.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for golden in cli_run(name, tmp_path):
        produced = (tmp_path / golden).read_bytes()
        assert produced == (GOLDEN / golden).read_bytes(), golden


# Faulted runs of the demo plan: {case: fault rules}. Each pins the
# outcome (every field but the events) and the event log.
FAULT_CASES = {
    "drop_round2_image": (DropRule("round/2/image"),),
    "drop_stopcopy": (DropRule("stopcopy"),),
    "delay_round1_ready": (DelayRule("round/1/ready", 5.0),),
}


def faulted_run(name: str, directory: Path) -> tuple[str, str]:
    """Run one faulted case, writing its two files into ``directory``."""
    scenario = load_scenario(DEMO)
    outcome = run_scenario(scenario, plan_from_scenario(scenario),
                           fault_rules=FAULT_CASES[name])
    events = directory / f"fault_{name}_events.jsonl"
    events.write_text("".join(f"{event.to_json_line()}\n"
                              for event in outcome.events), encoding="utf-8")
    doc = {name: value for name, value in outcome._asdict().items()
           if name != "events"}
    outcome_file = directory / f"fault_{name}.json"
    outcome_file.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    return outcome_file.name, events.name


@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_faulted_run_matches_golden(name, tmp_path):
    for golden in faulted_run(name, tmp_path):
        produced = (tmp_path / golden).read_bytes()
        assert produced == (GOLDEN / golden).read_bytes(), golden


def long_sweep(directory: Path) -> str:
    """The demo sweep stretched to ``target_duration_s`` 1-20 s, step 0.5,
    whose upper rows take iterative pre-copy to dozens of rounds."""
    scenario = load_scenario(DEMO)
    scenario = scenario._replace(sweep=scenario.sweep._replace(to_s=20.0))
    assert scenario.sweep.variable == "target_duration_s"
    assert scenario.sweep.step_s == 0.5
    out = directory / "sweep_long.csv"
    out.write_text(emit_report(sweep_rows(scenario)), encoding="utf-8")
    return out.name


def test_long_sweep_matches_golden(tmp_path):
    golden = long_sweep(tmp_path)
    assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()


def digests() -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(GOLDEN.iterdir())}


if __name__ == "__main__":
    old = digests()
    for case in CASES:
        cli_run(case, GOLDEN)
    for case in FAULT_CASES:
        faulted_run(case, GOLDEN)
    long_sweep(GOLDEN)
    for name, new in digests().items():
        print(f"{name}: unchanged {new}" if old.get(name) == new
              else f"{name}: {old.get(name)} → {new}")
