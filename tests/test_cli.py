"""End-to-end command-line checks, run in process via ``main``."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgemig
from edgemig import cli, load_scenario, plan_from_scenario, run_scenario
from edgemig.errors import ScenarioError

DEMO = str(Path(__file__).resolve().parent.parent / "demos" / "scenario.json")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(args):
    return cli.main(list(args))


def test_plan_writes_config_document(tmp_path):
    out = tmp_path / "plan.json"
    assert run(["plan", "--scenario", DEMO, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["strategy"] == "iterative_precopy"
    assert doc["iterations"] == 6
    assert doc["target_met"] is True
    assert doc["predicted"]["downtime_s"] > 0
    assert set(doc["predicted"]["steps"]) == {"S1", "S2||S4", "S3", "S5", "S6"}


def test_plan_prints_to_stdout_without_out(capsys):
    assert run(["plan", "--scenario", DEMO]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strategy"] == "iterative_precopy"


def test_simulate_reports_kpis_and_events(tmp_path):
    out = tmp_path / "run.json"
    events = tmp_path / "events.jsonl"
    assert run(["simulate", "--scenario", DEMO, "--out", str(out),
                "--events", str(events)]) == 0
    doc = json.loads(out.read_text())
    sim = doc["simulated"]
    assert sim["completed"] is True
    assert sim["downtime_s"] <= doc["predicted"]["downtime_s"] * (1 + 1e-9)
    assert sim["message_count"] == 7 + 3 * doc["iterations"]
    lines = events.read_text().splitlines()
    assert lines and all(json.loads(ln)["seq"] == i
                         for i, ln in enumerate(lines))


def test_simulate_reruns_byte_identical(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        events = tmp_path / f"{name}.jsonl"
        assert run(["simulate", "--scenario", DEMO, "--out", str(out),
                    "--events", str(events)]) == 0
        texts.append((out.read_text(), events.read_text()))
    assert texts[0] == texts[1]


def test_sweep_csv_schema_and_determinism(tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    assert run(["sweep", "--scenario", DEMO, "--out", str(out1)]) == 0
    assert run(["sweep", "--scenario", DEMO, "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()

    lines = text.splitlines()
    assert lines[0] == ("target_s,profile,strategy,iterations,bandwidth_mbps,"
                        "pred_downtime_s,pred_total_s,sim_downtime_s,"
                        "sim_total_s,bytes_transferred,region")
    # 19 sweep targets x 2 profiles.
    assert len(lines) == 1 + 38
    keys = [(float(ln.split(",")[0]), ln.split(",")[1]) for ln in lines[1:]]
    assert keys == sorted(keys)
    regions = {ln.split(",")[-1] for ln in lines[1:]}
    assert regions == {"green", "yellow", "red"}


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run(["sweep", "--scenario", DEMO, "--out", str(serial)]) == 0
    assert run(["sweep", "--scenario", DEMO, "--out", str(parallel),
                "--parallel", "4"]) == 0
    assert serial.read_text() == parallel.read_text()


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        return map(fn, jobs)


@pytest.mark.parametrize("parallel, cpus, workers", [
    (100_000, 2, 2),
    (100_000, None, None),  # cpu_count unknown: taken as one CPU, serial
    (3, 8, 3),
    (1, 8, None),
])
def test_sweep_workers_bounded_by_cpus(tmp_path, monkeypatch, parallel, cpus,
                                       workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    InlinePool.sizes.clear()
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", DEMO, "--out", str(out),
                "--parallel", str(parallel)]) == 0
    assert InlinePool.sizes == ([] if workers is None else [workers])
    assert out.read_text() == (GOLDEN / "sweep.csv").read_text()


def test_seed_override_changes_sim_but_not_predictions(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run(["simulate", "--scenario", DEMO, "--out", str(out1),
                "--seed", "1"]) == 0
    assert run(["simulate", "--scenario", DEMO, "--out", str(out2),
                "--seed", "2"]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["predicted"] == d2["predicted"]
    assert d1["simulated"] != d2["simulated"]


def test_dist_probabilities(tmp_path):
    out = tmp_path / "dist.json"
    assert run(["dist", "--scenario", DEMO, "--out", str(out),
                "--samples", "500"]) == 0
    doc = json.loads(out.read_text())
    assert doc["samples"] == 500
    total = sum(doc["strategy_probs"].values())
    assert total == pytest.approx(1.0, abs=1e-12)
    pmf_mass = sum(doc["iteration_pmf"].values())
    assert pmf_mass == pytest.approx(
        doc["strategy_probs"].get("iterative_precopy", 0.0), abs=1e-12)
    assert doc["strategy_stderr"].keys() == doc["strategy_probs"].keys()


def test_profile_estimates_dirty_rate(capsys):
    assert run(["profile", "--scenario", DEMO]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rate_pages_per_s"] == 5.0
    assert 0.0 <= doc["normalized"] <= 1.0


def test_fit_recovers_parameters(capsys):
    assert run(["fit", "--scenario", DEMO]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["ckpt_fixed_s"] == pytest.approx(0.5, abs=1e-6)
    assert doc["params"]["ckpt_per_byte_s"] == pytest.approx(1.9e-9, rel=1e-3)
    assert doc["rms"]["transfer_s"] < 1e-9


IMPORT_PROBE = """
import json, sys
import edgemig, edgemig.cli
for argv in json.loads(sys.argv[1]):
    assert edgemig.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_loaded_by(names, tmp_path):
    """The scipy modules a fresh interpreter holds after running `names`.

    A fresh interpreter, so modules other tests loaded do not count.
    """
    commands = [[name, "--scenario", DEMO, "--out", str(tmp_path / name)]
                for name in names]
    src = str(Path(edgemig.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_sampling_or_fitting_never_load_scipy(tmp_path):
    assert scipy_modules_loaded_by(
        ("plan", "simulate", "sweep", "profile"), tmp_path) == []


def test_fit_never_loads_scipy(tmp_path):
    assert scipy_modules_loaded_by(("fit",), tmp_path) == []


def test_dist_never_loads_scipy(tmp_path):
    """scipy is only a test oracle: the sampler draws with numpy alone."""
    assert scipy_modules_loaded_by(("dist",), tmp_path) == []


def test_verbose_simulate_logs_the_design_and_each_phase_change(tmp_path):
    src = str(Path(edgemig.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "edgemig.cli", "-v", "simulate", "--scenario",
         DEMO, "--out", str(tmp_path / "run.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    events = [json.loads(line) for line in
              (GOLDEN / "simulate_events.jsonl").read_text().splitlines()]
    changes = [f"DEBUG edgemig.simnet: {ev['agent']} at {ev['time_s']:.9g} s:"
               f" {ev['phase_before']} -> {ev['phase_after']}"
               for ev in events if ev["phase_before"] != ev["phase_after"]]
    assert [line for line in lines if " -> " in line] == changes
    plan = json.loads((GOLDEN / "plan.json").read_text())
    assert [line for line in lines if " -> " not in line] == [
        f"DEBUG edgemig.simnet: design: {plan['strategy']}, "
        f"{plan['iterations']} iterations at {plan['bandwidth_mbps']:.6g} "
        f"Mbps; predicted downtime {plan['predicted']['downtime_s']:.6g} s, "
        f"total {plan['predicted']['total_s']:.6g} s; target met: True"]


def test_sweep_without_verbose_formats_no_log_line(tmp_path, monkeypatch):
    assert not logging.getLogger("edgemig").isEnabledFor(logging.DEBUG)
    formatted = []
    make_record = logging.Logger.makeRecord

    def record(self, *args, **kwargs):
        formatted.append(args)
        return make_record(self, *args, **kwargs)

    monkeypatch.setattr(logging.Logger, "makeRecord", record)
    assert run(["sweep", "--scenario", DEMO,
                "--out", str(tmp_path / "sweep.csv")]) == 0
    assert formatted == []


def test_empty_state_simulates_and_sweeps(tmp_path):
    doc = json.loads(Path(DEMO).read_text())
    for profile in doc["ms_profiles"]:
        profile["state_size_bytes"] = 0
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run.json"
    assert run(["simulate", "--scenario", str(scenario),
                "--out", str(out)]) == 0
    sim = json.loads(out.read_text())
    assert sim["simulated"]["completed"] is True
    assert sim["simulated"]["message_count"] == 7 + 3 * sim["iterations"]
    assert run(["sweep", "--scenario", str(scenario),
                "--out", str(tmp_path / "sweep.csv")]) == 0


def test_huge_dirty_rate_simulates(tmp_path):
    doc = json.loads(Path(DEMO).read_text())
    for profile in doc["ms_profiles"]:
        profile["dirty_rate_pages_per_s"] = 1e30
    scenario = tmp_path / "hot.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run.json"
    assert run(["simulate", "--scenario", str(scenario),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["simulated"]["completed"] is True


@pytest.mark.parametrize("role,same_as", [("client", "source"),
                                           ("orchestrator", "destination"),
                                           ("orchestrator", "client")])
def test_task_agents_must_be_distinct(tmp_path, capsys, role, same_as):
    doc = json.loads(Path(DEMO).read_text())
    doc["task"][role] = doc["task"][same_as]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    agents = tuple(doc["task"][key] for key in
                   ("source", "destination", "client", "orchestrator"))
    message = ("task source, destination, client and orchestrator must "
               f"differ, got {agents}")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scenario, plan_from_scenario(scenario))
    assert str(exc.value) == message
    assert run(["simulate", "--scenario", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_missing_scenario_file_exits_3(capsys):
    assert run(["plan", "--scenario", "/nonexistent.json"]) == 3
    assert capsys.readouterr().err


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1}')
    assert run(["plan", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err


def test_unwritable_out_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "nested.json"  # path under a regular file
    assert run(["plan", "--scenario", DEMO, "--out", str(out)]) == 3


def test_usage_error_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2


def test_negative_seed_option_is_a_usage_error(capsys):
    assert run(["simulate", "--scenario", DEMO, "--seed", "-1"]) == 2
    assert "--seed must be a whole number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("links", "latency_s"),
                                          ("ms_profiles",
                                           "dirty_rate_pages_per_s")])
def test_nan_in_scenario_is_a_usage_error(tmp_path, capsys, section, key):
    doc = json.loads(Path(DEMO).read_text())
    for item in doc[section]:
        item[key] = float("nan")
    scenario = tmp_path / "nan.json"
    scenario.write_text(json.dumps(doc))
    assert run(["simulate", "--scenario", str(scenario)]) == 2
    assert f"{section}[0].{key}: nan is not a finite number" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, section, index, key", [
    ("plan", "ms_profiles", 0, "state_size_bytes"),
    ("simulate", "ms_profiles", 0, "cpu_context_bytes"),
    ("dist", "ms_profiles", 0, "state_size_bytes"),
    ("profile", "dirty_samples", 0, "pages_modified"),
    ("sweep", "ms_profiles", 1, "state_size_bytes"),
])
def test_whole_number_beyond_float_range_is_a_usage_error(
        tmp_path, capsys, command, section, index, key):
    doc = json.loads(Path(DEMO).read_text())
    doc[section][index][key] = 10 ** 400
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    assert run([command, "--scenario", str(scenario)]) == 2
    assert f"{section}[{index}].{key}: whole number too large for a float" \
        in capsys.readouterr().err


def test_sweep_grid_too_large_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(Path(DEMO).read_text())
    doc["sweep"]["step_s"] = 1e-300
    scenario = tmp_path / "dense.json"
    scenario.write_text(json.dumps(doc))
    assert run(["sweep", "--scenario", str(scenario)]) == 2
    assert "sweep grid has 9e+300 targets" in capsys.readouterr().err


def test_number_written_as_a_string_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(Path(DEMO).read_text())
    for link in doc["links"]:
        link["latency_s"] = "NaN"
    scenario = tmp_path / "nan.json"
    scenario.write_text(json.dumps(doc))
    assert run(["simulate", "--scenario", str(scenario)]) == 2
    assert "links[0].latency_s: expected a number, got 'NaN'" \
        in capsys.readouterr().err
