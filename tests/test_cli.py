"""End-to-end command-line checks, run in process via ``main``."""

import concurrent.futures
import contextlib
import io
import json
import logging
import os
import random
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgemig
from edgemig import cli, load_scenario, plan_from_scenario, run_scenario
from edgemig.errors import ScenarioError
from edgemig.model import BYTES_PER_S_PER_MBPS, ModelParams
from edgemig.orchestrator import Objective
from edgemig.scenario import HOST_ROLES, SWEEP_VARIABLES

DEMO = str(Path(__file__).resolve().parent.parent / "demos" / "scenario.json")
GOLDEN = Path(__file__).resolve().parent / "golden"
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


def test_simulate_records_events_only_into_its_event_log(tmp_path,
                                                        monkeypatch):
    calls = []  # the keywords of each run

    def spy(scenario, config, **options):
        calls.append(options)
        return run_scenario(scenario, config, **options)

    monkeypatch.setattr(cli, "run_scenario", spy)
    out, events = tmp_path / "simulate.json", tmp_path / "events.jsonl"
    assert run(["simulate", "--scenario", DEMO, "--out", str(out)]) == 0
    assert calls == [{"record_events": False}]
    assert out.read_bytes() == (GOLDEN / "simulate.json").read_bytes()
    # With --events, the run records its events and the command writes
    # them, one JSON line each.
    assert run(["simulate", "--scenario", DEMO, "--out", str(out),
                "--events", str(events)]) == 0
    assert calls[1] == {"record_events": True}
    assert out.read_bytes() == (GOLDEN / "simulate.json").read_bytes()
    assert events.read_bytes() == \
        (GOLDEN / "simulate_events.jsonl").read_bytes()


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
    (0, 8, None),  # the default: serial
])
def test_sweep_workers_bounded_by_cpus(tmp_path, monkeypatch, parallel, cpus,
                                       workers):
    # sweep_rows imports the pool only when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    InlinePool.sizes.clear()
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", DEMO, "--out", str(out),
                "--parallel", str(parallel)]) == 0
    assert InlinePool.sizes == ([] if workers is None else [workers])
    assert out.read_text() == (GOLDEN / "sweep.csv").read_text()


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_each_sweep_row_is_one_plan_and_one_run(variable):
    scenario = load_scenario(DEMO)
    scenario = scenario._replace(sweep=scenario.sweep._replace(
        variable=variable, from_s=0.5, to_s=3.0))
    sweep, section = scenario.sweep, scenario.task
    cells = {(target, profile): (t_idx, p_idx)
             for t_idx, target in enumerate(sweep.targets())
             for p_idx, profile in enumerate(sweep.profiles)}
    rows = cli.sweep_rows(scenario)
    assert sorted(cells) == [(r["target_s"], r["profile"]) for r in rows]
    for row in rows:
        target, profile = row["target_s"], row["profile"]
        if variable == "target_duration_s":
            task = section.task._replace(
                objective=Objective.MINIMIZE_DOWNTIME,
                target_duration_s=target, target_downtime_s=None)
        else:
            task = section.task._replace(
                objective=Objective.MINIMIZE_RESOURCES,
                target_downtime_s=target, target_duration_s=None)
        # The README's seed contract, derived here rather than by cli.
        t_idx, p_idx = cells[target, profile]
        key = f"{scenario.seed}/{t_idx}/{p_idx}"
        seed = int(random.Random(key).random() * 2**53)
        alone = scenario._replace(seed=seed, task=section._replace(
            task=task, ms_profile_id=profile))
        config = plan_from_scenario(alone)
        outcome = run_scenario(alone, config)
        assert row == {
            **row,
            "strategy": config.strategy.kind.value,
            "iterations": config.strategy.iterations,
            "bandwidth_mbps":
                config.bandwidth_bytes_per_s / BYTES_PER_S_PER_MBPS,
            "pred_downtime_s": config.predicted.downtime_s,
            "pred_total_s": config.predicted.total_s,
            "sim_downtime_s": outcome.downtime_s,
            "sim_total_s": outcome.total_s,
            "bytes_transferred": outcome.bytes_transferred,
            "completed": outcome.completed,
        }


def _load_tracer():
    """perfbench/tracer.py as a module, executed from its text so that
    nothing is written under perfbench/."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_traced_sweep_rows_each_cross_both_benchmark_seams(monkeypatch):
    tracer = _load_tracer().Tracer()
    wrap = tracer.wrap

    def wrap_until_teardown(owner, attr, name, after=None):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
        wrap(owner, attr, name, after)

    runs = []  # (scenario, config, options) of each row, in operation order

    def remember(scenario, config, **options):
        runs.append((scenario, config, options))
        return run_scenario(scenario, config, **options)

    monkeypatch.setattr(cli, "run_scenario", remember)
    tracer.wrap = wrap_until_teardown
    tracer.install(edgemig)
    scenario = load_scenario(DEMO)
    scenario = scenario._replace(sweep=scenario.sweep._replace(to_s=3.0))
    rows = cli.sweep_rows(scenario)
    assert {r["strategy"] for r in rows} == {
        "cold", "precopy", "iterative_precopy"}
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.sweep_rows") == 1
    # Each row is one operation that plans once and simulates once.
    for seam in ("simnet.plan_from_scenario", "simnet.run_scenario"):
        ops = [op for name, _, _, _, op in tracer.spans if name == seam]
        assert sorted(ops) == list(range(1, len(rows) + 1))
    assert tracer.counters["sim_runs_checked"] == len(rows)
    assert tracer.problems == []
    # The per-event seams, which the simulator looks up per run: one
    # agents.advance span per event, and for a pre-copy row one
    # simnet.dirty_set_size span per round checkpoint plus one at
    # stop-and-copy.
    spans = list(tracer.spans)
    assert len(runs) == len(rows)
    for op, (scenario, config, options) in enumerate(runs, 1):
        logged = run_scenario(scenario, config,
                              **{**options, "record_events": True})
        strategy = config.strategy
        draws = 0 if strategy.kind.value == "cold" else strategy.iterations + 1
        for seam, count in (("agents.advance", len(logged.events)),
                            ("simnet.dirty_set_size", draws)):
            assert [s[4] for s in spans if s[0] == seam].count(op) == count


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


def src_env():
    """The environment for a fresh interpreter that imports this
    checkout's edgemig."""
    src = str(Path(edgemig.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LAZY_PROBE = """
import json, sys
import edgemig.cli
watched = json.loads(sys.argv[2])
loaded = []
for argv in json.loads(sys.argv[1]):
    assert edgemig.cli.main(argv) == 0, argv
    loaded.append([m for m in watched if m in sys.modules])
print(json.dumps(loaded))
"""


def watched_modules_after_each(commands, watched):
    """In one fresh interpreter, with every warning an error: which of
    `watched` are loaded after each command in turn."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", LAZY_PROBE,
         json.dumps(commands), json.dumps(watched)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_serial_commands_load_neither_the_pool_nor_numpy_random(tmp_path):
    """In one fresh interpreter, with every warning an error: no command
    but a parallel sweep starts a pool, and neither a run that never draws
    (every row of a target_downtime_s sweep of the demo is cold) nor the
    demo's pre-copy run, which draws from the standard library, loads
    numpy's generators."""
    doc = json.loads(Path(DEMO).read_text())
    doc["sweep"]["variable"] = "target_downtime_s"
    cold = tmp_path / "cold.json"
    cold.write_text(json.dumps(doc))
    commands = [
        ["plan", "--scenario", DEMO, "--out", str(tmp_path / "plan.json")],
        ["sweep", "--scenario", str(cold), "--out", str(tmp_path / "cold")],
        ["simulate", "--scenario", DEMO, "--out", str(tmp_path / "run")],
        ["sweep", "--scenario", DEMO, "--out", str(tmp_path / "sweep")],
    ]
    watched = ["multiprocessing", "concurrent.futures.process", "numpy.random"]
    assert watched_modules_after_each(commands, watched) == [[], [], [], []]
    strategies = {line.split(",")[2] for line in
                  (tmp_path / "cold").read_text().splitlines()[1:]}
    assert strategies == {"cold"}
    assert json.loads((tmp_path / "run").read_text())["strategy"] != "cold"


def test_no_command_loads_numpy_or_dataclasses(tmp_path):
    """numpy is only a test oracle: the simulator draws from the standard
    library, in a parallel sweep's parent as in its workers, dist counts
    its draws with it too, and profile and fit compute on Python floats.
    No command loads dataclasses: every record is a NamedTuple."""
    commands = [[*name.split(), "--scenario", DEMO,
                 "--out", str(tmp_path / name.replace(" ", "_"))]
                for name in ("profile", "fit", "plan", "simulate", "sweep",
                             "sweep --parallel 2", "dist")]
    loaded = watched_modules_after_each(commands, ["numpy", "dataclasses"])
    assert loaded == [[]] * 7


def test_commands_without_sampling_or_fitting_never_load_scipy(tmp_path):
    assert scipy_modules_loaded_by(
        ("plan", "simulate", "sweep", "profile"), tmp_path) == []


def test_fit_never_loads_scipy(tmp_path):
    assert scipy_modules_loaded_by(("fit",), tmp_path) == []


def test_dist_never_loads_scipy(tmp_path):
    """scipy is only a test oracle: dist counts its draws with the
    standard library alone."""
    assert scipy_modules_loaded_by(("dist",), tmp_path) == []


def test_verbose_simulate_logs_the_design_and_each_phase_change(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "edgemig.cli", "-v", "simulate", "--scenario",
         DEMO, "--out", str(tmp_path / "run.json")],
        env=src_env(), capture_output=True, text=True, timeout=120)
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


EXTREME_FIELDS = [("links", "bandwidth_mbps"), ("links", "latency_s")] + [
    ("ms_profiles", key) for key in (
        "state_size_bytes", "page_size_bytes", "dirty_rate_norm",
        "cpu_context_bytes", "dirty_rate_pages_per_s")] + [
    ("model_params", key) for key in ModelParams._fields] + [
    ("dirty_samples", "window_s"), ("dirty_samples", "pages_modified")] + [
    ("calibration_runs", key) for key in (
        "image_bytes", "checkpoint_s", "restore_s", "transfer_s",
        "bandwidth_mbps")]
PROFILING = ("dirty_samples", "calibration_runs")  # named with their section


@pytest.mark.parametrize("section, key", EXTREME_FIELDS,
                         ids=[key if section not in PROFILING else
                              f"{section}.{key}"
                              for section, key in EXTREME_FIELDS])
def test_extreme_values_run_or_are_rejected_by_name(tmp_path, capsys,
                                                    section, key):
    # Each command either runs or exits 2 with an error message; none
    # raises, whichever extreme value one field of the demo holds.
    doc = json.loads(Path(DEMO).read_text())
    doc["sweep"].update(to_s=2.0, profiles=["stream-analytics"])
    scenario, out = tmp_path / "extreme.json", str(tmp_path / "out")
    for value in (0, 1, 5e-324, 1e-300, 1e18, 2**63, 1e300, 1.7e308):
        for item in (doc[section] if section != "model_params"
                     else [doc[section]]):
            item[key] = value
        scenario.write_text(json.dumps(doc))
        for command in (["plan"], ["simulate"], ["dist", "--samples", "200"],
                        ["profile"], ["fit"], ["sweep"]):
            code = run([*command, "--scenario", str(scenario), "--out", out])
            err = capsys.readouterr().err
            assert code in (0, 2), (value, command)
            assert code == 0 or err.startswith("error: "), (value, command)


_names = st.text(min_size=1, max_size=6)
_pos = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                 allow_infinity=False, exclude_min=True)
_nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
_whole = st.integers(min_value=0, max_value=2**40)


def _items(draw, make):
    return [make() for _ in range(draw(st.integers(1, 3)))]


@st.composite
def scenario_documents(draw):
    """A document with every section of the schema, whose four task hosts
    are distinct, each of its slot's role, and whose source and
    destination are linked, so that the task can be planned and
    simulated."""
    hosts = draw(st.lists(_names, min_size=4, max_size=5, unique=True))
    agents = draw(st.permutations(hosts))[:4]
    others = [p for p in combinations(hosts, 2) if set(p) != set(agents[:2])]
    pairs = [agents[:2], *draw(st.lists(st.sampled_from(others),
                                        max_size=3, unique=True))]
    profiles = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    objective = draw(st.sampled_from([o.value for o in Objective]))
    task = {"container_id": draw(_names), "objective": objective,
            "ms_profile": draw(st.sampled_from(profiles)),
            **dict(zip(("source", "destination", "client", "orchestrator"),
                       agents))}
    for key, needed in (("target_downtime_s", "minimize_resources"),
                        ("target_duration_s", "minimize_downtime")):
        if objective == needed or draw(st.booleans()):
            task[key] = draw(_pos)
    from_s, step_s = draw(_pos), draw(_pos)
    lower, upper = sorted({draw(_pos), draw(_pos)} | {0.0})[-2:]
    return {
        "seed": draw(_whole),
        "hosts": [{"id": h, "role": dict(zip(agents, HOST_ROLES)).get(
                      h, draw(st.sampled_from(HOST_ROLES)))} for h in hosts],
        "links": [{"from": a, "to": b, "bandwidth_mbps": draw(_pos),
                   "latency_s": draw(st.floats(0.0, 0.05))}
                  for a, b in (p[::draw(st.sampled_from((1, -1)))]
                               for p in pairs)],
        "ms_profiles": [{"id": p, "state_size_bytes": draw(_whole),
                         "page_size_bytes": draw(st.integers(1, 2**16)),
                         "dirty_rate_norm": draw(st.floats(0.0, 1.0)),
                         "cpu_context_bytes": draw(_whole),
                         "dirty_rate_pages_per_s": draw(_nonneg)}
                        for p in profiles],
        "model_params": {name: draw(_nonneg)
                         for name in ModelParams._fields},
        "task": task,
        "sweep": {
            "variable": draw(st.sampled_from(SWEEP_VARIABLES)),
            "from_s": from_s,
            "to_s": from_s + (draw(st.integers(2, 40)) - 1) * step_s,
            "step_s": step_s,
            "profiles": draw(st.lists(st.sampled_from(profiles), min_size=1,
                                      max_size=3, unique=True))},
        "bandwidth_distribution": {
            "mean_mbps": draw(_pos), "std_mbps": draw(_pos),
            "lower_mbps": lower, "upper_mbps": upper},
        "dirty_samples": _items(draw, lambda: {
            "window_s": draw(_pos), "pages_modified": draw(_whole)}),
        "calibration_runs": _items(draw, lambda: {
            "image_bytes": draw(_nonneg), "checkpoint_s": draw(_nonneg),
            "restore_s": draw(_nonneg), "transfer_s": draw(_nonneg),
            "bandwidth_mbps": draw(_pos)}),
    }


@settings(max_examples=100, deadline=None)
@given(scenario_documents())
def test_every_command_runs_or_rejects_any_schema_document(tmp_path_factory,
                                                           doc):
    work = tmp_path_factory.mktemp("doc")
    scenario, out = work / "scenario.json", str(work / "out")
    scenario.write_text(json.dumps(doc))
    for command in (["plan"], ["simulate"], ["sweep"],
                    ["dist", "--samples", "200"], ["profile"], ["fit"]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run([*command, "--scenario", str(scenario), "--out", out])
        assert code in (0, 2), command
        assert code == 0 or err.getvalue().startswith("error: "), command


@pytest.mark.parametrize("role,same_as", [("client", "source"),
                                           ("orchestrator", "destination"),
                                           ("orchestrator", "client")])
def test_task_agents_must_be_distinct(tmp_path, capsys, role, same_as):
    # In a file, a host shared by two slots has the wrong role for one of
    # them, and the parse says so; built in code, the run rejects it.
    doc = json.loads(Path(DEMO).read_text())
    doc["task"][role] = doc["task"][same_as]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc))
    host = doc["task"][same_as]
    parsed = (f"task {role} {host!r} is a host of role {same_as!r}")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == parsed
    assert run(["simulate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {parsed}\n"
    scenario = load_scenario(DEMO)
    section = scenario.task
    host_of = {"source": section.task.source_agent,
               "destination": section.task.destination_agent,
               "client": section.client}
    section = section._replace(**{role: host_of[same_as]})
    scenario = scenario._replace(task=section)
    agents = (section.task.source_agent, section.task.destination_agent,
              section.client, section.orchestrator)
    message = ("task source, destination, client and orchestrator must "
               f"differ, got {agents}")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scenario, plan_from_scenario(scenario))
    assert str(exc.value) == message


@pytest.mark.parametrize("command", [
    ["plan"], ["simulate"], ["sweep"], ["dist", "--samples", "200"],
    ["profile"], ["fit"]], ids=lambda command: command[0])
def test_task_host_of_another_role_is_rejected_by_every_command(
        tmp_path, capsys, command):
    doc = json.loads(Path(DEMO).read_text())
    doc["hosts"][0]["role"] = "client"  # edge-a, the task's source
    path = tmp_path / "roles.json"
    path.write_text(json.dumps(doc))
    assert run([*command, "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: task source 'edge-a' is a host of role 'client'\n")


def test_sweep_from_zero_is_rejected_naming_from_s(tmp_path, capsys):
    # Accepted before, then every row failed on the task's target instead.
    doc = json.loads(Path(DEMO).read_text())
    doc["sweep"]["from_s"] = 0.0
    path = tmp_path / "from_zero.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: from_s must be finite and > 0, got 0.0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_missing_source_destination_link_is_a_usage_error(tmp_path, capsys,
                                                          command):
    doc = json.loads(Path(DEMO).read_text())
    doc["links"] = [link for link in doc["links"]
                    if {link["from"], link["to"]} != {"edge-a", "edge-b"}]
    path = tmp_path / "unlinked.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: no link between source 'edge-a' and destination 'edge-b'\n")


def _starved(tmp_path) -> str:
    """The demo with the smallest positive source-destination bandwidth."""
    doc = json.loads(Path(DEMO).read_text())
    for link in doc["links"]:
        if {link["from"], link["to"]} == {"edge-a", "edge-b"}:
            link["bandwidth_mbps"] = 5e-324
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_starved_link_plan_writes_infinite_predictions_as_null(capsys,
                                                               tmp_path):
    assert run(["plan", "--scenario", _starved(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out,
                     parse_constant=_reject_constant)
    predicted = doc["predicted"]
    assert doc["target_met"] is False
    assert predicted["downtime_s"] is None and predicted["total_s"] is None
    assert predicted["steps"]["S3"] is None
    assert predicted["bytes_transferred"] == 10485760.0


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_starved_link_simulation_names_the_link(capsys, tmp_path, command):
    assert run([command, "--scenario", _starved(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: predicted total_s inf is too large for a finite watchdog "
        "period (the source-destination link 'edge-a'-'edge-b' has "
        "bandwidth_mbps 5e-324)\n")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_overflowing_plan_blames_no_healthy_link(capsys, tmp_path, command):
    doc = json.loads(Path(DEMO).read_text())
    doc["model_params"]["restore_per_byte_s"] = 1.7e308
    path = tmp_path / "slow-restore.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: predicted total_s inf is too large for a finite watchdog "
        "period\n")


def _report(capsys, tmp_path, command, section, values) -> dict:
    """The JSON report of the demo with ``values`` set in ``section``."""
    doc = json.loads(Path(DEMO).read_text())
    for item, (key, value) in zip(doc[section], values):
        item[key] = value
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--scenario", str(path)]) == 0
    return json.loads(capsys.readouterr().out,
                      parse_constant=_reject_constant)


def test_overflowing_dirty_rate_is_written_as_null(capsys, tmp_path):
    out = _report(capsys, tmp_path, "profile", "dirty_samples",
                  [("window_s", 5e-324)])
    assert out["rate_pages_per_s"] is None
    assert out["mean_rate_pages_per_s"] is None


def test_overflowing_fit_residual_is_written_as_null(capsys, tmp_path):
    out = _report(capsys, tmp_path, "fit", "calibration_runs",
                  [("transfer_s", 0.0), ("transfer_s", 1e300)])
    assert out["params"]["transfer_signaling_s"] > 1e299
    assert out["rms"]["transfer_s"] is None


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


@pytest.mark.parametrize("parallel", ["-1", "-100000"])
def test_negative_parallel_option_is_a_usage_error(tmp_path, capsys,
                                                   parallel):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", DEMO, "--out", str(out),
                "--parallel", parallel]) == 2
    assert f"--parallel must be a whole number >= 0, got {parallel}" \
        in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", [["simulate"], ["sweep"],
                                     ["sweep", "--parallel", "2"]],
                         ids=" ".join)
def test_more_pages_than_a_binomial_draw_takes_is_a_usage_error(
        tmp_path, capsys, command):
    # 10^30 bytes are 2.4e26 pages, past the sampler's 2^63 - 1.
    doc = json.loads(Path(DEMO).read_text())
    doc["ms_profiles"][0]["state_size_bytes"] = 10 ** 30
    doc["task"]["target_duration_s"] = 1e30
    doc["sweep"].update(from_s=1e30, to_s=2e30, step_s=5e29)
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    assert run(["plan", "--scenario", str(scenario)]) == 0
    capsys.readouterr()
    assert run([*command, "--scenario", str(scenario),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: total_pages must be a whole number in "
                          "[1, 9223372036854775807], got ")
    assert "Traceback" not in err


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
