"""Spans around edgemig's layer boundaries, recorded from the outside.

``Tracer.install`` replaces the module attributes that callers look up
(``edgemig.agents.advance``, ``edgemig.simnet.dirty_set_size``, ...) with
wrappers that record one span per call: name, start, end, parent span and
operation id. Spans stay in memory and are written once, by ``dump``, after
the traced commands have finished. ``derive`` turns a dump into the
per-layer metrics. This file imports nothing from edgemig at module level,
so the harness can use ``derive`` without loading the program.
"""

from __future__ import annotations

import functools
import json
import time

# A new operation starts at each sweep row or simulated migration (both open
# with a plan) and at each Monte Carlo design call made outside a plan.
PLAN = "simnet.plan_from_scenario"
DESIGN = "orchestrator.design"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.stack: list[int] = [-1]
        self.op = 0
        self.counters = {"messages": 0, "dirty_pages": 0,
                         "event_log_bytes": 0, "envelope_breaches": 0,
                         "sim_runs_checked": 0}
        self.problems: list[str] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if name == PLAN or (name == DESIGN and
                                (parent < 0 or spans[parent][0] != PLAN)):
                self.op += 1
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def install_rows(self, cli) -> None:
        """Only the sweep as a whole: safe around a process pool."""
        self.wrap(cli, "sweep_rows", "cli.sweep_rows")

    def install(self, edgemig) -> None:
        cli, simnet = edgemig.cli, edgemig.simnet
        orch, agents = edgemig.orchestrator, edgemig.agents
        c = self.counters
        self.install_rows(cli)
        self.wrap(cli, "emit_report", "cli.emit_report")
        self.wrap(cli, "load_scenario", "scenario.load_scenario")
        self.wrap(cli, "plan_from_scenario", PLAN)
        self.wrap(cli, "run_scenario", "simnet.run_scenario",
                  self._check_run)
        self.wrap(cli, "strategy_distribution",
                  "orchestrator.strategy_distribution")
        self.wrap(cli, "estimate_dirty_rate", "profiler.estimate_dirty_rate")
        self.wrap(cli, "calibration_fit", "profiler.calibration_fit")
        self.wrap(simnet, "design", DESIGN)
        self.wrap(orch, "design", DESIGN)
        self.wrap(orch, "min_bandwidth", "model.min_bandwidth")
        self.wrap(orch, "max_iterations", "model.max_iterations")
        self.wrap(orch.BandwidthDistribution, "sample", "orchestrator.sample")
        self.wrap(agents, "advance", "agents.advance")

        def count_pages(args, kwargs, pages):
            c["dirty_pages"] += pages

        def count_bytes(args, kwargs, line):
            c["event_log_bytes"] += len(line.encode("utf-8")) + 1

        self.wrap(simnet, "dirty_set_size", "simnet.dirty_set_size",
                  count_pages)
        self.wrap(simnet.ProtocolEvent, "to_json_line", "simnet.event_log",
                  count_bytes)

    def _check_run(self, args, kwargs, outcome) -> None:
        """Check one simulated run; envelope breaches are only counted."""
        config = args[1]
        c = self.counters
        c["sim_runs_checked"] += 1
        c["messages"] += outcome.message_count
        pred = config.predicted
        where = f"run {c['sim_runs_checked']}"
        if not outcome.completed:
            self.problems.append(f"{where}: incomplete {outcome.diagnostics}")
            return
        if outcome.downtime_s > outcome.total_s:
            self.problems.append(f"{where}: downtime exceeds total")
        if outcome.message_count != 7 + 3 * config.strategy.iterations:
            self.problems.append(
                f"{where}: {outcome.message_count} messages for "
                f"{config.strategy.iterations} iterations")
        # Above the prediction by more than float rounding.
        if (outcome.downtime_s > pred.downtime_s * (1 + 1e-9)
                or outcome.total_s > pred.total_s * (1 + 1e-9)):
            c["envelope_breaches"] += 1

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                         for s in self.spans],
               "counters": self.counters, "problems": self.problems}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def derive(doc: dict) -> dict[str, float]:
    """Per-layer totals from one dumped trace: calls, time and self time."""
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = {n: 0 for n in names}
    total = {n: 0.0 for n in names}
    self_time = {n: 0.0 for n in names}
    for i, (n, start, end, _, _) in enumerate(spans):
        name = names[n]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]

    def get(table, name):
        return table.get(name, 0)

    c = doc["counters"]
    advance_calls = get(calls, "agents.advance")
    advance_s = get(total, "agents.advance")
    run_s = get(total, "simnet.run_scenario")
    return {
        "cli.emit_report_s": get(total, "cli.emit_report"),
        "cli.sweep_rows_s": get(total, "cli.sweep_rows"),
        "scenario.load_scenario_s": get(total, "scenario.load_scenario"),
        "orchestrator.design_calls": get(calls, DESIGN),
        "orchestrator.design_s": get(total, DESIGN),
        "orchestrator.sample_s": get(total, "orchestrator.sample"),
        "orchestrator.strategy_distribution_self_s":
            get(self_time, "orchestrator.strategy_distribution"),
        "model.max_iterations_calls": get(calls, "model.max_iterations"),
        "model.max_iterations_s": get(total, "model.max_iterations"),
        "model.min_bandwidth_calls": get(calls, "model.min_bandwidth"),
        "model.min_bandwidth_s": get(total, "model.min_bandwidth"),
        "profiler.estimate_dirty_rate_s":
            get(total, "profiler.estimate_dirty_rate"),
        "profiler.calibration_fit_s": get(total, "profiler.calibration_fit"),
        "agents.advance_calls": advance_calls,
        "agents.advance_s": advance_s,
        "agents.advance_us": (1e6 * advance_s / advance_calls
                              if advance_calls else 0.0),
        "simnet.run_scenario_calls": get(calls, "simnet.run_scenario"),
        "simnet.run_scenario_s": run_s,
        "simnet.self_s": get(self_time, "simnet.run_scenario"),
        "simnet.events_per_s": advance_calls / run_s if run_s else 0.0,
        "simnet.messages": c["messages"],
        "simnet.dirty_set_size_calls": get(calls, "simnet.dirty_set_size"),
        "simnet.dirty_set_size_s": get(total, "simnet.dirty_set_size"),
        "simnet.dirty_pages": c["dirty_pages"],
        "simnet.event_log_s": get(total, "simnet.event_log"),
        "simnet.event_log_bytes": c["event_log_bytes"],
        "simnet.envelope_breaches": c["envelope_breaches"],
    }
