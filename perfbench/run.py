"""edgemig benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-precopy --seed 2026 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, trace 0

Each workload's scenario is generated from ``--seed``. Every timed iteration
is one fresh interpreter (``child.py``) that imports ``edgemig.cli`` from
``src/`` and runs the workload's CLI subcommands through ``cli.main``: a
closed loop of one client and one operation after another. Iterations repeat
while another one fits in ``--seconds``. The first iteration's output bytes
are the reference every later one must reproduce (for ``sweep --parallel``,
an untimed serial pass gives them).

Before every iteration ``hostref.py`` measures how fast the host runs fixed
work that is not edgemig's; the end-to-end timings are scaled by it to a
reference host (see ``measure`` and NOTES.md), and the unscaled values are
printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced iterations and reports the per-layer metrics (see tracer.py).
Outputs are checked after every iteration; a failed check, a non-zero exit
or bytes that differ from the reference count as failed operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record with the
machine, versions, commit, per-iteration samples and output digests goes to
``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import derive
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, expected_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 150

# A host on which hostref.py's scipy start-up takes STARTUP_REF_S and one
# piece of its work WORK_REF_S[kind]: the end-to-end timings are scaled to it.
STARTUP_REF_S = 1.0
WORK_REF_S = {"interp": 0.04, "memory": 0.3}

END_TO_END = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.modules_loaded": "count",
    "cli.emit_report_s": "s", "cli.sweep_rows_s": "s",
    "cli.parallel_speedup": "ratio", "scenario.load_scenario_s": "s",
    "orchestrator.design_calls": "count", "orchestrator.design_s": "s",
    "orchestrator.sample_s": "s",
    "orchestrator.strategy_distribution_self_s": "s",
    "model.max_iterations_calls": "count", "model.max_iterations_s": "s",
    "model.min_bandwidth_calls": "count", "model.min_bandwidth_s": "s",
    "profiler.estimate_dirty_rate_s": "s", "profiler.calibration_fit_s": "s",
    "agents.advance_calls": "count", "agents.advance_s": "s",
    "agents.advance_us": "us",
    "simnet.run_scenario_calls": "count", "simnet.run_scenario_s": "s",
    "simnet.self_s": "s", "simnet.events_per_s": "1/s",
    "simnet.messages": "count", "simnet.dirty_set_size_calls": "count",
    "simnet.dirty_set_size_s": "s", "simnet.dirty_pages": "count",
    "simnet.dirty_set_size.w1e5_s": "s", "simnet.dirty_set_size.w1e6_s": "s",
    "simnet.dirty_set_size.w1e7_s": "s",
    "simnet.dirty_set_size.w1e7_peak_mb": "MiB",
    "simnet.event_log_s": "s", "simnet.event_log_bytes": "bytes",
    "simnet.envelope_breaches": "count", "trace.overhead_ratio": "ratio",
}


def spawn(argv: list[str]) -> tuple[int, str]:
    """Run a Python script of the benchmark; exit code and stderr tail.

    The script gets its own process group, so a timeout also ends any pool
    workers it started."""
    with subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, f"timed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, stderr.strip()[-400:]


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One invocation: a scenario, its reference bytes and its iterations."""

    def __init__(self, name: str, seed: int, size: str, trace: int):
        self.w = WORKLOADS[name]
        self.size = size
        self.dir = WORK / f"{name}-{seed}-{size}-{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.doc = self.w.generate(seed, size)
        self.scenario = self.dir / "scenario.json"
        self.scenario.write_text(json.dumps(self.doc, indent=2) + "\n")
        self.ops = expected_ops(self.doc, name, size)
        self.reference: dict[str, str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.versions: dict = {}
        self.count = 0

    def _argv(self, commands, outdir: Path) -> list[list[str]]:
        out = []
        for outfile, (cmd, *rest) in commands(self.size):
            rest = [a.replace("{out}", str(outdir)) for a in rest]
            out.append([cmd, "--scenario", str(self.scenario),
                        "--out", str(outdir / outfile), *rest])
        return out

    def host_reference(self) -> dict | None:
        """Spawn hostref.py; its start-up and loop times, or None."""
        out = self.dir / "hostref.json"
        t_spawn = time.perf_counter()
        rc, stderr = spawn([str(HERE / "hostref.py"), str(out), self.w.work])
        if rc != 0 or not out.exists():
            self.problems.append(f"hostref.py exited {rc}: {stderr}")
            return None
        res = json.loads(out.read_text())
        out.unlink()
        return {"startup_s": res["t_ready"] - t_spawn,
                "work_s": res["work_s"]}

    def iterate(self, commands, trace: str) -> dict:
        """Spawn one child, check its outputs, return its samples."""
        self.count += 1
        outdir = self.dir / f"it{self.count}"
        outdir.mkdir()
        job = self.dir / f"job{self.count}.json"
        result = self.dir / f"result{self.count}.json"
        spans = self.dir / f"spans{self.count}.json"
        job.write_text(json.dumps({
            "src": str(SRC), "trace": trace,
            "commands": self._argv(commands, outdir),
            "result": str(result), "spans": str(spans)}))
        t_spawn = time.perf_counter()
        rc, stderr = spawn([str(HERE / "child.py"), str(job)])
        problems = []
        res = None
        if rc != 0 or not result.exists():
            problems.append(f"child exited {rc}: {stderr}")
        else:
            res = json.loads(result.read_text())
            self.versions = res["versions"]
            if any(code != 0 for code in res["codes"]):
                problems.append(f"exit codes {res['codes']}: {stderr}")
        failed = self.ops
        sample: dict = {"trace": trace}
        if res is not None and not problems:
            outputs = {p.name: p.read_bytes()
                       for p in sorted(outdir.iterdir())}
            digests = {k: hashlib.sha256(v).hexdigest()
                       for k, v in outputs.items()}
            try:
                failed, problems = self.w.check(self.doc, outputs,
                                                res["csv_header"], self.size)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                failed, problems = self.ops, [f"malformed output: {exc!r}"]
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems.append("output bytes differ from the reference "
                                "iteration of the same seed")
                failed = self.ops
            work_s = res["t_done"] - res["t_ready"]
            sample.update(
                wall_s=res["t_done"] - t_spawn,
                start_s=res["t_ready"] - t_spawn, work_s=work_s,
                setup_s=res["t_ready"] - res["t_import"],
                ops_per_s=(self.ops - failed) / work_s,
                peak_rss_mb=res["peak_rss_kib"] / 1024,
                modules_loaded=res["modules_loaded"], digests=digests)
            if trace != "off":
                dump = json.loads(spans.read_text())
                sample["layers"] = derive(dump)
                traced_problems = dump["problems"]
                problems += traced_problems[:5]
                failed = min(self.ops, failed + len(traced_problems))
        self.attempted += self.ops
        self.failed += failed
        self.problems += problems
        shutil.rmtree(outdir)
        spans.unlink(missing_ok=True)
        return sample


def timed_loop(seconds: float, step) -> None:
    """Call ``step`` twice (so determinism is always checked), then again
    while another call fits in ``seconds``."""
    start = last = time.perf_counter()
    for count in itertools.count(1):
        step()
        now = time.perf_counter()
        if count >= 2 and now + (now - last) - start > seconds:
            return
        last = now


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def is_parallel(run: Run) -> bool:
    return run.w.commands(run.size) != run.w.reference_commands(run.size)


def measure(run: Run, seconds: float) -> tuple[dict, list[dict], dict]:
    # The first iteration's bytes are the reference; a parallel workload
    # takes them from an untimed serial pass instead.
    if is_parallel(run):
        run.iterate(run.w.reference_commands, "off")
    samples: list[dict] = []
    refs: list[dict] = []

    def step() -> None:
        refs.append(run.host_reference())
        samples.append(run.iterate(run.w.commands, "off"))

    timed_loop(seconds, step)
    ok = [s for s in samples if "wall_s" in s]
    if not ok or not all(refs):
        return {}, samples, {}
    # Every timing is scaled by how fast the host ran hostref.py over the
    # same run: start-up (spawn to import done) by its scipy start-up, the
    # work after the import by its work of the workload's kind. The host's
    # speed also swings within seconds, so the factors and the post-import
    # work are taken over the whole run, not paired iteration by iteration.
    startup = STARTUP_REF_S / statistics.median(r["startup_s"] for r in refs)
    work = WORK_REF_S[run.w.work] / statistics.fmean(
        t for r in refs for t in r["work_s"])
    start_s = statistics.fmean(s["start_s"] for s in ok)
    work_s = statistics.fmean(s["work_s"] for s in ok)
    raw = {"wall_s": start_s + work_s,
           "setup_s": median_of(ok, "setup_s"),
           "ops_per_s": statistics.fmean(s["ops_per_s"] * s["work_s"]
                                         for s in ok) / work_s,
           "peak_rss_mb": median_of(ok, "peak_rss_mb")}
    metrics = {"wall_s": start_s * startup + work_s * work,
               "setup_s": raw["setup_s"] * startup,
               "ops_per_s": raw["ops_per_s"] / work,
               "peak_rss_mb": raw["peak_rss_mb"]}
    host = {"startup_factor": startup, "work_factor": work, "raw": raw,
            "refs": refs}
    return metrics, samples, host


def measure_layers(run: Run, seed: int, seconds: float
                   ) -> tuple[dict, list[dict]]:
    variants = [("full", run.w.reference_commands),
                ("rows", run.w.reference_commands)]
    parallel = is_parallel(run)
    if parallel:
        variants.append(("rows", run.w.commands))
    rounds: list[list[dict]] = []
    timed_loop(seconds, lambda: rounds.append(
        [run.iterate(cmds, level) for level, cmds in variants]))
    samples = [s for r in rounds for s in r]
    if not all("wall_s" in s for s in samples):
        return {}, samples
    traced = [r[0] for r in rounds]
    metrics = {k: statistics.median(s["layers"][k] for s in traced)
               for k in traced[0]["layers"]}
    metrics["cli.import_s"] = median_of(traced, "setup_s")
    metrics["cli.modules_loaded"] = median_of(traced, "modules_loaded")
    metrics["trace.overhead_ratio"] = (
        median_of(traced, "wall_s") / median_of([r[1] for r in rounds],
                                                "wall_s"))
    metrics["cli.parallel_speedup"] = (
        statistics.median(r[1]["layers"]["cli.sweep_rows_s"]
                          / r[2]["layers"]["cli.sweep_rows_s"]
                          for r in rounds) if parallel else 0.0)
    probe = run.dir / "probe.json"
    rc, stderr = spawn([str(HERE / "sampler_probe.py"), str(SRC), str(seed),
                        str(probe)])
    if rc != 0:
        run.problems.append(f"sampler probe failed: {stderr}")
        run.failed += 1
        run.attempted += 1
        return {}, samples
    metrics.update(json.loads(probe.read_text()))
    return {k: metrics[k] for k in PER_LAYER}, samples


def run_one(name: str, seed: int, seconds: float, trace: int, size: str
            ) -> dict:
    run = Run(name, seed, size, trace)
    host: dict = {}
    if trace:
        metrics, samples = measure_layers(run, seed, seconds)
        units = PER_LAYER
    else:
        metrics, samples, host = measure(run, seconds)
        units = END_TO_END
    correct = run.failed == 0 and not run.problems and bool(metrics)
    record = {
        "workload": name, "seed": seed, "size": size, "trace": trace,
        "seconds": seconds, "why": run.w.why, "op": run.w.op,
        "machine": {"nproc": os.cpu_count(), **run.versions,
                    "commit": git_commit()},
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": metrics,
        "digests": run.reference, "host": host, "samples": samples,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-{size}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    shutil.rmtree(run.dir)

    timed = [s for s in samples if "wall_s" in s]
    print(f"workload {name} (one op = one {run.w.op}), seed {seed}, "
          f"size {size}, trace {trace}: {len(timed)} measured iterations")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for key, value in metrics.items():
        print(f"  {key:44s} {value:14.6g} {units[key]}")
    if host:
        print(f"  scaled by start-up x{host['startup_factor']:.4g} and "
              f"{run.w.work} x{host['work_factor']:.4g}; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in host["raw"].items()))
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':44s} {ratio:14.6g} 1"
          f"   ({run.failed} of {run.attempted} ops)")
    for fname, digest in sorted((run.reference or {}).items()):
        print(f"  sha256 {fname} {digest}")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    return {"correct": correct, "attempted": max(1, run.attempted),
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test grade of every workload")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "edgemig" / "cli.py").is_file():
        print(f"error: no edgemig source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {n: run_one(n, args.seed, args.seconds, args.trace, args.size)
           for n in names}
    if args.workload == "all":
        print("workload              " + "".join(
            f"{k:>14s}" for k in [*END_TO_END, "failed_ratio"]))
        for n, r in out.items():
            vals = [r["metrics"].get(k, {}).get("value", float("nan"))
                    for k in END_TO_END] + [r["failed"] / r["attempted"]]
            print(f"{n:22s}" + "".join(f"{v:14.6g}" for v in vals))
        print("units                 " + "".join(
            f"{u:>14s}" for u in [*END_TO_END.values(), "1"]))
        print(json.dumps(out))
    else:
        print(json.dumps(out[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
