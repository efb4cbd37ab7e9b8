"""Smoke test of the benchmark itself.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload at its tiny grade, untraced and traced, for one second
each, and checks that every run is correct with no failed operation, that
every metric of BENCHMARK.json is printed by name with its unit, and that
BENCHMARK.json agrees with the harness's own tables. Exits non-zero on the
first failure. Takes about a minute on two cores.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")
    check(all(w["why"] == WORKLOADS[w["name"]].why
              for w in bench["workloads"]), "workload reasons match")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        check({m["name"]: m["unit"] for m in bench[key]} == table,
              f"BENCHMARK.json {key} matches run.py")

    for name in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=170)
            where = f"{name} trace {trace}"
            check(proc.returncode == 0, f"{where} exits 0: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{where} result keys")
            check(last["correct"] and last["failed"] == 0,
                  f"{where} is correct: {proc.stdout[-1500:]}")
            check({k: v["unit"] for k, v in last["metrics"].items()} == table,
                  f"{where} reports every metric with its unit")
            for metric, unit in [*table.items(), ("failed_ratio", "1")]:
                pattern = rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}"
                check(any(re.match(pattern, ln) for ln in lines),
                      f"{where} prints {metric} in {unit}")
            ratio = next(ln for ln in lines
                         if ln.split()[:1] == ["failed_ratio"])
            check(float(ratio.split()[1]) == 0.0, f"{where} failed_ratio is 0")
            print(f"ok  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
