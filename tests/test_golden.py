"""Pinned output bytes of the CLI on the demo scenario.

Each command runs in process through ``cli.main`` and its output must equal
the file under ``tests/golden/`` byte for byte. A deliberate change of
seeded output replaces the golden file in the same change and says why in
CHANGES.md; any other difference is a regression.
"""

from pathlib import Path

import pytest

from edgemig import cli

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    args, outputs = CASES[name]
    argv = args + ["--scenario", DEMO]
    for option, golden in outputs.items():
        argv += [option, str(tmp_path / golden)]
    assert cli.main(argv) == 0
    for golden in outputs.values():
        produced = (tmp_path / golden).read_bytes()
        assert produced == (GOLDEN / golden).read_bytes(), golden
