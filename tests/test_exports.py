"""The package's public names are all importable and listed once, its
source stays within its line cap, and installing it pulls in nothing."""

import sys
from pathlib import Path

import pytest

import edgemig

# The ROADMAP's cap on src/edgemig for this round, in lines as `wc -l`
# counts them.
LINE_CAP = 2731


def test_every_exported_name_resolves_once():
    names = edgemig.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(edgemig, name)]
    assert missing == []


def test_package_source_stays_within_the_line_cap():
    package = Path(edgemig.__file__).parent
    lines = sum(path.read_bytes().count(b"\n")
                for path in package.glob("*.py"))
    assert lines <= LINE_CAP


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_the_package_depends_on_nothing():
    """No command needs numpy or scipy: they are test oracles, in the
    ``test`` extra."""
    import tomllib

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    assert {"numpy", "scipy"} <= {
        req.split(">")[0].split("=")[0]
        for req in project["optional-dependencies"]["test"]}
