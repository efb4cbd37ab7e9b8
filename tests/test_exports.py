"""The package's public names are all importable and listed once, and its
source stays within its line cap."""

from pathlib import Path

import edgemig

# The ROADMAP's cap on src/edgemig for this round, in lines as `wc -l`
# counts them.
LINE_CAP = 2769


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
