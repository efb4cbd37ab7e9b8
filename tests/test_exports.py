"""The package's public names are all importable and listed once."""

import edgemig


def test_every_exported_name_resolves_once():
    names = edgemig.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(edgemig, name)]
    assert missing == []
