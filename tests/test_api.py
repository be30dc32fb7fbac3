"""The package's public surface."""

import ajclab


def test_every_exported_name_resolves():
    missing = [name for name in ajclab.__all__ if not hasattr(ajclab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from ajclab import *", namespace)
    assert set(ajclab.__all__) <= set(namespace)
