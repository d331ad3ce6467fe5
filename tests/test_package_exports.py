"""The package root exports exactly the names listed in ``lietower.__all__``."""

import lietower


def test_every_exported_name_resolves():
    assert [name for name in lietower.__all__ if not hasattr(lietower, name)] == []
    assert len(set(lietower.__all__)) == len(lietower.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from lietower import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lietower.__all__)
