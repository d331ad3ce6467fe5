"""The package root exports exactly the names listed in ``lietower.__all__``,
and no module of the package imports another module's underscore names."""

import ast
from pathlib import Path

import lietower

PACKAGE = Path(lietower.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in lietower.__all__ if not hasattr(lietower, name)] == []
    assert len(set(lietower.__all__)) == len(lietower.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from lietower import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lietower.__all__)


def test_no_module_imports_another_modules_private_names():
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert private == []
