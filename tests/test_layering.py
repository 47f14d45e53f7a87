"""Module boundaries: no ctgames module imports another module's private names.

An underscore-prefixed name is its module's own; a second module that needs
it should get a public name or the object that owns the computation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "ctgames"
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / PACKAGE).glob("*.py"))


def private_imports(path):
    """``(line, name)`` of every underscore-prefixed name that the module at
    ``path`` imports from another ctgames module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != PACKAGE and not module.startswith(PACKAGE + "."):
            continue
        found += [(node.lineno, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_package_modules_found():
    assert {"equilibrium.py", "estimate.py", "diagnostics.py", "cli.py"} <= {
        path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []
