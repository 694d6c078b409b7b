"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import os

import pytest

PACKAGE = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src", "abstrakt"))
# __init__ imports names only to re-export them
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
